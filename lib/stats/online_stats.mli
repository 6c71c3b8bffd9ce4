(** Streaming (single-pass, O(1)-memory) summary statistics.

    The multiplexer engine ({!Ss_mux}) tracks per-source loss, queue
    occupancy and delay over millions of slots without storing sample
    paths; this module provides the accumulators it needs: Welford's
    numerically stable mean/variance recursion and the P² dynamic
    quantile estimator of Jain & Chlamtac (CACM 1985), which tracks a
    quantile with five markers and no stored observations.

    All accumulators are mutable and single-threaded. *)

type t
(** Welford accumulator: count, mean, variance, min, max. Its state
    is unboxed floats, the count exact below 2^53 observations. *)

val create : unit -> t
(** Fresh empty accumulator. *)

val add : t -> float -> unit
(** Feed one observation. *)

val add_at : t -> float array -> int -> unit
(** [add_at t a j] is [add t a.(j)], reading the observation in place
    so that no boxed float crosses the call.
    @raise Invalid_argument if [j] is outside [a]. *)

val count : t -> int

val mean : t -> float
(** @raise Invalid_argument on an empty accumulator. *)

val variance : t -> float
(** Population (1/n) variance, matching {!Descriptive.variance}.
    @raise Invalid_argument on an empty accumulator. *)

val sample_variance : t -> float
(** Unbiased (1/(n-1)) variance, matching
    {!Descriptive.sample_variance}. @raise Invalid_argument with
    fewer than two observations. *)

val std : t -> float
(** Square root of {!variance}. *)

val min : t -> float
(** @raise Invalid_argument on an empty accumulator. *)

val max : t -> float
(** @raise Invalid_argument on an empty accumulator. *)

val merge : t -> t -> t
(** Parallel (Chan et al.) combination of two accumulators; neither
    input is mutated. Exact for count/min/max, numerically stable for
    mean/variance. *)

val save : t -> Ss_checkpoint.W.t -> unit
val restore : t -> Ss_checkpoint.R.t -> unit
(** Checkpoint codec: {!restore} overwrites the accumulator in place
    with a {!save}d state, bit-exactly.
    @raise Ss_checkpoint.Corrupt on malformed data, naming a count
    outside [\[0, 2^53)]. *)

(** Streaming variance–time Hurst estimation.

    The online form of {!Ss_fractal.Hurst.variance_time}: level [j]
    aggregates the input into blocks of [m = 2^j] consecutive samples
    and accumulates the completed block means in a Welford
    accumulator, so [var] of the level-[j] means tracks
    [sigma2 * m^(2H-2)] for an FGN-like input. {!estimate} fits
    [log10 var] against [log10 m] by OLS and returns
    [H = 1 + slope/2]. O(levels) memory, O(levels) per observation —
    cheap enough to run per source inside the multiplexer's policing
    loop. *)
module Vt : sig
  type t

  val create : ?levels:int -> unit -> t
  (** [levels] (default 7) dyadic aggregation levels
      [m = 1, 2, ..., 2^(levels-1)].
      @raise Invalid_argument if [levels < 3] or [levels > 30]. *)

  val add : t -> float -> unit
  (** Feed one observation. *)

  val add_at : t -> float array -> int -> unit
  (** [add_at t a j] is [add t a.(j)], without boxing the observation.
      @raise Invalid_argument if [j] is outside [a]. *)

  val count : t -> int
  (** Observations fed so far. *)

  val estimate : t -> float option
  (** Current H estimate, or [None] until at least three levels have
      four completed blocks each with positive variance (so roughly
      [32 * 4] observations for the default levels). The estimate is
      unclamped: values outside (0,1) can occur on pathological input
      and are the caller's signal of a non-FGN stream. *)

  val save : t -> Ss_checkpoint.W.t -> unit
  val restore : t -> Ss_checkpoint.R.t -> unit
  (** Checkpoint codec; {!restore} requires an estimator created with
      the same [levels] and overwrites it in place.
      @raise Ss_checkpoint.Corrupt on level-structure mismatch, or a
      level [j] whose open block holds a count outside [\[0, 2^j)]. *)
end

(** P² dynamic quantile estimation without stored samples.

    Five markers track the running min, the p/2, p and (1+p)/2
    quantiles and the max; marker heights are adjusted with a
    piecewise-parabolic (hence "P squared") interpolation each time
    the desired marker positions drift. The estimate converges to the
    true quantile for i.i.d. input; accuracy on dependent input is
    what the [test_mux] property tests quantify. *)
module P2 : sig
  type t

  val create : p:float -> t
  (** Track the [p]-quantile. @raise Invalid_argument if [p] outside
      (0,1). *)

  val p : t -> float
  (** The tracked probability level. *)

  val add : t -> float -> unit
  (** Feed one observation. *)

  val count : t -> int

  val quantile : t -> float
  (** Current estimate. With five or fewer observations this is the
      exact (type-7 interpolated) empirical quantile, clamped to the
      order statistics themselves at integral ranks — never NaN for
      non-NaN input, even when the sample prefix contains
      infinities.
      @raise Invalid_argument on an empty estimator. *)

  val save : t -> Ss_checkpoint.W.t -> unit
  val restore : t -> Ss_checkpoint.R.t -> unit
  (** Checkpoint codec; {!restore} requires an estimator created with
      the bitwise-same [p] and overwrites it in place.
      @raise Ss_checkpoint.Corrupt on mismatch. *)
end
