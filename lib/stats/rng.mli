(** Deterministic, splittable pseudo-random number generator.

    The generator is xoshiro256++ (Blackman & Vigna, 2019) seeded
    through splitmix64, hand-rolled so that every experiment in this
    repository is reproducible from a single integer seed and
    independent substreams can be split off for parallel or
    per-replication use.

    All stochastic entry points in the library take an explicit
    [Rng.t]; there is no hidden global state. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] builds a generator from a 63-bit seed. Equal seeds
    give equal streams. *)

val of_state : int64 array -> t
(** [of_state s] builds a generator from a raw 4-word state (copied).
    @raise Invalid_argument if [Array.length s <> 4] or the state is
    all zero. *)

val copy : t -> t
(** Independent copy: advancing one does not affect the other. *)

val copy_into : src:t -> dst:t -> unit
(** Overwrite [dst]'s state with [src]'s. The checkpoint layer uses
    this to rewind a generator that is captured by closure. *)

val split : t -> t
(** [split t] deterministically derives a fresh generator whose
    stream is (statistically) independent of the continuation of
    [t]'s stream, and advances [t]. Used to give each simulation
    replication its own substream. *)

val split_n : t -> int -> t array
(** [split_n t n] is [n] successive {!split}s of [t] in index order:
    element [i] is the [i]-th child stream. Advancing the parent this
    way on one domain before fanning work out is what makes parallel
    replication estimates independent of the domain count.
    @raise Invalid_argument if [n < 0]. *)

val bits64 : t -> int64
(** Next raw 64-bit output word. *)

val float : t -> float
(** Uniform float in [\[0, 1)] with 53 random bits. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [float t < p]: the same draw and the same
    comparison, true with probability [p] for [p] in [\[0, 1\]]. It
    returns no float, so it allocates nothing, where {!float} boxes
    its result. *)

val float_range : t -> float -> float -> float
(** [float_range t a b] is uniform in [\[a, b)].
    @raise Invalid_argument if [b <= a]. *)

val int_range : t -> int -> int -> int
(** [int_range t lo hi] is uniform on the inclusive range
    [\[lo, hi\]]. @raise Invalid_argument if [hi < lo]. *)

val bool : t -> bool
(** Fair coin. *)

val gaussian : t -> float
(** Standard normal deviate (Marsaglia polar method; exact in
    distribution, not table-driven). *)

val fill_gaussian : t -> float array -> off:int -> len:int -> unit
(** [fill_gaussian t buf ~off ~len] writes [len] standard normal
    deviates into [buf.(off .. off+len-1)] — the exact sequence (and
    final generator state, including the cached polar deviate) of
    [len] successive {!gaussian} calls, without a boxed float return
    per deviate. The block generation kernels batch their innovations
    through this.
    @raise Invalid_argument if the range falls outside [buf]. *)

val save : t -> Ss_checkpoint.W.t -> unit
(** Serialize the full state, including the cached polar deviate, so
    a restored stream continues bit-for-bit. *)

val restore : t -> Ss_checkpoint.R.t -> unit
(** Overwrite [t]'s state in place from a {!save}d snapshot. In-place
    because generators are captured by closure throughout the library.
    @raise Ss_checkpoint.Corrupt on malformed or all-zero state. *)

val gaussian_mv : t -> mean:float -> std:float -> float
(** Normal deviate with given mean and standard deviation.
    @raise Invalid_argument if [std < 0]. *)

val exponential : t -> rate:float -> float
(** Exponential deviate with rate [rate] (mean [1/rate]).
    @raise Invalid_argument if [rate <= 0]. *)

val pareto : t -> shape:float -> scale:float -> float
(** Pareto (type I) deviate: support [\[scale, infinity)], tail
    [P(X>x) = (scale/x)^shape].
    @raise Invalid_argument if [shape <= 0 || scale <= 0]. *)
