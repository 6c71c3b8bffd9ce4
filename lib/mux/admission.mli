(** Effective-bandwidth call admission control for the multiplexer.

    The decision rule is the fractional-Brownian-storage overflow
    approximation already used for Fig-16-style overlays
    ({!Ss_queueing.Norros}): a new source is admitted iff the
    predicted stationary overflow probability [Pr(Q > buffer)] of the
    aggregate — current load plus the candidate — stays at or below
    the target [epsilon]. Aggregation follows FBM superposition:
    means and variance coefficients add; the Hurst parameter of the
    aggregate is the maximum of the components (the largest H
    dominates the tail, a conservative choice for heterogeneous
    sources).

    {!effective_bandwidth} is the closed-form inverse: the smallest
    service rate at which a descriptor meets [(buffer, epsilon)],
    Norros' [c = m + (kappa(H)^2 * (-2 ln eps) * sigma2 /
    b^(2-2H))^(1/2H)] — what the paper's Section 1 calls the
    bandwidth a VBR source effectively consumes. *)

type descr = {
  name : string;
  mean : float;  (** per-slot mean arrival rate *)
  sigma2 : float;  (** per-slot marginal variance (FBM coefficient) *)
  hurst : float;
}

type decision =
  | Admit of float  (** predicted aggregate overflow after admission *)
  | Reject of string  (** human-readable reason *)

val descr_of_source : Source.t -> descr
(** Lift a streaming source's nominal parameters into a CAC
    descriptor. *)

val aggregate : descr list -> descr
(** FBM superposition: sum of means and variances, max of Hurst
    parameters. The empty list aggregates to the zero descriptor
    (mean 0, sigma2 0, H 0.5 — no LRD claim), consistent with
    [predicted_overflow [] = 0]. *)

val predicted_overflow : service:float -> buffer:float -> descr list -> float
(** Norros overflow probability of the aggregate ([0] for an empty
    list, [1] when the aggregate mean reaches the service rate).
    @raise Invalid_argument if [service <= 0] or [buffer < 0]. *)

val validate : descr -> string option
(** [None] when the descriptor is well-formed (finite nonnegative
    mean and sigma2, Hurst in (0,1)); otherwise a human-readable
    reason naming the offending field. {!decide} rejects with this
    reason instead of propagating an [Invalid_argument]. *)

val effective_bandwidth : buffer:float -> epsilon:float -> descr -> float
(** Minimal service rate under which the descriptor alone meets
    [Pr(Q > buffer) <= epsilon].
    @raise Invalid_argument if [buffer <= 0], [epsilon] is NaN or
    outside (0,1), [sigma2 <= 0] or [hurst] outside (0,1). *)

type t
(** Mutable admission controller: link parameters plus the set of
    admitted descriptors. *)

val create : service:float -> buffer:float -> epsilon:float -> t
(** @raise Invalid_argument if [service <= 0], [buffer <= 0] or
    [epsilon] is NaN or outside (0,1). *)

val admitted : t -> descr list
(** Currently admitted descriptors, in admission order. *)

val admitted_count : t -> int

val decide : t -> descr -> decision
(** Pure decision for a candidate against the current load; does not
    mutate. A malformed descriptor (NaN or negative mean/sigma2,
    NaN or out-of-range Hurst) is a [Reject] with the offending field
    in the reason — never an [Invalid_argument] from deeper layers:
    CAC faces untrusted, possibly measured, descriptors. *)

val try_admit : t -> descr -> decision
(** {!decide}, recording the candidate into the admitted set when the
    answer is [Admit]. *)

val renegotiate : t -> name:string -> descr -> decision
(** Replace the admitted descriptor named [name] with [d]: the
    decision is taken with the old contract removed from the load,
    and on [Reject] the old contract is restored unchanged. If no
    admitted descriptor carries [name] this is plain {!try_admit}.
    Used by {!Police} when a source's measured model drifts from its
    declared one. *)

val evict : t -> name:string -> bool
(** Remove the (most recently admitted) descriptor named [name] from
    the load; [false] if absent. *)

val save_descr : Ss_checkpoint.W.t -> descr -> unit
val read_descr : Ss_checkpoint.R.t -> descr
(** Descriptor codec, shared with the policing layer's checkpoint. *)

val save : t -> Ss_checkpoint.W.t -> unit
val restore : t -> Ss_checkpoint.R.t -> unit
(** Checkpoint codec for the admitted-load list. {!restore} requires a
    controller created with the bitwise-same service/buffer/epsilon
    and overwrites its load in place.
    @raise Ss_checkpoint.Corrupt on parameter mismatch. *)
