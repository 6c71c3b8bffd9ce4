(** Davies–Harte circulant-embedding sampler.

    Generates exact stationary Gaussian paths with a prescribed
    autocorrelation in O(n log n) by embedding the covariance
    sequence in a circulant matrix and diagonalizing it with the FFT.
    Used for the long "empirical" reference traces (10^5+ frames)
    where Hosking's quadratic cost is prohibitive; cross-validated
    against Hosking in the test suite and in the [abl-gen] ablation
    bench.

    The embedding is valid when all circulant eigenvalues are
    non-negative — guaranteed for FGN. For arbitrary models the plan
    applies the standard approximate-circulant rule: negative
    eigenvalues are clipped to zero, which bounds the induced
    covariance error by the clipped mass over the positive mass
    ({!clipped_ratio}). By default a plan refuses once that ratio
    exceeds 1e-4; with [allow_clipping] it clips any amount and the
    output is only statistically faithful to the autocorrelation. *)

type plan
(** Precomputed eigenvalue data for a given autocorrelation and
    length; reusable across paths. *)

val plan : ?allow_clipping:bool -> acf:Acf.t -> n:int -> unit -> plan
(** Build a plan for paths of length [n].
    @raise Invalid_argument if [n <= 0], if the spectrum is degenerate
    (no positive eigenvalue mass), or — unless [allow_clipping]
    (default false) — if the negative eigenvalues hold more than 1e-4
    of the positive mass (the autocorrelation is not embeddable at
    this length; see {!check_clipping}). *)

val check_clipping : acf:Acf.t -> plan -> unit
(** The refusal {!plan} applies without [allow_clipping], for callers
    holding a plan built with it (a plan cache serving both kinds of
    request).
    @raise Invalid_argument naming [acf] and [--allow-clipping] when
    the clipped mass exceeds 1e-4 of the positive mass. *)

val plan_length : plan -> int

val min_eigenvalue : plan -> float
(** Smallest circulant eigenvalue before clipping — a diagnostic for
    embeddability. *)

val clipped_ratio : plan -> float
(** Negative eigenvalue mass clipped to zero over the positive mass:
    0 when the circulant is positive semidefinite. The covariance
    error of the generated paths is bounded by this ratio. *)

val generate : plan -> Ss_stats.Rng.t -> float array
(** Sample a zero-mean unit-variance Gaussian path of length
    [plan_length]. *)

val generate_into : plan -> Ss_stats.Rng.t -> float array -> unit
(** Sample into the first [plan_length] entries of an existing buffer
    — bit-identical to {!generate} on the same generator state, for
    replication loops that reuse one path buffer. The plan itself is
    never mutated, so one plan can serve many streams.
    @raise Invalid_argument if the buffer is shorter than
    [plan_length]. *)
