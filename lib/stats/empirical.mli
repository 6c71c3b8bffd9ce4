(** Empirical distributions: ECDF, quantile function, Q-Q data.

    The paper's transform [h(x) = F_Y^{-1}(Phi(x))] inverts the
    empirical distribution of the video trace directly; this module
    provides that inverse with linear interpolation between order
    statistics so [h] is continuous and non-decreasing. *)

type t
(** An empirical distribution built from a data sample. The sample is
    copied and sorted at construction. *)

val of_data : float array -> t
(** @raise Invalid_argument on empty input. *)

val size : t -> int
(** Number of sample points. *)

val cdf : t -> float -> float
(** Right-continuous ECDF: fraction of sample points [<= x]. *)

val quantile : t -> float -> float
(** [quantile t p] for [p] in [\[0,1\]]: linear interpolation between
    order statistics (type-7, matching {!Descriptive.quantile}).
    [quantile t 0.] is the sample minimum and [quantile t 1.] the
    maximum; intermediate values are continuous and non-decreasing in
    [p]. @raise Invalid_argument if [p] outside [0,1]. *)

val quantile_into : t -> float array -> off:int -> len:int -> unit
(** [quantile_into t xs ~off ~len] replaces each [xs.(i)], for [i] in
    [off .. off+len-1], by [quantile t xs.(i)], bitwise and without
    allocation. @raise Invalid_argument if the range lies outside
    [xs] or a probability lies outside [0,1] (elements before it are
    already replaced). *)

val mean : t -> float

val variance : t -> float
(** Population variance of the sample. *)

val support : t -> float * float
(** Sample (min, max). *)

val qq : t -> t -> n:int -> (float * float) list
(** [qq a b ~n] returns [n] points [(quantile a p, quantile b p)] for
    [p] on a uniform grid in (0,1) — the Q-Q plot of [b] against [a]
    (paper Fig 13). @raise Invalid_argument if [n <= 0]. *)

val ks_distance : t -> t -> float
(** Two-sample Kolmogorov–Smirnov statistic
    [sup_x |F_a(x) - F_b(x)|], used in tests to check marginal
    agreement. *)
