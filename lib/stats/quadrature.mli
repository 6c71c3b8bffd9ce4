(** Numerical integration.

    Gauss–Hermite quadrature computes Gaussian expectations
    [E f(X)], the quantity at the heart of the paper's attenuation
    factor [a = (E h(X)X)^2 / E h(X)^2] (Appendix A); adaptive
    Simpson handles generic finite-interval integrals. *)

val hermite_nodes : n:int -> (float * float) array
(** [hermite_nodes ~n] returns the [n] (node, weight) pairs of
    probabilists' Gauss–Hermite quadrature, normalized so that
    [sum w_i f(x_i)] approximates [E f(Z)] for Z standard normal.
    Exact for polynomials up to degree [2n-1]. Results are memoized
    per [n] in a cache that any domain may call concurrently.
    @raise Invalid_argument if [n <= 0 || n > 256]. *)

val gaussian_expectation : ?n:int -> (float -> float) -> float
(** [gaussian_expectation f] is [E f(Z)], Z standard normal, by
    [n]-point (default 96) Gauss–Hermite quadrature. *)

val simpson : ?eps:float -> ?max_depth:int -> (float -> float) -> lo:float -> hi:float -> float
(** Adaptive Simpson integration of [f] over [\[lo, hi\]] with
    absolute tolerance [eps] (default 1e-10) and recursion depth cap
    [max_depth] (default 40). @raise Invalid_argument if
    [hi < lo]. *)
