(** Marginal transformation of a Gaussian background process and its
    autocorrelation attenuation (paper Eq 7 and Appendix A).

    [h(x) = F_Y^{-1}(Phi(x))] maps a standard normal variate to the
    target marginal [F_Y]. Appendix A proves that for any measurable
    [h] with square-integrable image, [Y = h(X)] keeps the Hurst
    parameter of [X] but its autocorrelation is asymptotically
    attenuated: [r_h(k) -> a * r(k)] with
    [a = (E h(X) X)^2 / Var h(X) <= 1]. This module provides the
    transform, the theoretical attenuation via Gauss–Hermite
    quadrature, and a simulation-based measurement (the paper's
    Step 3 measures it from one synthetic run; the quadrature result
    is exact up to quadrature error — the [abl-atten] bench compares
    them). *)

type t
(** A marginal transform bound to a target distribution. *)

val make : Ss_stats.Dist.t -> t
(** Build [h = quantile . Phi]. Gaussian inputs are clamped to
    +-8 standard deviations before inversion so extreme deviates stay
    inside the quantile's (0,1) domain. *)

val of_empirical : Ss_stats.Empirical.t -> t
(** [make (Dist.of_empirical e)]: histogram inversion of a sample, the
    paper's transform. Same values as {!make}; {!apply_into} inverts
    it without allocation. *)

val relax : t -> t
(** The relaxed twin of a transform: the same clamp and target
    quantile, but [Phi] evaluated by the erf-free
    {!Ss_stats.Special.normal_cdf_relaxed} (absolute error < 7.5e-8 in
    probability). The FFT kernel tier's transform: outputs are
    statistically indistinguishable from {!make}'s but not bitwise,
    so that tier is seed-incompatible with the exact one. *)

val dist : t -> Ss_stats.Dist.t
(** The target marginal. *)

val apply1 : t -> float -> float
(** Evaluate [h] at one point. *)

val apply : t -> float array -> float array
(** Map a whole background path to the foreground process. *)

val apply_into : t -> float array -> off:int -> len:int -> unit
(** [apply_into t xs ~off ~len] replaces each [xs.(i)], for [i] in
    [off .. off+len-1], by [apply1 t xs.(i)], bitwise. The CDF runs
    as a block ({!Ss_stats.Special.normal_cdf_into}, or its relaxed
    twin), and an {!of_empirical} quantile is inlined, so neither
    allocates per element; other targets call their quantile per
    element. @raise Invalid_argument if the range lies outside
    [xs]. *)

val moments : t -> float * float
(** [(E h(X), Var h(X))] by 128-point Gauss–Hermite quadrature, the
    variance clamped at 0. Computed once per transform value, on the
    first request from any domain, and read from the memo after that;
    a racing first request computes the same bits. A {!relax}ed twin
    is a new value with its own memo. *)

val attenuation : t -> float
(** Theoretical attenuation factor
    [a = (E h(X) X)^2 / Var h(X)] by 128-point Gauss–Hermite
    quadrature, reusing {!moments}. Always in (0, 1] for
    non-degenerate [h] (Appendix A, Schwarz inequality). *)

val attenuation_measured :
  acf:Acf.t -> n:int -> lags:int list -> Ss_stats.Rng.t -> t -> float
(** The paper's empirical Step-3 measurement: generate [X] with the
    given autocorrelation (Hosking streaming), form [Y = h(X)],
    estimate [r_h(k)/r(k)] at the given (large) lags and average.
    @raise Invalid_argument if [lags] is empty or any lag is out of
    range. *)

val hermite_coefficient : t -> k:int -> float
(** [hermite_coefficient t ~k] is the k-th Hermite coefficient
    [c_k = E (h(X) He_k(X)) / sqrt(k!)] of the (centered, normalized)
    transform; [c_1^2] equals {!attenuation} for a unit-variance
    image, and the expansion [r_h(k) = sum_j c_j^2 r(k)^j] predicts
    the full transformed autocorrelation. @raise Invalid_argument if
    [k < 0 || k > 64]. *)

val predicted_rh : t -> r:float -> terms:int -> float
(** Hermite-expansion prediction of the foreground autocorrelation
    given background correlation [r], truncated at [terms]
    coefficients. Used in tests to validate the attenuation theory
    beyond first order. *)

val response : ?terms:int -> t -> float -> float
(** [response t] is {!predicted_rh} with the Hermite spectrum
    precomputed once (default 24 terms): the map from background
    correlation to foreground correlation. Non-decreasing on
    [\[-1, 1\]] (Lancaster), with [response t 0 = 0]. *)

val invert_response : (float -> float) -> target:float -> float
(** [invert_response rho ~target] solves [rho r = target] for [r] in
    [\[-0.999, 0.99999\]] by bisection, clamping unreachable targets
    to the endpoint values. [rho] must be non-decreasing (as
    {!response} is). *)

val background_acf_for : ?terms:int -> t -> target:Acf.t -> Acf.t
(** The exact version of the paper's Step-4 compensation: the
    background autocorrelation whose transformed foreground realizes
    [target] — pointwise inversion of {!response}, memoized per lag.
    Reduces to the paper's Eq 14 (division by the attenuation factor
    [a]) in the small-correlation limit, but stays valid when
    correlations are near 1, where dividing by [a] would clip and
    destroy positive definiteness. *)
