(** Special mathematical functions.

    Hand-rolled implementations of the classical special functions
    needed by the distribution and estimation code: error functions,
    the log-gamma function and the regularized incomplete gamma
    functions, plus the standard-normal CDF and its inverse. Accuracy
    targets (validated in the test suite): relative error below
    [1e-12] for [log_gamma], absolute error below [1e-13] for
    [erf]/[erfc] on the real line, and below [1e-9] for
    [normal_quantile] after Halley refinement. *)

val erf : float -> float
(** Error function [erf x = 2/sqrt(pi) * int_0^x exp(-t^2) dt]. *)

val erfc : float -> float
(** Complementary error function [1 - erf x], accurate for large [x]
    where [1 - erf x] underflows catastrophically. *)

val log_gamma : float -> float
(** Natural log of the gamma function for [x > 0] (Lanczos
    approximation). @raise Invalid_argument if [x <= 0]. *)

val digamma : float -> float
(** Logarithmic derivative of the gamma function, [psi(x)], for
    [x > 0] (recurrence down-shift + asymptotic series). Accurate to
    ~1e-12. @raise Invalid_argument if [x <= 0]. *)

val trigamma : float -> float
(** [psi'(x)] for [x > 0], same method. Used by the Newton step of
    the gamma maximum-likelihood fit.
    @raise Invalid_argument if [x <= 0]. *)

val gamma_p : float -> float -> float
(** [gamma_p a x] is the regularized lower incomplete gamma function
    [P(a,x) = gamma(a,x)/Gamma(a)] for [a > 0], [x >= 0].
    @raise Invalid_argument on domain violation. *)

val gamma_q : float -> float -> float
(** [gamma_q a x = 1 - gamma_p a x], the regularized upper tail. *)

val normal_cdf : float -> float
(** Standard normal cumulative distribution [Phi(x)]. *)

val normal_cdf_into : float array -> off:int -> len:int -> unit
(** [normal_cdf_into xs ~off ~len] replaces each [xs.(i)], for [i] in
    [off .. off+len-1], by [normal_cdf xs.(i)], bitwise. The erf
    series runs four elements at a time, each lane performing exactly
    the scalar operation sequence; arguments past the series range and
    NaN take the scalar path. Allocates nothing on finite inputs.
    @raise Invalid_argument if the range lies outside [xs]. *)

val normal_cdf_relaxed : float -> float
(** Fast approximate [Phi(x)]: Abramowitz & Stegun 26.2.17 (erf-free,
    one [exp] plus a degree-5 polynomial), absolute error below
    [7.5e-8] everywhere. The FFT kernel tier's hot-path CDF; exact
    paths keep {!normal_cdf} so committed fixtures stay bitwise. *)

val normal_cdf_relaxed_into : float array -> off:int -> len:int -> unit
(** {!normal_cdf_relaxed} over [xs.(off .. off+len-1)], in place and
    without allocation. @raise Invalid_argument if the range lies
    outside [xs]. *)

val normal_pdf : float -> float
(** Standard normal density [phi(x)]. *)

val normal_quantile : float -> float
(** Inverse of [normal_cdf] on (0,1): Acklam's rational approximation
    refined by one Halley step.
    @raise Invalid_argument if the argument is outside (0,1). *)

val log_normal_pdf : mean:float -> var:float -> float -> float
(** [log_normal_pdf ~mean ~var x] is the log-density of the
    N(mean,var) distribution at [x]; used for likelihood-ratio
    accumulation in log space. @raise Invalid_argument if
    [var <= 0]. *)
