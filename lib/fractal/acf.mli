(** Autocorrelation models for stationary unit-variance Gaussian
    processes.

    A model is a function [r : int -> float] with [r 0 = 1]; Hosking
    and Davies–Harte generation consume these directly. Includes the
    two classical self-similar families (FGN, FARIMA(0,d,0)) and the
    paper's composite "knee" model (Eqs 10–13): exponential
    short-range dependence below the knee lag, power-law long-range
    dependence above it. *)

type t = {
  name : string;
  r : int -> float;  (** lag-k autocorrelation; [r 0 = 1] *)
}

val white_noise : t
(** [r k = if k = 0 then 1 else 0]. *)

val exponential : lambda:float -> t
(** [r k = exp (-lambda k)] — a pure SRD model (AR(1)-like).
    @raise Invalid_argument if [lambda <= 0]. *)

val power_law : l:float -> beta:float -> t
(** [r k = l * k^(-beta)] for k >= 1 (clamped to 1), pure LRD.
    @raise Invalid_argument if [l <= 0 || beta <= 0 || beta >= 1]. *)

val fgn : h:float -> t
(** Exact fractional Gaussian noise autocorrelation
    [r k = (|k+1|^{2H} - 2|k|^{2H} + |k-1|^{2H}) / 2].
    @raise Invalid_argument if [h] outside (0,1). *)

val farima : d:float -> t
(** FARIMA(0,d,0) autocorrelation, computed by the recursion
    [r k = r (k-1) * (k - 1 + d) / (k - d)] (memoized).
    [d = H - 1/2]. @raise Invalid_argument if [d] outside
    (-0.5, 0.5). *)

val composite : knee:int -> lambda:float -> l:float -> beta:float -> t
(** The paper's Eq (10) with one exponential:
    [r k = exp(-lambda k)] for [1 <= k < knee] and
    [r k = l * k^(-beta)] for [k >= knee]. Values are clamped to
    [(-1, 1\]] so the model is always a valid correlation candidate.
    @raise Invalid_argument if [knee < 1], [lambda <= 0], [l <= 0] or
    [beta] outside (0,1). *)

val lag_rescale : t -> period:int -> t
(** [lag_rescale base ~period] is the paper's Eq (15):
    [r k = base.r (k / period)] evaluated with linear interpolation
    at fractional lags — used to stretch the I-frame autocorrelation
    to the full GOP-rate timeline. @raise Invalid_argument if
    [period < 1]. *)

val of_fun : name:string -> (int -> float) -> t
(** Wrap a lag function (forced to 1 at lag 0, negative lags
    rejected). *)

val memoize : t -> t
(** Cache computed lags in a growable table — worthwhile when [r] is
    expensive (e.g. the Hermite-inverted background of
    {!Transform.background_acf_for}) and the generators will probe
    hundreds of thousands of lags. *)

val hurst : t -> float option
(** Nominal Hurst parameter when the family has one (FGN, FARIMA,
    power-law and composite via [beta = 2 - 2H]). *)

val to_array : t -> n:int -> float array
(** First [n] values [r 0 .. r (n-1)]. @raise Invalid_argument if
    [n <= 0]. *)

val fingerprint : t -> max_lag:int -> string
(** A structural cache key for tables and plans built from this
    autocorrelation: a digest of [r] at 64 lags spread evenly over
    [0, max_lag]. Unlike [name], it separates distinct models that
    share a display name, such as the compensated backgrounds of two
    models with the same target dependence and different marginals. *)
