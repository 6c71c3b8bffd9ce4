(** Radix-2 fast Fourier transform on split real/imaginary arrays.

    Hand-rolled iterative Cooley–Tukey used by the Davies–Harte
    sampler (circulant embedding of the target autocovariance), the
    periodogram Hurst estimator, and the overlap-save streaming
    convolution kernel ({!Real}).
    Sizes must be powers of two. *)

val is_pow2 : int -> bool
(** [is_pow2 n] is true iff [n] is a positive power of two. *)

val next_pow2 : int -> int
(** Smallest power of two [>= n]. @raise Invalid_argument if
    [n <= 0]. *)

val forward : float array -> float array -> unit
(** [forward re im] replaces [(re, im)] by its in-place DFT
    [X_k = sum_j x_j exp(-2 pi i j k / n)].
    @raise Invalid_argument naming the offending length if the arrays
    differ in length or the length is not a power of two. *)

val inverse : float array -> float array -> unit
(** In-place inverse DFT including the [1/n] normalization, so
    [inverse] after [forward] restores the input.
    @raise Invalid_argument naming the offending length if the arrays
    differ in length or the length is not a power of two. *)

val dft_naive : float array -> float array -> float array * float array
(** O(n^2) reference DFT (any length), used as the test oracle. *)

val real_forward_magnitude2 : float array -> float array
(** [real_forward_magnitude2 x] returns [|X_k|^2] for k = 0..n-1 of a
    real input (zero imaginary part), without mutating [x].
    @raise Invalid_argument if the length is not a power of two. *)

(** Real-input transforms via one half-size complex FFT, with all
    twiddle factors precomputed into an immutable, shareable plan.
    This is the workhorse of the overlap-save streaming synthesis
    kernel, where the same size is transformed millions of times. *)
module Real : sig
  type plan
  (** Immutable twiddle tables for a fixed real length [n]. Safe to
      share across domains; carries no scratch state. *)

  val plan : n:int -> plan
  (** [plan ~n] prepares transforms of real length [n] ([n] a power
      of two [>= 2]). @raise Invalid_argument otherwise. *)

  val length : plan -> int
  (** The real length [n] the plan was built for. *)

  val bins : plan -> int
  (** Number of spectrum bins, [n/2 + 1]. *)

  val forward : plan -> float array -> off:int -> re:float array -> im:float array -> unit
  (** [forward p x ~off ~re ~im] writes the DFT of the [n] real
      samples [x.(off) .. x.(off + n - 1)] into bins [0 .. n/2] of
      [re]/[im] (the remaining Hermitian half is implied; bins [0]
      and [n/2] have zero imaginary part). [re]/[im] double as the
      transform workspace and must hold at least [bins p] entries.
      @raise Invalid_argument on out-of-bounds window or undersized
      spectrum buffers. *)

  val inverse : plan -> re:float array -> im:float array -> float array -> off:int -> unit
  (** [inverse p ~re ~im out ~off] writes the real inverse DFT
      (including the [1/n] normalization) of the Hermitian spectrum
      in bins [0 .. n/2] of [re]/[im] to
      [out.(off) .. out.(off + n - 1)], destroying [re]/[im].
      @raise Invalid_argument on out-of-bounds window or undersized
      spectrum buffers. *)
end
