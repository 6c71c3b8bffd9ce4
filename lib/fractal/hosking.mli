(** Hosking's exact method for sampling a stationary zero-mean,
    unit-variance Gaussian process with a prescribed autocorrelation
    (paper Section 2, Eqs 1–6).

    The Durbin–Levinson recursion produces, for every step [k], the
    partial linear regression coefficients [phi_{k,j}] and the
    conditional variance [v_k] of [X_k] given the past. These depend
    only on the autocorrelation, not on the sample path, so they can
    be computed once into a {!Table} and reused across the thousands
    of replications an importance-sampling study needs. The table is
    also what the likelihood-ratio computation of Appendix B
    consumes: it exposes conditional means and variances directly.

    Complexity: table construction O(n^2) time / O(n^2/2) memory;
    each generated path O(n^2) multiply–adds. For long traces where
    no conditional structure is needed, prefer {!Davies_harte}. *)

module Table : sig
  type t

  val make : acf:Acf.t -> n:int -> t
  (** Precompute coefficients for paths of length [n], sequentially
      ([make_pooled] without a pool).
      @raise Invalid_argument if [n <= 0 || n > 20_000] (the table is
      quadratic in memory) or if the recursion detects an invalid
      (non positive-definite) autocorrelation. *)

  val make_pooled :
    ?pool:Ss_parallel.Pool.t -> ?par_cutoff:int -> acf:Acf.t -> n:int -> unit -> t
  (** Like {!make}, but with [pool] the O(k) inner products of each
      Durbin–Levinson step run across domains once [k >= par_cutoff]
      (default 4096; the k-recursion itself stays sequential).
      Partial sums use fixed chunk boundaries combined in order, so
      the table is bit-identical for every pool size; the
      [pool = None] path keeps the historical strictly-sequential
      summation, which may differ from the pooled one in the last
      ulp. @raise Invalid_argument additionally if
      [par_cutoff < 2]. *)

  val length : t -> int
  (** Maximum path length. *)

  val cond_var : t -> int -> float
  (** [cond_var t k] is [v_k = Var(X_k | X_0..X_{k-1})]; [v_0 = 1].
      @raise Invalid_argument if [k] outside [0, n-1]. *)

  val cond_mean : t -> float array -> int -> float
  (** [cond_mean t xs k] is
      [E(X_k | X_{k-1} = xs.(k-1), ..., X_0 = xs.(0)) =
       sum_j phi_{k,j} xs.(k-j)]. Only the first [k] entries of [xs]
      are read. @raise Invalid_argument if [k] outside [0, n-1]. *)

  val innovation_std : t -> int -> float
  (** [sqrt (cond_var t k)], cached. *)

  val row_sum : t -> int -> float
  (** [row_sum t k = sum_j phi_{k,j}] — the response of the
      conditional mean to a constant unit shift of the whole past.
      Importance sampling uses it: shifting the background mean by
      [m*] shifts the conditional mean at step [k] by
      [m* * row_sum t k]. [row_sum t 0 = 0].
      @raise Invalid_argument if [k] outside [0, n-1]. *)
end

(** Precomputed, immutable overlap-save convolution plan for the
    frozen AR([order]) filter: the coefficient vector is uniformly
    partitioned into chunks of {!val-partition} lags and each
    partition beyond the first is stored as its length-[2*partition]
    real-FFT spectrum. One plan is a pure function of
    [(table, order)], holds no scratch state, and is shared freely
    across generators and domains (the Source layer caches it the way
    it caches tables). *)
module Fft_plan : sig
  type t

  val partition : int
  (** Fixed partition size (lags per partition, also the production
      block length of the FFT kernel). A constant so a stream's value
      sequence for a given seed never depends on tuning knobs. *)

  val make : table:Table.t -> order:int -> t
  (** @raise Invalid_argument if [order] outside
      [1, Table.length table - 1]. *)

  val order : t -> int
  val partition_size : t -> int
end

module Block : sig
  type t
  (** Streaming truncated-Hosking generator state: exact
      Durbin–Levinson recursion up to lag [order], frozen AR([order])
      beyond, over a double-buffered ring so the sliding window is
      always contiguous (no per-slot shifting) and the conditional
      mean runs through a 4-way-unrolled single-accumulator dot
      kernel. Successive {!fill}s produce exactly the stream of
      {!generate_truncated} / [Source.background_stream] on the same
      generator state, bit for bit, at any block-size split. *)

  val create : ?fft_plan:Fft_plan.t -> table:Table.t -> order:int -> unit -> t
  (** Fresh state over a shared coefficient table. O(order) resident
      memory.

      With [fft_plan] the generator runs the overlap-save FFT kernel
      instead: the stream advances in blocks of [Fft_plan.partition]
      slots, the contribution of every lag beyond the partition size
      to all in-block positions is computed by one inverse real FFT
      over the accumulated partition spectra, and only the first
      [min(partition, order)] lags stay sequential, through
      {!ar_dot_relaxed} — amortized
      O(order/partition + log partition + partition) per slot instead
      of O(order). Statistically equivalent to the exact stream (same
      innovation sequence per produced sample; the kernel merely
      reassociates the conditional-mean sums), but seed-incompatible
      with it. At [order <= partition] no lag reaches the FFT and the
      stream is the exact recursion with every dot product
      reassociated by {!ar_dot_relaxed}. The RNG consumption pattern
      is blocked, so the stream for a given seed is still independent
      of how callers batch their pulls.
      @raise Invalid_argument if [order] outside
      [1, Table.length table - 1] (the table must also hold the
      frozen row/std at index [order]) or if the plan's order
      differs. *)

  val generated : t -> int
  (** Number of values produced so far. *)

  val rewind : t -> unit
  (** Put an exact-kernel generator back at slot 0 in place, without
      allocating: driven by a generator in the same state, its next
      {!fill}s produce a fresh generator's stream, and its state is a
      fresh generator's. Importance sampling reuses one generator per
      source across replications this way.
      @raise Invalid_argument on the FFT kernel. *)

  val fill : t -> Ss_stats.Rng.t -> float array -> off:int -> len:int -> unit
  (** Append the next [len] values of the stream into
      [buf.(off .. off+len-1)]. Zero per-slot allocation; draws
      exactly one Gaussian per value.
      @raise Invalid_argument if the range lies outside the
      buffer. *)

  val deviates : t -> float array
  (** The standard-normal deviates the last {!fill} or {!fill_many}
      of an exact-kernel generator drew, one per value, in entries
      [0 .. len-1]. Entry [i] belongs to stream value [k = k0 + i],
      [k0] being {!generated} before the call, whose innovation is
      [Table.innovation_std table (min k order) *. g.(i)]. The array
      is the generator's own scratch, overwritten by its next fill:
      read it, do not keep it.
      @raise Invalid_argument on the FFT kernel. *)

  val group : int
  (** Most generators {!fill_many} advances at once (8). *)

  val groupable : t -> t -> bool
  (** [groupable a b] holds when [a] and [b] are distinct exact
      (non-FFT) generators over the physically same table, with the
      same order and the same number of values produced — the
      condition for advancing them together with {!fill_many}. *)

  val fill_many :
    t array -> Ss_stats.Rng.t array -> int -> float array -> int array -> len:int -> unit
  (** [fill_many ts rngs n buf offs ~len] is, for [l = 0 .. n-1] in
      that order, [fill ts.(l) rngs.(l) buf ~off:offs.(l) ~len],
      bitwise — the same values, the same draws from each generator
      in lane order, the same state afterwards — computed with one
      accumulator per lane so the [n] AR recursions run side by side.
      Rings are gathered into and scattered back from a per-domain
      scratch of [2 * order * group] floats. Zero per-slot
      allocation. The output ranges must not overlap.
      @raise Invalid_argument if [n] is outside [1, group], an array
      holds fewer than [n] entries, a range lies outside [buf], or
      two of the first [n] generators are not {!groupable}. *)

  val save : t -> Ss_checkpoint.W.t -> unit
  val restore : t -> Ss_checkpoint.R.t -> unit
  (** Checkpoint codec: O(order) state (ring or overlap-save window +
      position counters), never the coefficient table or the
      partition spectra — those are re-derived from the descriptor on
      resume (the FFT kernel's pair-spectrum delay line is a pure
      function of the saved window, so snapshots stay
      layout-independent). {!restore} requires a generator created
      with the same [order] and kernel and overwrites it in place.
      @raise Ss_checkpoint.Corrupt on order/kernel mismatch or
      malformed data. *)
end

val ar_dot : float array -> float array -> top:int -> k:int -> float
(** [ar_dot row win ~top ~k = sum_{j=1..k} row.(j-1) *. win.(top-j)],
    4-way unrolled behind a single accumulator so the summation order
    is exactly the naive left-to-right loop's — the bit-identity
    contract of every default code path. No bounds checks; the caller
    guarantees [row] holds [k] coefficients and [win.(top-k..top-1)]
    is readable. *)

val ar_dot_relaxed : float array -> float array -> top:int -> k:int -> float
(** Fast-math variant of {!ar_dot}: four independent accumulators
    (reassociated sum, ~2x throughput on long rows), combined as
    [(s0+s2)+(s1+s3)] plus a left-to-right remainder. Differs from
    {!ar_dot} in the last ulps; only the FFT kernel's sequential lags
    use it. *)

val generate : Table.t -> Ss_stats.Rng.t -> float array
(** Sample one path of the table's full length. *)

val generate_into : Table.t -> Ss_stats.Rng.t -> float array -> unit
(** Overwrite an existing buffer with a fresh path (avoids per-path
    allocation in tight simulation loops). The buffer may be shorter
    than the table; it is filled completely.
    @raise Invalid_argument if the buffer is longer than the
    table. *)

val generate_stream : acf:Acf.t -> n:int -> Ss_stats.Rng.t -> float array
(** One-shot sampling without a precomputed table: runs the
    Durbin–Levinson recursion on the fly in O(n) memory and O(n^2)
    time, reusing one pair of coefficient buffers across steps (no
    per-step allocation). Produces the same distribution as
    {!generate}; use for a single long path when the quadratic table
    would not fit. @raise Invalid_argument if [n <= 0]. *)

val generate_truncated : acf:Acf.t -> n:int -> max_order:int -> Ss_stats.Rng.t -> float array
(** Approximate fast path: exact Hosking up to lag [max_order], then
    the order-[max_order] AR filter is frozen and applied in
    O(n * max_order). Exact for the first [max_order] samples, an
    AR(max_order) approximation afterwards; the ablation bench
    [abl-trunc] quantifies the ACF error. @raise Invalid_argument if
    [n <= 0 || max_order < 1]. *)
