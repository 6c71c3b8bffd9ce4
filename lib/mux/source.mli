(** Pull-based streaming VBR traffic sources.

    A source yields one arrival (work, e.g. bytes) per multiplexer
    slot, on demand, together with a strict-priority class for that
    slot (0 = highest; the composite MPEG source can put I frames in
    a higher class than P/B frames). Sources built from fitted models
    ({!of_model}, {!of_mpeg}) stream in O(order) resident memory: the
    background Gaussian process runs Hosking's Durbin–Levinson
    recursion exactly up to lag [order], then continues with the
    frozen AR([order]) filter over a sliding window — the streaming
    form of {!Ss_fractal.Hosking.generate_truncated}, so dependence
    is exact up to lag [order] and AR-approximated beyond, with no
    full-trace materialization. This is what lets [vbrsim mux
    --sources N] multiplex many long heterogeneous sources without
    O(N * slots) memory.

    Every source also exposes a {e block} pull ({!next_block}) that
    fills preallocated buffers many slots at a time. Model-backed
    sources implement it natively (cache-blocked AR kernel, or an
    FFT-exact materialized path); for hand-rolled pull functions a
    default adapter loops the scalar pull. Scalar and block pulls
    drain the same underlying stream, so they can be interleaved
    freely and produce bit-identical slot sequences. *)

exception End_of_stream
(** Raised by a pull function when the source has no further slots —
    a *clean departure*, not an error: {!Mux.run} catches it, retires
    the source and continues the run with the remaining sources
    (recording the departure slot in the report). Finite sources
    ({!of_array} with [cycle:false], model sources with a [horizon])
    raise it on exhaustion. *)

type ckpt = { ck_save : Ss_checkpoint.W.t -> unit; ck_restore : Ss_checkpoint.R.t -> unit }
(** Checkpoint capability of a source: [ck_save] serializes the pull
    state, [ck_restore] overwrites it in place such that the stream
    continues bit-for-bit from the saved slot. *)

type lane
(** The state an exact-Hosking {!of_model} source shares with its
    block pull, so that {!next_blocks} can advance it as one lane of
    a same-model group. Opaque. *)

type t = {
  name : string;
  mean : float;  (** nominal per-slot mean arrival (model bookkeeping) *)
  sigma2 : float;  (** nominal per-slot marginal variance *)
  hurst : float;  (** Hurst parameter of the underlying model *)
  pull : unit -> float * int;  (** next slot's (work, priority class) *)
  pull_block : float array -> int array -> int -> int -> int;
      (** [pull_block wbuf cbuf off len] fills
          [wbuf.(off .. off+len-1)] with the next [len] slots' work
          and [cbuf] likewise with their classes, returning the
          number of slots actually filled. A short count means the
          source departed cleanly after that many slots (the block
          analogue of {!End_of_stream}; subsequent calls return 0).
          Must raise [Invalid_argument] when the range falls outside
          either buffer. *)
  ckpt : ckpt option;
      (** Checkpoint support; [None] for hand-rolled pulls that did
          not supply one (such sources refuse {!save}). All built-in
          constructors except the importance-sampling variants
          provide it. *)
  lane : lane option;
      (** [Some] only on exact-kernel, [`Hosking]-backed {!of_model}
          sources, [None] from {!make}. {!next_blocks} uses it only
          while [pull_block] is still the one {!of_model} built, so a
          copy [{ s with pull_block = f }] always runs [f]. *)
}

type backend = [ `Hosking | `Davies_harte ]
(** Background-synthesis backend for model sources. [`Hosking]
    (default) streams the truncated Durbin–Levinson recursion —
    open-ended, O(order) memory, exact to lag [order]. [`Davies_harte]
    materializes the whole fixed-[horizon] background path exactly
    (every lag, not just the first [order]) in O(horizon log horizon)
    via circulant embedding; it requires [~horizon] and the source
    departs cleanly when the horizon is exhausted. A background whose
    embedding is not nonnegative definite at that horizon is refused
    unless [~allow_clipping:true], which clips the negative circulant
    eigenvalues and makes the path only statistically faithful (see
    {!Ss_fractal.Davies_harte.plan}). {!Mux_is.make_config} refuses
    [`Davies_harte]: a materialized path has no per-step innovations
    for the streaming likelihood. *)

type kernel = [ `Exact | `Fft ]
(** Streaming-synthesis kernel for model sources. [`Exact] (default)
    keeps every committed fixture bitwise: single-accumulator AR dot
    kernel, erf-backed [normal_cdf]. [`Fft] runs the overlap-save FFT
    block kernel ({!Ss_fractal.Hosking.Fft_plan}): the frozen AR
    filter's contribution beyond the first partition of lags is
    computed spectrally per block of
    {!Ss_fractal.Hosking.Fft_plan.partition} slots, breaking the
    O(order)-per-slot ceiling — amortized
    O(order/partition + log partition + partition) per slot. Its
    sequential lags run the reassociated
    {!Ss_fractal.Hosking.ar_dot_relaxed} and its marginal transform
    the erf-free {!Ss_fractal.Transform.relax}, so it is statistically
    equivalent to (and gated against) the exact tier but
    seed-incompatible with it. Only the streaming [`Hosking] backend
    is affected; a [`Davies_harte] background ignores the kernel (the
    relaxed transform still applies). Importance sampling
    ({!Mux_is}) always runs the exact kernel: its likelihoods certify
    the exact per-innovation recursion. *)

val make :
  ?pull_block:(float array -> int array -> int -> int -> int) ->
  ?ckpt:ckpt ->
  name:string ->
  mean:float ->
  sigma2:float ->
  hurst:float ->
  (unit -> float * int) ->
  t
(** Wrap an arbitrary pull function. When [pull_block] is omitted, a
    default block implementation loops the scalar pull (bit-identical
    by construction); when supplied, the caller must guarantee the
    two pulls drain one shared stream. [ckpt] (default [None])
    declares checkpoint support for the wrapped state.
    @raise Invalid_argument if [mean < 0], [sigma2 < 0] or [hurst]
    outside (0,1). *)

val supports_checkpoint : t -> bool
(** Whether {!save}/{!restore} are available on this source. *)

val save : t -> Ss_checkpoint.W.t -> unit
(** Serialize the source's pull state (name-stamped). O(order) for
    streaming model sources; O(1) for materializing backends, whose
    path is regenerated from the recorded initial generator state on
    the first post-restore pull.
    @raise Invalid_argument if the source has no {!ckpt}. *)

val restore : t -> Ss_checkpoint.R.t -> unit
(** Overwrite the pull state in place from a {!save}d snapshot taken
    on an identically-constructed source; the stream continues
    bit-for-bit.
    @raise Ss_checkpoint.Corrupt on name or structure mismatch.
    @raise Invalid_argument if the source has no {!ckpt}. *)

val next : t -> float * int
(** Pull the next slot's arrival. *)

val pull_of_block : (float array -> int array -> int -> int -> int) -> unit -> float * int
(** [pull_of_block pull_block] is the scalar pull that calls
    [pull_block] on a one-slot block, raising {!End_of_stream} when it
    comes up short: the scalar pull of every built-in source and of
    {!Fault.wrap}, so scalar and block pulls drain one stream and are
    bit-identical by construction. *)

val next_block : t -> float array -> int array -> off:int -> len:int -> int
(** [next_block t wbuf cbuf ~off ~len] is
    [t.pull_block wbuf cbuf off len]. *)

val next_blocks :
  t array ->
  lo:int ->
  hi:int ->
  skip:bool array ->
  float array ->
  int array ->
  stride:int ->
  len:int ->
  filled:int array ->
  unit
(** [next_blocks sources ~lo ~hi ~skip wbuf cbuf ~stride ~len ~filled]
    is, for each [i] in [lo .. hi-1] in order with [not skip.(i)],
    [filled.(i) <- next_block sources.(i) wbuf cbuf ~off:(i * stride)
    ~len] — bitwise, including every source's state and the order of
    draws from shared generators. Skipped entries of [filled] are left
    as they are.

    On blocks of 32 slots or more, maximal runs of consecutive
    sources that carry a {!lane}, whose [pull_block] is still their
    own, whose horizon covers [len] slots and whose generators are
    {!Ss_fractal.Hosking.Block.groupable}
    (same table, order and position) advance together through
    {!Ss_fractal.Hosking.Block.fill_many}, up to
    {!Ss_fractal.Hosking.Block.group} at a time, each member drawing
    its innovations in source order; every other source runs its own
    [pull_block]. The ranges [i * stride .. i * stride + len - 1] must
    lie inside both buffers and not overlap. Allocates nothing. *)

val of_array : ?name:string -> ?hurst:float -> ?cycle:bool -> float array -> t
(** Replay a materialized arrival array (e.g. a loaded trace) slot by
    slot, class 0. [mean]/[sigma2] are the array's sample moments;
    [hurst] defaults to 0.5 (no a-priori LRD claim). With
    [cycle:false] (default) pulling past the end raises
    {!End_of_stream} (a clean departure under {!Mux.run}); with
    [cycle:true] the array repeats. The block path blits array
    segments directly.
    @raise Invalid_argument on an empty array. *)

val of_model :
  ?name:string ->
  ?order:int ->
  ?backend:backend ->
  ?kernel:kernel ->
  ?allow_clipping:bool ->
  ?horizon:int ->
  Ss_core.Model.t ->
  Ss_stats.Rng.t ->
  t
(** Stream the unified model's foreground process (marginal transform
    of the streaming background), class 0. [order] (default 512) is
    the exact-recursion depth / frozen AR order; resident memory and
    per-slot cost are O(order). The Hosking table is cached per
    (background ACF, order), so N same-model sources share one table.
    [mean] is the model's foreground mean; [sigma2] the transform's
    marginal variance by Gauss–Hermite quadrature. The foreground
    value is clamped at zero (histogram-inverse transforms can dip
    slightly negative in the far tail; {!Mux.run} rejects negative
    work).

    With [backend:`Davies_harte] the background is synthesized over
    the whole (mandatory) [horizon] by circulant embedding, clipped
    only under [allow_clipping] (default false) — see {!backend}.
    With a [horizon] under the default [`Hosking] backend the source
    simply departs after that many slots. [kernel] (default [`Exact])
    selects the streaming kernel — see {!kernel}.
    @raise Invalid_argument if [order < 1] or [order > 19_999], if
    [horizon < 1], if [`Davies_harte] is requested without [horizon],
    or if its embedding is refused (see {!plan_for}). *)

val of_model_twisted :
  ?name:string ->
  ?order:int ->
  shift:(int -> float) ->
  ?probe:(k:int -> innovation:float -> unit) ->
  Ss_core.Model.t ->
  Ss_stats.Rng.t ->
  t
(** Importance-sampling variant of {!of_model}: the background
    Gaussian process is generated under the mean-shifted law
    [X'_k = X_k + shift k], on the same exact
    {!Ss_fractal.Hosking.Block} kernel. Each block pull fills the
    untwisted background (the history kept for the conditional means
    stores the untwisted values, and the innovations are those of the
    untwisted recursion — exactly the sampling scheme of
    [Ss_fastsim.Is_estimator.replicate]), calls [probe] once per slot
    in slot order with the global slot index [k] and its innovation
    [Hosking.Table.innovation_std table (min k order) *. g_k], then
    adds [shift k] and applies {!of_model}'s marginal transform and
    zero clamp. A [Ss_fastsim.Likelihood] streaming accumulator fed
    from [probe] therefore reconstructs the exact log likelihood
    ratio of the path. With [shift = fun _ -> 0.0] the emitted
    arrivals are bit-identical to {!of_model} on the same generator
    state. Always Hosking-backed and exact-kernel: the likelihood
    accumulator needs the per-step innovations, which the
    materializing Davies–Harte backend does not produce. Carries no
    {!lane} (never advanced as part of a group) and no checkpoint
    support: the likelihood state lives with the caller. *)

val of_model_twisted_reusable :
  ?name:string ->
  ?order:int ->
  shift:(int -> float) ->
  ?probe:(k:int -> innovation:float -> unit) ->
  Ss_core.Model.t ->
  Ss_stats.Rng.t ->
  t * (Ss_stats.Rng.t -> unit)
(** {!of_model_twisted}, together with a rewind: [rewind sub] copies
    generator [sub] into the source's generator (the one passed in)
    and puts the source back at slot 0 with
    {!Ss_fractal.Hosking.Block.rewind}, so its next pulls are those of
    a fresh [of_model_twisted ... (Rng.copy sub)], without allocating
    a new O(order) ring. {!Mux_is} reuses one such source per
    importance-sampling replication. *)

val of_mpeg :
  ?name:string ->
  ?order:int ->
  ?backend:backend ->
  ?kernel:kernel ->
  ?allow_clipping:bool ->
  ?horizon:int ->
  ?phase:int ->
  ?priority:bool ->
  Ss_core.Mpeg.t ->
  Ss_stats.Rng.t ->
  t
(** Stream the Section-3.3 composite I/B/P process: slot [t] applies
    the transform of the frame kind at GOP position [phase + t]
    (clamped at zero, as {!Ss_core.Mpeg.arrival_fn} does). [phase]
    (default 0) staggers GOP alignment across sources. With
    [priority:true], I frames are class 0, P class 1, B class 2;
    otherwise every slot is class 0. [mean]/[sigma2] are the
    GOP-pattern-averaged per-slot moments. [backend]/[kernel]/
    [allow_clipping]/[horizon] govern the background synthesis
    exactly as in {!of_model} (under [`Fft] the three per-kind
    transforms are relaxed once up front, not per slot).
    @raise Invalid_argument if [phase < 0], [order] out of range,
    [horizon < 1], [`Davies_harte] without [horizon], or a refused
    embedding. *)

val background_stream :
  acf:Ss_fractal.Acf.t -> order:int -> Ss_stats.Rng.t -> unit -> float
(** The underlying streaming standard-normal background generator
    (exposed for tests and custom marginals): a one-slot view of the
    exact {!Ss_fractal.Hosking.Block} kernel, so successive calls
    yield the truncated-Hosking path, bit-identical to
    [Ss_fractal.Hosking.generate_truncated ~acf ~max_order:order]
    driven by the same generator state.
    @raise Invalid_argument if [order < 1] or [order > 19_999]. *)

val table_for : acf:Ss_fractal.Acf.t -> order:int -> Ss_fractal.Hosking.Table.t
(** The cached Hosking table backing model sources at this (ACF,
    order) pair — the table a streaming likelihood accumulator must
    be planned against. Safe to call from any domain: the
    Durbin–Levinson fit runs outside the cache lock (distinct keys
    fit concurrently on a cold start — shards warming different
    models never serialize), and same-key racers wait for the first
    fit instead of duplicating it, so concurrent lookups of one key
    return one shared, physically equal table.
    @raise Invalid_argument if [order < 1] or [order > 19_999]. *)

val plan_for :
  ?allow_clipping:bool -> acf:Ss_fractal.Acf.t -> n:int -> unit -> Ss_fractal.Davies_harte.plan
(** The cached Davies–Harte plan backing [`Davies_harte] model
    sources at this (ACF, horizon) pair. One cache entry serves both
    kinds of request: it holds the clipped plan, and every request
    without [allow_clipping] (default false) re-applies
    {!Ss_fractal.Davies_harte.check_clipping}, so a strict request
    refuses even after a permissive one cached the plan.
    @raise Invalid_argument if [n < 1], the spectrum is degenerate,
    or — without [allow_clipping] — the ACF is not embeddable at this
    length. *)

val fft_plan_for : acf:Ss_fractal.Acf.t -> order:int -> Ss_fractal.Hosking.Fft_plan.t
(** The cached overlap-save convolution plan backing [`Fft]-kernel
    model sources at this (ACF, order) pair — same cache discipline
    as {!table_for} (the build itself goes through {!table_for}, so a
    cold plan lookup may also populate the table cache). Plans are
    immutable and shared freely across sources and domains.
    @raise Invalid_argument if [order < 1] or [order > 19_999]. *)

val set_table_cache_capacity : int -> unit
(** Bound on the number of Hosking tables retained by the process
    (default 16, least-recently-used eviction). Tables are
    deterministic functions of their (ACF, order) key, so eviction
    only costs a rebuild: a re-fit after eviction is bit-identical.
    Lowering the capacity evicts immediately.
    @raise Invalid_argument if the capacity is [< 1]. *)

val table_cache_length : unit -> int
(** Number of Hosking tables currently cached (for tests and
    memory-budget diagnostics). *)

type cache_stats = { hits : int; misses : int; evictions : int }
(** Cumulative per-cache counters: [hits] lookups served from the
    cache (including waiters who picked up a concurrent builder's
    entry), [misses] lookups that had to build, [evictions] entries
    dropped by LRU pressure (capacity shrinks included). *)

val cache_stats : unit -> (string * cache_stats) list
(** Counters for every process-wide plan/table cache, keyed
    ["hosking-table"], ["davies-harte-plan"], ["hosking-fft-plan"]. Counters are monotone for the process
    lifetime — diff two snapshots to measure a phase (the throughput
    bench prints exactly that). *)
