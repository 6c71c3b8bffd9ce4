(** Slotted shared-buffer statistical multiplexer (the paper's
    Section-1 motivation, run as an engine).

    Per slot, every source contributes one arrival; arrivals are
    admitted into a shared buffer in strict priority-class order
    (class 0 first). The admission room of a slot is
    [buffer + service - q]: work served during the slot frees space
    for that slot's arrivals. When a class does not fit, its sources
    share the remaining room proportionally to their offered work
    (fluid model) and the excess is counted as per-source loss. The
    queue then follows the Lindley recursion
    [q' = max 0 (q + admitted - service)] — with an infinite buffer
    and a single class this reproduces
    {!Ss_queueing.Trace_sim.queue_path} exactly (the equivalence is a
    unit test).

    The engine degrades gracefully instead of crashing: a source that
    raises {!Source.End_of_stream} departs cleanly (zero work from
    that slot on, departure slot in the report); a slot of corrupt
    work (NaN, negative, infinite) is zeroed and counted per source
    rather than poisoning the Lindley recursion; with a {!Police.t}
    attached, misbehaving sources are measured, throttled, demoted or
    evicted per its state machine while the run continues.

    All accounting is online ({!Ss_stats.Online_stats}): mean/max
    queue, delay and queue quantiles (P²), per-class virtual-delay
    quantiles, per-threshold overflow fractions, and per-source
    offered/admitted/lost totals — nothing stores a path, so a run is
    O(sources + order) resident memory regardless of [slots]. *)

type source_report = {
  name : string;
  offered : float;  (** total work presented to the buffer (post-policing) *)
  admitted : float;  (** work accepted into the buffer *)
  lost : float;  (** work dropped (buffer full) *)
  loss_fraction : float;  (** lost / offered (0 when nothing offered) *)
  mean_rate : float;  (** offered / slots *)
  peak_rate : float;  (** largest single-slot arrival *)
  corrupt_slots : int;  (** slots whose work was NaN/negative/infinite (zeroed) *)
  throttled : float;  (** work clamped off by the policer's per-slot cap *)
  discarded : float;  (** work discarded after policer eviction *)
  departed_at : int option;  (** slot of clean {!Source.End_of_stream} departure *)
}

type report = {
  slots : int;
  service : float;  (** per-slot service capacity *)
  buffer : float;  (** shared buffer ([infinity] = unbounded) *)
  offered_utilization : float;  (** aggregate offered rate / service *)
  carried_utilization : float;  (** served work / (service * slots) *)
  loss_fraction : float;  (** aggregate lost / offered *)
  mean_queue : float;
  max_queue : float;
  queue_quantiles : (float * float) list;  (** (p, P² estimate of q) *)
  delay_quantiles : (float * float) list;
      (** (p, P² estimate of virtual delay q/service, in slots) *)
  class_delay_quantiles : (int * (float * float) list) list;
      (** per priority class seen, (p, P² estimate of the virtual
          delay of a class-c arrival: backlog of classes <= c over
          service). Computed on a replay of the admitted work through
          strict-priority class backlogs, kept apart from the Lindley
          state; with a single class it coincides with
          [delay_quantiles] (exactly for an infinite buffer). *)
  overflow : (float * float) list;  (** (threshold b, fraction of slots with q > b) *)
  per_source : source_report array;
  first_passage : int option;
      (** with [stop_above], the slot [tau] at which the run stopped:
          the first whose queue exceeded the level ([slots = tau + 1]);
          [None] when the run went the distance *)
}

type checkpoint = {
  every : int;
      (** minimum slots between snapshots; the engine snapshots at the
          first block-boundary staging point at least [every] slots
          after the previous one, so the effective interval rounds up
          to the staging block *)
  save : slot:int -> (Ss_checkpoint.W.t -> unit) -> unit;
      (** called with the slot being snapshotted and a serializer that
          writes the full engine state (accumulators, estimators,
          per-source generator state, policer state) into the supplied
          writer; the callback owns framing and file I/O — typically
          {!Ss_checkpoint.to_file} with run metadata in [meta] *)
}
(** Periodic crash-safe snapshot hook for {!run}. Snapshots are taken
    only at staging points where every source sits exactly at slot
    [t], so the captured state is consistent and independent of the
    block size, shard count and domain count: a run checkpointed
    under one configuration resumes bitwise under any other (enforced
    by test). *)

val run :
  ?pool:Ss_parallel.Pool.t ->
  ?shards:int ->
  ?buffer:float ->
  ?thresholds:float list ->
  ?quantiles:float list ->
  ?stop_above:float ->
  ?police:Police.t ->
  ?trajectory:(slot:int -> served:float array -> delays:float array -> unit) ->
  ?checkpoint:checkpoint ->
  ?resume:Ss_checkpoint.R.t ->
  service:float ->
  slots:int ->
  Source.t array ->
  report
(** Drive the multiplexer for [slots] slots. [buffer] defaults to
    [infinity] (pure delay system, no loss); [thresholds] (default
    empty) are the queue levels whose exceedance fractions the report
    records; [quantiles] (default [0.5; 0.9; 0.99]) are the P²
    levels.

    {b Engine.} There is one engine. The sources are partitioned into
    [shards] contiguous shards (default: the pool's domain count, or
    1); each shard advances all its sources one whole staged block of
    slots through their block pulls into a source-major stage,
    shards synchronizing only at a coarse per-block barrier
    ({!Ss_parallel.Barrier} — no per-slot or per-source cross-domain
    traffic). The caller then admits the block. A run with neither
    [police] nor [trajectory] admits it where the shards left it: one
    pass over the sources sums each slot's work (and, with several
    classes, each class's), the slots are then admitted in order, and
    a last pass over the sources settles each one's totals. A policed
    or trajectory-capturing run has the shards also restage the block
    slot-major, and consumes each slot's arrivals from one contiguous
    row, where the policer and the trajectory see them source by
    source. Results are {b bit-identical} at any shard count and any
    domain count, and between the two layouts: shards only choose
    which task pulls a source's block, while every floating-point
    reduction runs on the caller in a pinned order — a slot's sums in
    source order, a source's totals in slot order. With [shards]
    larger than the source count, the excess shards are empty
    (clamped).

    {b Stop.} With [stop_above = b] the run ends after the first slot
    [tau] whose queue (after the slot's Lindley step) exceeds [b] —
    the importance sampler's first passage ({!Mux_is}). The report
    then covers slots [0..tau] exactly as a run of [tau + 1] slots
    would ([slots = tau + 1], averages over [tau + 1] slots, no
    departure after [tau]) and records [first_passage = Some tau].
    A stopped run stages 8 slots at a time, at any shard count, so
    a run from slot 0 leaves each live source having produced
    [min slots (8 * (tau / 8 + 1))] slots: at most 7 past [tau],
    drawn from that source's own state only (fewer when a checkpoint
    interval shortens the blocks). Up to [tau] a stopped run is bit-identical to the same
    run without [stop_above]; [b = infinity] never stops.

    With [trajectory], a per-source service/delay trajectory is
    exported: after every slot the sink is called with [served.(i)] —
    the work of source [i] served during that slot under strict
    priority across classes and fluid processor sharing within a
    class (each source's share of its class's service is proportional
    to its share of the class backlog) — and [delays.(i)], the
    virtual delay (in slots) a source-[i] arrival of that slot's
    priority class faces, i.e. the post-service backlog of classes at
    or above it over [service]. Both arrays are reused across slots:
    a sink that retains values must copy them. [Sum_i served.(i)]
    equals the slot's aggregate served work up to rounding, and the
    trajectory refines — never perturbs — the run: a run with a
    trajectory sink is bit-identical to one without
    ({!Ss_abr.Trajectory} is the standard consumer, feeding
    adaptive-bitrate clients a bandwidth process per source).

    With [police], each slot's offered work is first reported to the
    conformance monitor ({!Police.observe}), then the policer's
    sanctions are applied: work above the source's current cap is
    clamped (counted as [throttled]), the priority class is demoted
    by the source's current demotion (saturating at the lowest
    class), and an evicted source's work is discarded. A policer over
    conforming sources never alters traffic, so such a run is
    bit-identical to an unpoliced one. Policer calls happen on the
    sequential admission loop in slot order, composing with [pool].

    With [checkpoint], the engine periodically hands a full-state
    serializer to the callback (see {!type-checkpoint}); with
    [resume], the engine restores that state — over sources, policer
    and trajectory sink rebuilt identically by the caller — and
    continues from the snapshot slot, producing a report bitwise
    equal to the uninterrupted run's. Construction parameters are
    verified against the snapshot ({!Ss_checkpoint.Corrupt} on
    mismatch, with the offending field named). Checkpointing is
    observational: a run with [checkpoint] is bit-identical to one
    without. A stopped run checkpoints like any other; the snapshot
    does not record [stop_above], so resume with the same level.
    @raise Invalid_argument if [slots <= 0], [service] is not finite
    and [> 0], [buffer] is NaN or [< 0] ([infinity] is the unbounded
    default), [shards < 1], no sources, a quantile outside (0,1), a
    threshold is NaN or negative, a source yields a class outside
    [0, 63] at a slot the run admits (naming the lowest such source
    of the first such slot; a stopped run never examines slots past
    its stopping slot), [police] was created for a different number
    of sources, [stop_above] is NaN or [< 0], a checkpoint interval
    is < 1, or a source does not support checkpointing
    ({!Source.supports_checkpoint}).
    @raise Ss_checkpoint.Corrupt when [resume] does not match the
    reconstructed run or is structurally invalid. *)

val equal_report : report -> report -> bool
(** Bitwise report equality: every float field (including nested
    quantile/overflow/per-source entries) compared by IEEE-754 bit
    pattern ([nan] equals [nan], [0.] differs from [-0.]), integer
    and name fields exactly. The equality the shard/domain-count
    identity tests, the test oracle and the CI smoke gate assert. *)

val pp_report : Format.formatter -> report -> unit
(** Multi-line text report: link summary, queue/delay statistics
    (per-class when more than one class appeared), overflow curve,
    per-source accounting table, and an incident table for sources
    with corrupt slots, throttling, discards or departures. *)
