(** Fleets of streaming clients over one multiplexer trajectory, with
    distributional QoE reporting.

    Client [j] streams from source [j mod sources] of the trajectory
    and joins at a random slot drawn from its own
    {!Ss_stats.Rng.split} substream via {!Ss_parallel.Fanout.map} —
    so a fleet run is bit-identical sequentially and at any domain
    count, and thousands of clients amortize one mux run. Each
    source's row is validated once, into one {!Client.link} that all
    of that source's clients share. *)

type summary = {
  mean : float;
  std : float;
  min : float;
  max : float;
  q10 : float;
  q50 : float;
  q90 : float;
}

type report = {
  clients : int;
  policy : string;
  chunks : int;
  qoe : summary;
  rebuffer_ratio : summary;
  bitrate_mbps : summary;
  startup_s : summary;
  rebuffer_s_total : float;  (** summed stall seconds across the fleet *)
  zero_rebuffer_fraction : float;  (** clients with no stall at all *)
  mean_level : float;
  mean_switches : float;
}

val summarize : float array -> summary
(** Moments plus exact type-7 sample quantiles.
    @raise Invalid_argument on an empty array. *)

type checkpoint = {
  every : int;  (** clients between snapshots *)
  save : clients_done:int -> (Ss_checkpoint.W.t -> unit) -> unit;
      (** handed the number of finished clients and a serializer for
          their results prefix; the callback owns framing and I/O *)
}
(** Periodic snapshot hook for {!run}. Granularity is one whole
    client: each client is self-contained, so the snapshot is the
    completed results in client order plus the count. *)

val run :
  ?pool:Ss_parallel.Pool.t ->
  rng:Ss_stats.Rng.t ->
  clients:int ->
  policy:Policy.t ->
  ladder:Ladder.t ->
  trajectory:Trajectory.t ->
  ?config:Client.config ->
  ?checkpoint:checkpoint ->
  ?resume:Ss_checkpoint.R.t ->
  unit ->
  report * Client.result array
(** Run [clients] independent clients against the trajectory and
    summarize. Advances [rng] by [clients] splits on the caller. The
    per-source links are built on the caller before any client runs
    (and before [resume] is read), and the trajectory must not be
    written until [run] returns.

    With [checkpoint] or [resume], the fleet runs on a sequential
    lane over the same {!Ss_stats.Rng.split_n} substreams the pooled
    fan-out would use, so results stay bit-identical to an
    uncheckpointed (or pooled) run; a resumed fleet — over the same
    [rng] seed, trajectory and policy — replays only the RNG splits,
    skips the restored finished clients, and returns a report bitwise
    equal to the uninterrupted one's (enforced by test).
    @raise Invalid_argument if [clients <= 0], the trajectory is not
    fully filled, a checkpoint interval is < 1, or a source's row is
    refused by {!Client.link} (the message names the source).
    @raise Ss_checkpoint.Corrupt when [resume] disagrees with the
    reconstructed fleet (policy, client count) or is malformed. *)

val pp_report : Format.formatter -> report -> unit
