(** Importance-sampling estimation of shared-buffer overflow in the
    multiplexer — the paper's Section-5 fast-simulation method lifted
    from the single queue to [N] superposed model sources.

    Each replication drives [N] streaming model sources
    ({!Source.of_model_twisted}, on the same exact block kernel as
    plain synthesis) whose background Gaussian processes are generated
    under a mean-shifted law: one {!Twist.t}
    profile shared across sources, scaled per-source (all scales 1 by
    default — the aggregate drift is then [N] times the per-source
    shift's foreground effect). Histories store untwisted values, so
    each source's exact log likelihood ratio is accumulated by a
    streaming {!Ss_fastsim.Likelihood} accumulator fed from the
    source's innovation probe — the O(order)-memory truncated-Hosking
    generalization, matching the recursion the sources themselves
    run. Because the sources are independent, the joint ratio is the
    product (log: sum) of per-source ratios.

    The overflow event is the first passage of the {!Mux.run} shared
    queue (pure-delay, Lindley recursion from empty) above the
    [buffer] threshold within [slots] slots. A replication stops at
    first passage ([Mux.run ~stop_above:buffer]); the likelihood ratio
    evaluated at the stopping time keeps the estimator
    [1/N sum I_n L_n] unbiased (optional stopping). Each source keeps
    its running log ratio per slot, so the slots the engine stages
    past the stop (at most 7 per source, drawn from that source's own
    substream) never enter the weight. Weights are combined in the
    log domain ({!Ss_queueing.Mc.estimate_of_log_samples}) so
    deep-buffer runs never underflow the figure of merit.

    With [twist = 0] every weight is 1 and the estimator is exactly
    plain Monte Carlo on the same event. *)

type config = {
  model : Ss_core.Model.t;  (** unified model, one per source *)
  sources : int;  (** N, > 0 *)
  order : int;  (** truncated-Hosking exact depth / frozen AR order *)
  service : float;  (** aggregate service per slot, finite and > 0 *)
  buffer : float;  (** overflow threshold on the shared queue, finite and >= 0 *)
  slots : int;  (** horizon (slots per replication), > 0 *)
  twist : float;  (** per-source background mean shift, finite (0 = plain MC) *)
  profile : Ss_fastsim.Twist.t;
      (** the actual shared per-slot shift; [Twist.constant twist]
          unless supplied explicitly *)
  scales : float array;
      (** per-source multipliers on the shared profile (length N, each
          finite and >= 0) *)
  plans : Ss_fastsim.Likelihood.plan array;
      (** per-source likelihood plans (shared across replications;
          sources with equal scales share one plan) *)
}

val make_config :
  model:Ss_core.Model.t ->
  sources:int ->
  ?order:int ->
  ?backend:Source.backend ->
  service:float ->
  buffer:float ->
  slots:int ->
  twist:float ->
  ?profile:Ss_fastsim.Twist.t ->
  ?scales:float array ->
  unit ->
  config
(** Validate and precompute. [order] defaults to 256. When [profile]
    is given it overrides the constant [twist] (which then only
    labels the config); [scales] defaults to all ones. [backend]
    exists so callers that select a synthesis backend get a clear
    error here rather than a silent behavior change: only the default
    [`Hosking] is accepted — the likelihood accumulator consumes the
    per-step innovations of the exact Hosking recursion, which a
    materialized Davies–Harte path never produces. The twisted
    sources always run the exact kernel.
    @raise Invalid_argument on violated constraints (see field docs)
    or [backend:`Davies_harte]. *)

type replication = {
  hit : bool;  (** the shared queue crossed [buffer] within [slots] *)
  log_weight : float;  (** [log (I * L)]: [neg_infinity] unless hit *)
  stop_slot : int;  (** 1-based first-passage slot, or [slots] *)
}

val replicate : config -> Ss_stats.Rng.t -> replication
(** Run one replication on the given substream: per-source substreams
    are split off in source-index order, so the result is a pure
    function of the substream. Stops the {!Mux.run} drive at first
    passage.

    Each domain keeps one workspace for the last config it replicated
    (by physical equality), in [Domain.DLS] like the synthesis
    kernels' scratch: the [N] twisted sources
    ({!Source.of_model_twisted_reusable}), their likelihood streams
    and their per-slot log ratios ([N * slots] floats). A replication
    rewinds it — each source's generator takes a copy of its
    substream and its kernel goes back to slot 0 — instead of
    allocating [N] fresh O(order) rings; a new config rebuilds it.
    Results do not depend on what the workspace served before. Not
    reentrant between systhreads of one domain. *)

val estimate :
  ?pool:Ss_parallel.Pool.t ->
  config ->
  replications:int ->
  Ss_stats.Rng.t ->
  Ss_queueing.Mc.estimate
(** Fan [replications] replications out over the pool with the
    {!Ss_parallel.Fanout} substream discipline and fold the log
    weights with {!Ss_queueing.Mc.estimate_of_log_samples}. The
    estimate is bit-identical for any pool size, including none.
    @raise Invalid_argument if [replications <= 0]. *)

val mean_stop_slot :
  ?pool:Ss_parallel.Pool.t -> config -> replications:int -> Ss_stats.Rng.t -> float
(** Average first-passage slot — a diagnostic of how aggressively the
    twist pushes the aggregate across the buffer. *)

val sweep :
  ?pool:Ss_parallel.Pool.t ->
  config:(twist:float -> config) ->
  twists:float list ->
  replications:int ->
  Ss_stats.Rng.t ->
  Ss_fastsim.Valley.point list
(** Normalized-variance valley sweep over candidate twists, mirroring
    {!Ss_fastsim.Valley.sweep} (same estimator-agnostic core, same
    substream discipline). *)

val auto :
  ?pool:Ss_parallel.Pool.t ->
  config:(twist:float -> config) ->
  ?lo:float ->
  ?hi:float ->
  ?coarse:int ->
  replications:int ->
  Ss_stats.Rng.t ->
  Ss_fastsim.Valley.point
(** Coarse sweep + golden-section refinement of the twist, mirroring
    {!Ss_fastsim.Valley.auto}. *)
