(** Importance-sampling estimation of buffer-overflow probabilities
    under self-similar VBR video traffic (paper Section 4 and
    Appendix B).

    Each replication generates the background Gaussian path under
    the twisted (mean-shifted) law step by step, transforms it to the
    foreground arrival process, accumulates the workload
    [W_i = sum (Y_j - mu)], and stops at the first passage above the
    buffer (the event of Eq 17) or at the horizon. Surviving
    replications contribute the likelihood ratio evaluated at the
    stopping time; the estimator [1/N sum I_n L_n] is unbiased for
    [Pr(sup_{i<=k} W_i > b)] — which equals the transient overflow
    probability [Pr(Q_k > b)] from an empty queue, the quantity the
    paper plots.

    Setting [twist = 0] recovers plain Monte Carlo exactly (all
    likelihood ratios are 1). *)

type arrival = int -> float -> float
(** Foreground map: [arrival i x] is the work arriving in slot [i]
    when the background value is [x] — typically
    [Transform.apply1 h] for a single marginal, or a GOP-indexed
    family of transforms for the composite MPEG model. *)

type backend = [ `Hosking | `Davies_harte of Ss_fractal.Davies_harte.plan ]
(** Background-path synthesis per replication. [`Hosking] (default)
    walks the Durbin–Levinson recursion step by step — required for
    any nonzero twist, since the likelihood ratio is accumulated from
    the per-step innovations. [`Davies_harte plan] draws the whole
    path exactly (every lag) by circulant embedding and runs plain
    Monte Carlo on it: only valid at zero twist, where all weights
    are 1; the plan must cover the horizon. *)

type config = {
  table : Ss_fractal.Hosking.Table.t;  (** background model, length >= horizon *)
  arrival : arrival;
  service : float;  (** deterministic service per slot, > 0 *)
  buffer : float;  (** overflow threshold b, >= 0 *)
  horizon : int;  (** k; must not exceed the table length *)
  twist : float;  (** background mean shift m* (0 = plain MC) *)
  profile : Twist.t;
      (** the actual per-slot shift; [Twist.constant twist] unless a
          profile was supplied explicitly *)
  lik_plan : Likelihood.plan;  (** precomputed likelihood deltas *)
  initial_workload : float;
      (** starting level of the workload supremum test; 0 for an
          initially empty buffer. The full-buffer variant of Fig 15
          additionally triggers on end-of-horizon workload (see
          [full_start]). *)
  full_start : bool;
      (** when true, model an initially full buffer: overflow also
          occurs if [q0 + W_k > b] at the horizon with [q0 = b]. *)
  backend : backend;  (** per-replication background synthesis *)
}

val make_config :
  table:Ss_fractal.Hosking.Table.t ->
  arrival:arrival ->
  service:float ->
  buffer:float ->
  horizon:int ->
  twist:float ->
  ?profile:Twist.t ->
  ?full_start:bool ->
  ?initial_workload:float ->
  ?backend:backend ->
  unit ->
  config
(** Validate and build. [full_start] defaults to false,
    [initial_workload] to 0, [backend] to [`Hosking]. When [profile]
    is given it overrides the constant [twist] (which then only
    serves as a label); otherwise the shift is [Twist.constant twist],
    the paper's scheme.
    @raise Invalid_argument on violated constraints: a service that
    is not finite and > 0, a buffer that is NaN, negative or
    infinite, a non-finite twist, a horizon outside the table, a
    [`Davies_harte] backend with a nonzero twist or a plan shorter
    than the horizon, ... *)

type replication = {
  hit : bool;  (** overflow occurred *)
  weight : float;
      (** [I * L]: likelihood ratio if hit, else 0. May underflow to 0
          for deep buffers; arithmetic should use [log_weight]. *)
  log_weight : float;  (** [log (I * L)]: [neg_infinity] unless hit *)
  stop_step : int;  (** 1-based step of first passage, or horizon *)
}

val replicate : config -> Ss_stats.Rng.t -> replication
(** Run one replication on the given substream. *)

val estimate :
  ?pool:Ss_parallel.Pool.t ->
  config ->
  replications:int ->
  Ss_stats.Rng.t ->
  Ss_queueing.Mc.estimate
(** Run [replications] independent replications (each on a split
    substream) and fold into the shared estimate record via
    {!Ss_queueing.Mc.estimate_of_log_samples} — weights are combined
    in the log domain, so the figure of merit survives likelihood
    ratios that underflow [exp]. [hits] counts overflowing
    replications; [normalized_variance] is the Fig-14 figure of
    merit. With [pool] the replications run across
    domains ({!Ss_parallel.Fanout}); substream assignment and fold
    order are fixed, so the estimate is bit-identical for any pool
    size, including the default sequential path.
    @raise Invalid_argument if [replications <= 0]. *)

val mean_stop_step :
  ?pool:Ss_parallel.Pool.t -> config -> replications:int -> Ss_stats.Rng.t -> float
(** Average first-passage step — a diagnostic of how aggressively a
    twist pushes paths across the buffer. Same parallel/determinism
    contract as {!estimate}. *)
