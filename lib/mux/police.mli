(** Measurement-based conformance policing for admitted sources.

    The effective-bandwidth CAC ({!Admission}) trusts each source's
    declared [(mean, sigma2, H)] descriptor; this module checks the
    declaration against the traffic actually offered, online. Per
    source it keeps a windowed Welford accumulator (mean/variance
    over [config.window]-slot windows) and a streaming variance–time
    Hurst estimate ({!Ss_stats.Online_stats.Vt}); at every window
    close it issues a verdict and runs a sanction state machine.

    Conformance bands are LRD-aware: under the declared FGN model the
    window-of-W mean has standard deviation [sqrt(sigma2) * W^(H-1)]
    — far wider than the i.i.d. [1/sqrt(W)] — so the drift band is
    [max (mean_tol * mean) (envelope_sigmas * sigma_W)]. An honest
    H = 0.9 source is not flagged for being bursty; that is the
    point of policing self-similar traffic.

    Sanctions escalate: persistent drift ([grace] consecutive bad
    windows) first attempts {e renegotiation} — the CAC re-runs
    {!Admission.decide} with the old contract released and the
    measured descriptor as candidate; if granted the measured model
    becomes the new declared contract. A refused renegotiation
    demotes the source's priority class; the next strike throttles it
    (per-slot work clamped at its declared envelope
    [mean + envelope_sigmas * sqrt sigma2]); the next evicts it.
    Outright violation ([violation_factor]x the declared mean, or a
    NaN window) throttles immediately and evicts after [evict_after]
    consecutive bad windows; [corrupt_limit] corrupt slots (NaN /
    negative / infinite work, reported by {!Mux.run} via
    {!note_corrupt}) evict unconditionally. Throttles lift when the
    source conforms again; demotions, used-up renegotiations and
    evictions are sticky.

    All state is per-instance and single-threaded; {!Mux.run} calls
    {!observe}/{!note_corrupt} from its sequential admission loop, so
    policing composes with pooled source prefetch and stays
    bit-identical at any domain count. *)

type config = {
  window : int;  (** slots per measurement window (default 512) *)
  warmup_windows : int;  (** windows before verdicts start (default 1) *)
  mean_tol : float;  (** relative drift band on the mean (default 0.15) *)
  sigma2_tol : float;  (** relative upward band on sigma2 (default 1.5) *)
  hurst_tol : float;  (** absolute band on H (default 0.15) *)
  violation_factor : float;
      (** mean multiple that is an outright violation (default 2);
          the violation line is
          [max (violation_factor * mean) (mean + 2 * envelope_sigmas * sigma_W)] *)
  envelope_sigmas : float;  (** sigmas in drift bands and the throttle envelope (default 3) *)
  hurst_min_windows : int;
      (** closed windows before the variance-time H estimate is
          trusted in verdicts and renegotiated contracts (default 8) *)
  grace : int;  (** consecutive drifting windows before escalation (default 2) *)
  evict_after : int;  (** consecutive violating windows before eviction (default 3) *)
  corrupt_limit : int;  (** corrupt slots before unconditional eviction (default 16) *)
}

val default : config

type verdict =
  | Conforming
  | Drifting of Admission.descr  (** measured descriptor outside the declared bands *)
  | Violating of string  (** outright violation; human-readable reason *)

type event =
  | Flagged of verdict
  | Renegotiated of Admission.descr  (** contract replaced by the measured model *)
  | Demoted of int  (** cumulative priority-class demotion *)
  | Throttle_set of float  (** per-slot cap; [infinity] = throttle lifted *)
  | Evicted

type incident = { slot : int; source : string; event : event }

type t

val create : ?config:config -> ?cac:Admission.t -> Admission.descr array -> t
(** One policer state per source, judged against its declared
    descriptor. With [cac], renegotiations re-run admission against
    the live controller ({!Admission.renegotiate}) and evictions
    release the contract ({!Admission.evict}); without it,
    renegotiation is always granted.
    @raise Invalid_argument on an empty array, a malformed
    descriptor, or a malformed config. *)

val observe : t -> slot:int -> int -> float -> unit
(** Feed source [i]'s offered (pre-throttle) work for one slot.
    Closes a window — and possibly issues verdicts/sanctions — every
    [config.window] observations. Ignored for evicted sources.
    @raise Invalid_argument on an out-of-range index. *)

val observe_at : t -> slot:int -> int -> float array -> int -> unit
(** [observe_at t ~slot i a j] feeds [a.(j)] as {!observe} feeds its
    work argument, reading it in place: the mux's admission loop
    passes its staged row, so no float is boxed per source-slot.
    @raise Invalid_argument on an out-of-range source index, or on
    [j] outside [a] when the source is not evicted. *)

val note_corrupt : t -> slot:int -> int -> unit
(** Report a corrupt slot (NaN/negative/infinite work) for source
    [i]. Corrupt slots bypass {!observe} — they would poison the
    moment estimates — and evict the source at
    [config.corrupt_limit]. *)

val size : t -> int

val cap : t -> int -> float
(** Current per-slot cap; [infinity] = unthrottled. *)

val demotion : t -> int -> int
(** Cumulative priority-class demotion (added to the source's class
    by {!Mux.run}, saturating at the lowest class). *)

val evicted : t -> int -> bool

val detected_at : t -> int -> int option
(** Slot of the first flag against source [i], if any — the
    detection-latency numerator of [bench police]. *)

val declared : t -> int -> Admission.descr
(** Current contract (updated by renegotiation). *)

val measured : t -> int -> Admission.descr option
(** Measured descriptor of the last closed window. *)

val corrupt_slots : t -> int -> int

val incidents : t -> incident list
(** All incidents, in chronological order. *)

val incident_count : t -> int

val save : t -> Ss_checkpoint.W.t -> unit
val restore : t -> Ss_checkpoint.R.t -> unit
(** Checkpoint codec: full per-source policing state (windowed
    Welford, variance–time levels, escalation-ladder position, caps,
    eviction flags), the incident log, and — when the policer holds a
    CAC — the admitted-load list, so the post-run Norros overlay of a
    resumed run matches the uninterrupted one. {!restore} requires a
    policer created over the same source count (and CAC presence) and
    overwrites it in place, mid-window states included.
    @raise Ss_checkpoint.Corrupt on structure mismatch. *)

val pp_verdict : Format.formatter -> verdict -> unit
val pp_event : Format.formatter -> event -> unit
val pp_incident : Format.formatter -> incident -> unit
