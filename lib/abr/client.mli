(** One adaptive-bitrate streaming client: a trace-driven download
    loop against a bandwidth/delay trajectory, with playback-buffer
    dynamics, rebuffer accounting and a QoE score.

    The simulation follows the chunk-level model used by the
    Pensieve/oboe line of work: for each chunk the policy picks a
    rendition, the chunk downloads over the (wrapping) bandwidth
    trace from the client's current time position, and the playback
    buffer drains in real time while the download is in flight. The
    bandwidth trace is typically a per-source served-work row of
    {!Trajectory} — so the multiplexer's LRD queueing dynamics become
    the client's throughput process. *)

type config = {
  chunks : int;  (** chunks to stream (client loops past ladder end) *)
  max_buffer_s : float;
      (** buffer cap; the client idles when full ([infinity]: no cap) *)
  rtt_s : float;  (** fixed per-request latency, seconds *)
  throughput_window : int;  (** chunks in the harmonic-mean estimate *)
  rebuffer_penalty : float;  (** QoE Mbps-equivalent per stall second *)
  switch_penalty : float;  (** QoE multiplier on |rate - prev rate| *)
}

val default : config
(** 120 chunks, 30 s buffer, 80 ms RTT, window 8, penalties 4.3 / 1.0
    (the MPC/Pensieve QoE constants). *)

type result = {
  policy : string;
  chunks : int;
  startup_s : float;  (** first-chunk download time *)
  rebuffer_s : float;  (** total stall time after startup *)
  rebuffer_ratio : float;  (** stall / (watch + stall + startup) *)
  rebuffer_events : int;
  mean_bitrate_mbps : float;
  mean_level : float;
  switches : int;  (** rendition changes between consecutive chunks *)
  qoe : float;  (** per-chunk: bitrate - rebuffer - switch terms *)
  qoe_bitrate : float;
  qoe_rebuffer : float;
  qoe_switch : float;
}

type link
(** One validated bandwidth/delay row, shared by every client that
    streams over it: {!Fleet.run} builds one per trajectory source, so
    each row is checked once per fleet rather than once per client.
    A link does not copy its arrays. They must not be written while a
    link built over them is in use. *)

val link : bandwidth:float array -> ?delays:float array -> slot_s:float -> unit -> link
(** [bandwidth.(t)] is bytes deliverable in slot [t] (the row wraps),
    [delays.(t)] an optional per-slot request queueing delay in slots
    and [slot_s] the slot duration in seconds. Runs every check that
    is linear in the row length, once.
    @raise Invalid_argument on an empty row; a row whose left-to-right
    sum is not > 0 (zero, negative or NaN); a [delays] length mismatch;
    a delay that is NaN, infinite or negative; or a [slot_s] that is
    not finite and > 0. *)

type state
(** All mutable playback state of one client (trace position, buffer,
    accumulators, throughput window) — a snapshot point between
    chunks. *)

val make_state : ?config:config -> start:int -> unit -> state
(** Fresh state for a client joining at slot [start].
    @raise Invalid_argument on an invalid config: [chunks] or
    [throughput_window] <= 0, [max_buffer_s] not > 0, or an [rtt_s],
    [rebuffer_penalty] or [switch_penalty] that is not finite and
    >= 0. *)

val save_state : state -> Ss_checkpoint.W.t -> unit
val restore_state : state -> Ss_checkpoint.R.t -> unit
(** Checkpoint codec for a mid-stream client. {!restore_state}
    overwrites a state built with the same config in place; resuming
    {!run} with it continues bitwise where the snapshot stopped.
    @raise Ss_checkpoint.Corrupt on structure mismatch, a negative
    chunk count, or a position that is not finite and >= 0. *)

val run :
  ?config:config ->
  policy:Policy.t ->
  ladder:Ladder.t ->
  link:link ->
  start:int ->
  ?state:state ->
  ?stop_after:int ->
  unit ->
  result
(** Stream [config.chunks] chunks over [link], joining at slot
    [start]. Deterministic: equal inputs give bit-identical results.

    With [state], playback continues from the supplied (possibly
    restored) snapshot and [start] is ignored — the position lives in
    the state. With [stop_after], streaming pauses after chunk
    [stop_after - 1], leaving [state] ready to snapshot or continue;
    the returned result is only meaningful once all chunks have
    streamed. Running to completion in one call or across any split
    of [stop_after] points yields bit-identical results (enforced by
    test).
    @raise Invalid_argument on an invalid config (see {!make_state}),
    [start] outside the row, a state whose throughput window disagrees
    with [config], or [stop_after] outside [next chunk, chunks]. *)

val save_result : result -> Ss_checkpoint.W.t -> unit
val read_result : Ss_checkpoint.R.t -> result
(** Codec for completed-client results ({!Fleet}'s checkpoint stores
    the finished prefix of its fleet). *)
