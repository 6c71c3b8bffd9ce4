type config = {
  chunks : int;
  max_buffer_s : float;
  rtt_s : float;
  throughput_window : int;
  rebuffer_penalty : float;
  switch_penalty : float;
}

let default =
  {
    chunks = 120;
    max_buffer_s = 30.0;
    rtt_s = 0.08;
    throughput_window = 8;
    rebuffer_penalty = 4.3;
    switch_penalty = 1.0;
  }

type result = {
  policy : string;
  chunks : int;
  startup_s : float;
  rebuffer_s : float;
  rebuffer_ratio : float;
  rebuffer_events : int;
  mean_bitrate_mbps : float;
  mean_level : float;
  switches : int;
  qoe : float;
  qoe_bitrate : float;
  qoe_rebuffer : float;
  qoe_switch : float;
}

let finite_nonneg x = Float.is_finite x && x >= 0.0

(* [max_buffer_s = infinity] is accepted: it means no cap. An infinite
   RTT or penalty is not: it makes the result NaN, through an infinite
   position or [inf *. 0.0] in a QoE term. *)
let validate (cfg : config) =
  if cfg.chunks <= 0 then invalid_arg "Client: chunks <= 0";
  if not (cfg.max_buffer_s > 0.0) then invalid_arg "Client: max_buffer_s <= 0";
  if not (finite_nonneg cfg.rtt_s) then invalid_arg "Client: rtt_s not finite and >= 0";
  if cfg.throughput_window <= 0 then invalid_arg "Client: throughput_window <= 0";
  if not (finite_nonneg cfg.rebuffer_penalty) then
    invalid_arg "Client: rebuffer_penalty not finite and >= 0";
  if not (finite_nonneg cfg.switch_penalty) then
    invalid_arg "Client: switch_penalty not finite and >= 0"

type link = { bandwidth : float array; delays : float array option; slot_s : float }

let link ~bandwidth ?delays ~slot_s () =
  if not (Float.is_finite slot_s && slot_s > 0.0) then
    invalid_arg "Client.link: slot_s not finite and > 0";
  let len = Array.length bandwidth in
  if len = 0 then invalid_arg "Client.link: empty bandwidth trace";
  (match delays with
  | Some d ->
    if Array.length d <> len then invalid_arg "Client.link: delays length mismatch";
    (* A loop, not [Array.iteri]: a closure would box every cell. *)
    for t = 0 to len - 1 do
      if not (finite_nonneg d.(t)) then
        invalid_arg
          (Printf.sprintf "Client.link: delay %g at slot %d not finite and >= 0" d.(t) t)
    done
  | None -> ());
  (* Left to right, as [Array.fold_left ( +. )] would, but unboxed. *)
  let total_bw = ref 0.0 in
  for i = 0 to len - 1 do
    total_bw := !total_bw +. Array.unsafe_get bandwidth i
  done;
  if not (!total_bw > 0.0) then
    invalid_arg "Client.link: bandwidth trace sums to zero";
  { bandwidth; delays; slot_s }

(* Walk the bandwidth trace from continuous position [pos] (in slot
   units) until [bytes] have been transferred, wrapping at the end of
   the trace. Returns the new position; elapsed slots = new - old.
   Mirrors the cooked-trace walk of the Pensieve/oboe simulators, with
   fractional slot-boundary handling.

   Only the first slot can be entered mid-slot. Every later step starts
   on a whole slot [base], so its slot is the previous one + 1 (wrapping
   at [len]) and the fraction of it left is exactly 1.0: the cap is the
   cell itself, as [floor] and [mod] per slot would compute it. This is
   exact for positions below 2^53 slots, where every integer is a
   float. *)
let download bandwidth ~pos ~bytes =
  let len = Array.length bandwidth in
  let base = ref (Float.floor pos) in
  let slot = ref (int_of_float !base mod len) in
  let cap = ref (bandwidth.(!slot) *. (1.0 -. (pos -. !base))) in
  let pos = ref pos and left = ref bytes in
  (* Guarded by {!link}: total trace bandwidth is positive, so each
     full lap makes progress and this loop terminates. *)
  while !left > 0.0 do
    if !cap >= !left && !cap > 0.0 then begin
      pos := !pos +. (!left /. bandwidth.(!slot));
      left := 0.0
    end
    else begin
      left := !left -. !cap;
      base := !base +. 1.0;
      pos := !base;
      slot := if !slot = len - 1 then 0 else !slot + 1;
      cap := bandwidth.(!slot)
    end
  done;
  !pos

(* All mutable playback state of one client, gathered in a record so a
   mid-stream snapshot is one save/restore over an explicit field
   list. [next_chunk] is the first chunk not yet streamed; everything
   else is the accumulator state after chunks [0 .. next_chunk - 1].
   The derived [qoe_rebuffer] term is computed from [rebuffer] at
   result time, not carried here. *)
type state = {
  mutable next_chunk : int;
  mutable pos : float;  (* continuous trace position, slot units *)
  mutable buffer : float;
  mutable startup : float;
  mutable rebuffer : float;
  mutable rebuffer_events : int;
  mutable switches : int;
  mutable last_level : int;
  mutable sum_rate : float;
  mutable sum_level : float;
  mutable qoe_bitrate : float;
  mutable qoe_switch : float;
  tput_ring : float array;
  mutable tput_n : int;
}

let make_state ?(config = default) ~start () =
  validate config;
  {
    next_chunk = 0;
    pos = float_of_int start;
    buffer = 0.0;
    startup = 0.0;
    rebuffer = 0.0;
    rebuffer_events = 0;
    switches = 0;
    last_level = -1;
    sum_rate = 0.0;
    sum_level = 0.0;
    qoe_bitrate = 0.0;
    qoe_switch = 0.0;
    tput_ring = Array.make config.throughput_window 0.0;
    tput_n = 0;
  }

module Ck = Ss_checkpoint

let save_state st w =
  Ck.W.tag w "abr-client";
  Ck.W.int w st.next_chunk;
  Ck.W.float w st.pos;
  Ck.W.float w st.buffer;
  Ck.W.float w st.startup;
  Ck.W.float w st.rebuffer;
  Ck.W.int w st.rebuffer_events;
  Ck.W.int w st.switches;
  Ck.W.int w st.last_level;
  Ck.W.float w st.sum_rate;
  Ck.W.float w st.sum_level;
  Ck.W.float w st.qoe_bitrate;
  Ck.W.float w st.qoe_switch;
  Ck.W.float_array w st.tput_ring;
  Ck.W.int w st.tput_n

let restore_state st r =
  Ck.R.tag r "abr-client";
  st.next_chunk <- Ck.R.int r;
  st.pos <- Ck.R.float r;
  st.buffer <- Ck.R.float r;
  st.startup <- Ck.R.float r;
  st.rebuffer <- Ck.R.float r;
  st.rebuffer_events <- Ck.R.int r;
  st.switches <- Ck.R.int r;
  st.last_level <- Ck.R.int r;
  st.sum_rate <- Ck.R.float r;
  st.sum_level <- Ck.R.float r;
  st.qoe_bitrate <- Ck.R.float r;
  st.qoe_switch <- Ck.R.float r;
  Ck.R.float_array_into r st.tput_ring;
  st.tput_n <- Ck.R.int r;
  if st.next_chunk < 0 then raise (Ck.Corrupt "abr-client: negative next_chunk");
  if not (finite_nonneg st.pos) then
    raise (Ck.Corrupt "abr-client: position not finite and >= 0");
  if st.tput_n < 0 || st.tput_n > Array.length st.tput_ring then
    raise (Ck.Corrupt "abr-client: throughput count outside the window")

let run ?(config = default) ~policy ~ladder ~link ~start ?state ?stop_after () =
  validate config;
  let { bandwidth; delays; slot_s } = link in
  let len = Array.length bandwidth in
  if start < 0 || start >= len then invalid_arg "Client.run: start out of range";
  let nlev = Array.length ladder.Ladder.rates in
  let chunk_s = ladder.Ladder.chunk_s in
  let st =
    match state with
    | None -> make_state ~config ~start ()
    | Some s ->
      if Array.length s.tput_ring <> config.throughput_window then
        invalid_arg "Client.run: state throughput window mismatch";
      if s.next_chunk > config.chunks then
        invalid_arg "Client.run: state past the end of the stream";
      s
  in
  let stop =
    match stop_after with
    | None -> config.chunks
    | Some k ->
      if k < st.next_chunk || k > config.chunks then
        invalid_arg "Client.run: stop_after out of range";
      k
  in
  let throughput () =
    if st.tput_n = 0 then 0.0
    else begin
      let m = min st.tput_n config.throughput_window in
      let inv = ref 0.0 in
      for j = 0 to m - 1 do
        inv := !inv +. (1.0 /. st.tput_ring.(j))
      done;
      float_of_int m /. !inv
    end
  in
  for k = st.next_chunk to stop - 1 do
    let obs =
      {
        Policy.chunk_index = k;
        buffer_s = st.buffer;
        last_level = st.last_level;
        throughput_Bps = throughput ();
        rates = ladder.Ladder.rates;
        max_buffer_s = config.max_buffer_s;
      }
    in
    let level = policy.Policy.choose obs in
    let level = if level < 0 then 0 else if level >= nlev then nlev - 1 else level in
    let bytes = ladder.Ladder.sizes.(level).(k mod ladder.Ladder.chunks) in
    (* Request latency: RTT plus the mux's virtual queueing delay at
       the slot the request goes out in. *)
    let req_slot = int_of_float st.pos mod len in
    let qdelay_s =
      match delays with None -> 0.0 | Some d -> d.(req_slot) *. slot_s
    in
    let latency_s = config.rtt_s +. qdelay_s in
    st.pos <- st.pos +. (latency_s /. slot_s);
    let pos' = download bandwidth ~pos:st.pos ~bytes in
    let dl_s = ((pos' -. st.pos) *. slot_s) +. latency_s in
    st.pos <- pos';
    if st.tput_n < config.throughput_window then begin
      st.tput_ring.(st.tput_n) <- bytes /. dl_s;
      st.tput_n <- st.tput_n + 1
    end
    else begin
      (* Shift window: cheap for the small windows we use, and keeps
         ring order = arrival order for the harmonic mean. *)
      Array.blit st.tput_ring 1 st.tput_ring 0 (config.throughput_window - 1);
      st.tput_ring.(config.throughput_window - 1) <- bytes /. dl_s
    end;
    if k = 0 then begin
      st.startup <- dl_s;
      st.buffer <- chunk_s
    end
    else begin
      let stall = Float.max 0.0 (dl_s -. st.buffer) in
      if stall > 0.0 then begin
        st.rebuffer <- st.rebuffer +. stall;
        st.rebuffer_events <- st.rebuffer_events + 1
      end;
      st.buffer <- Float.max 0.0 (st.buffer -. dl_s) +. chunk_s;
      if st.buffer > config.max_buffer_s then begin
        (* Buffer full: the client idles (no request in flight) while
           playback drains the excess. *)
        let sleep_s = st.buffer -. config.max_buffer_s in
        st.pos <- st.pos +. (sleep_s /. slot_s);
        st.buffer <- config.max_buffer_s
      end
    end;
    let rate_mbps = ladder.Ladder.rates.(level) *. 8.0 /. 1e6 in
    st.sum_rate <- st.sum_rate +. rate_mbps;
    st.sum_level <- st.sum_level +. float_of_int level;
    st.qoe_bitrate <- st.qoe_bitrate +. rate_mbps;
    if k > 0 then begin
      let prev = ladder.Ladder.rates.(st.last_level) *. 8.0 /. 1e6 in
      if level <> st.last_level then st.switches <- st.switches + 1;
      st.qoe_switch <-
        st.qoe_switch +. (config.switch_penalty *. Float.abs (rate_mbps -. prev))
    end;
    st.last_level <- level;
    st.next_chunk <- k + 1
  done;
  let qoe_rebuffer = config.rebuffer_penalty *. st.rebuffer in
  let n = float_of_int config.chunks in
  let watch_s = n *. chunk_s in
  {
    policy = policy.Policy.name;
    chunks = config.chunks;
    startup_s = st.startup;
    rebuffer_s = st.rebuffer;
    rebuffer_ratio = st.rebuffer /. (watch_s +. st.rebuffer +. st.startup);
    rebuffer_events = st.rebuffer_events;
    mean_bitrate_mbps = st.sum_rate /. n;
    mean_level = st.sum_level /. n;
    switches = st.switches;
    qoe = (st.qoe_bitrate -. qoe_rebuffer -. st.qoe_switch) /. n;
    qoe_bitrate = st.qoe_bitrate /. n;
    qoe_rebuffer = qoe_rebuffer /. n;
    qoe_switch = st.qoe_switch /. n;
  }

let save_result (res : result) w =
  Ck.W.tag w "abr-result";
  Ck.W.string w res.policy;
  Ck.W.int w res.chunks;
  Ck.W.float w res.startup_s;
  Ck.W.float w res.rebuffer_s;
  Ck.W.float w res.rebuffer_ratio;
  Ck.W.int w res.rebuffer_events;
  Ck.W.float w res.mean_bitrate_mbps;
  Ck.W.float w res.mean_level;
  Ck.W.int w res.switches;
  Ck.W.float w res.qoe;
  Ck.W.float w res.qoe_bitrate;
  Ck.W.float w res.qoe_rebuffer;
  Ck.W.float w res.qoe_switch

let read_result r =
  Ck.R.tag r "abr-result";
  let policy = Ck.R.string r in
  let chunks = Ck.R.int r in
  let startup_s = Ck.R.float r in
  let rebuffer_s = Ck.R.float r in
  let rebuffer_ratio = Ck.R.float r in
  let rebuffer_events = Ck.R.int r in
  let mean_bitrate_mbps = Ck.R.float r in
  let mean_level = Ck.R.float r in
  let switches = Ck.R.int r in
  let qoe = Ck.R.float r in
  let qoe_bitrate = Ck.R.float r in
  let qoe_rebuffer = Ck.R.float r in
  let qoe_switch = Ck.R.float r in
  {
    policy;
    chunks;
    startup_s;
    rebuffer_s;
    rebuffer_ratio;
    rebuffer_events;
    mean_bitrate_mbps;
    mean_level;
    switches;
    qoe;
    qoe_bitrate;
    qoe_rebuffer;
    qoe_switch;
  }
