(* Tests for the adaptive-bitrate streaming subsystem: trajectory
   capture, bitrate ladders, adaptation policies, the chunked client
   simulation, and the pooled fleet driver. *)

module Rng = Ss_stats.Rng
module D = Ss_stats.Descriptive
module Gop = Ss_video.Gop
module Trace = Ss_video.Trace
module Scene = Ss_video.Scene_source
module Pool = Ss_parallel.Pool
module Trajectory = Ss_abr.Trajectory
module Ladder = Ss_abr.Ladder
module Policy = Ss_abr.Policy
module Client = Ss_abr.Client
module Fleet = Ss_abr.Fleet

let close ?(eps = 1e-9) msg expected actual =
  if abs_float (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let raises_invalid msg f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" msg

let bits = Int64.bits_of_float

(* A constant-size intra-only trace: every ladder chunk has the same
   byte count, so client arithmetic is hand-checkable. *)
let flat_trace ?(frames = 300) ?(bytes = 1000.0) () =
  Trace.make ~name:"flat" ~fps:30.0 ~gop:(Gop.of_string "I")
    (Array.make frames bytes)

(* ------------------------------------------------------------------ *)
(* Trajectory capture                                                   *)
(* ------------------------------------------------------------------ *)

let test_trajectory_sink_transposes () =
  let c = Trajectory.create ~slots:3 ~sources:2 ~slot_s:0.5 in
  Alcotest.(check int) "starts empty" 0 c.Trajectory.filled;
  for t = 0 to 2 do
    let served = [| float_of_int (10 * (t + 1)); float_of_int t |] in
    let delays = [| 0.25 *. float_of_int t; 1.0 |] in
    Trajectory.sink c ~slot:t ~served ~delays
  done;
  Alcotest.(check int) "filled" 3 c.Trajectory.filled;
  let bw0 = Trajectory.bandwidth c 0 and bw1 = Trajectory.bandwidth c 1 in
  close "source 0 slot 1" 20.0 bw0.(1);
  close "source 1 slot 2" 2.0 bw1.(2);
  close "delay transpose" 0.5 (Trajectory.delay c 0).(2);
  close "delay constant" 1.0 (Trajectory.delay c 1).(0)

let test_trajectory_invalid () =
  raises_invalid "zero slots" (fun () ->
      Trajectory.create ~slots:0 ~sources:1 ~slot_s:0.1);
  raises_invalid "zero sources" (fun () ->
      Trajectory.create ~slots:4 ~sources:0 ~slot_s:0.1);
  raises_invalid "bad slot_s" (fun () ->
      Trajectory.create ~slots:4 ~sources:1 ~slot_s:0.0);
  let c = Trajectory.create ~slots:2 ~sources:2 ~slot_s:0.1 in
  raises_invalid "slot out of range" (fun () ->
      Trajectory.sink c ~slot:2 ~served:[| 0.0; 0.0 |] ~delays:[| 0.0; 0.0 |]);
  raises_invalid "source mismatch" (fun () ->
      Trajectory.sink c ~slot:0 ~served:[| 0.0 |] ~delays:[| 0.0 |]);
  raises_invalid "bandwidth range" (fun () -> Trajectory.bandwidth c 2);
  raises_invalid "delay range" (fun () -> Trajectory.delay c (-1))

(* ------------------------------------------------------------------ *)
(* Ladder                                                               *)
(* ------------------------------------------------------------------ *)

let test_ladder_of_trace_scaling () =
  let tr = flat_trace () in
  let l = Ladder.of_trace ~levels:[ 0.5; 1.0; 2.0 ] ~chunk_frames:30 tr in
  Alcotest.(check int) "chunks" 10 l.Ladder.chunks;
  close "chunk duration" 1.0 l.Ladder.chunk_s;
  (* 30 frames of 1000 B at level 1.0 = 30 kB per chunk; other levels
     exactly proportional. *)
  close "base chunk bytes" 30_000.0 l.Ladder.sizes.(1).(0);
  close "low chunk bytes" 15_000.0 l.Ladder.sizes.(0).(7);
  close "high chunk bytes" 60_000.0 l.Ladder.sizes.(2).(9);
  close "base rate B/s" 30_000.0 l.Ladder.rates.(1);
  close "rate proportional" 2.0 (l.Ladder.rates.(2) /. l.Ladder.rates.(1))

let test_ladder_of_traces () =
  let lo = flat_trace ~bytes:500.0 () and hi = flat_trace ~bytes:1500.0 () in
  let l = Ladder.of_traces ~chunk_frames:30 [ lo; hi ] in
  Alcotest.(check int) "levels" 2 (Array.length l.Ladder.rates);
  close "low rate" 15_000.0 l.Ladder.rates.(0);
  close "high rate" 45_000.0 l.Ladder.rates.(1);
  close "level factor" 3.0 l.Ladder.levels.(1)

let test_ladder_invalid () =
  let tr = flat_trace () in
  raises_invalid "levels not ascending" (fun () ->
      Ladder.of_trace ~levels:[ 1.0; 0.5 ] ~chunk_frames:30 tr);
  raises_invalid "non-positive level" (fun () ->
      Ladder.of_trace ~levels:[ 0.0; 1.0 ] ~chunk_frames:30 tr);
  raises_invalid "chunk_frames = 0" (fun () ->
      Ladder.of_trace ~chunk_frames:0 tr);
  raises_invalid "trace shorter than a chunk" (fun () ->
      Ladder.of_trace ~chunk_frames:301 tr);
  raises_invalid "single rendition" (fun () ->
      Ladder.of_traces ~chunk_frames:30 [ tr ]);
  raises_invalid "rates not ascending" (fun () ->
      Ladder.of_traces ~chunk_frames:30 [ flat_trace ~bytes:900.0 (); tr; tr ])

let test_ladder_level_boundary () =
  (* A one-entry ladder has nothing to adapt between, and of_traces
     already refuses a single rendition — of_trace must agree instead
     of silently building a degenerate ladder. *)
  let tr = flat_trace () in
  raises_invalid "empty levels" (fun () ->
      Ladder.of_trace ~levels:[] ~chunk_frames:30 tr);
  raises_invalid "single level" (fun () ->
      Ladder.of_trace ~levels:[ 1.0 ] ~chunk_frames:30 tr);
  (* Two levels is the smallest real ladder, on both constructors. *)
  let l = Ladder.of_trace ~levels:[ 0.5; 1.0 ] ~chunk_frames:30 tr in
  Alcotest.(check int) "of_trace two levels" 2 (Array.length l.Ladder.rates);
  let l' =
    Ladder.of_traces ~chunk_frames:30 [ flat_trace ~bytes:500.0 (); tr ]
  in
  Alcotest.(check int) "of_traces two renditions" 2 (Array.length l'.Ladder.rates)

(* ------------------------------------------------------------------ *)
(* Policies                                                             *)
(* ------------------------------------------------------------------ *)

let obs ?(buffer_s = 0.0) ?(throughput = 0.0) ?(last = -1) () =
  {
    Policy.chunk_index = 5;
    buffer_s;
    last_level = last;
    throughput_Bps = throughput;
    rates = [| 1000.0; 2000.0; 4000.0; 8000.0 |];
    max_buffer_s = 30.0;
  }

let test_policy_bba_thresholds () =
  let p = Policy.bba ~reservoir_s:5.0 ~cushion_s:10.0 () in
  Alcotest.(check int) "empty buffer -> floor" 0 (p.Policy.choose (obs ()));
  Alcotest.(check int) "reservoir edge -> floor" 0
    (p.Policy.choose (obs ~buffer_s:5.0 ()));
  Alcotest.(check int) "above cushion -> ceiling" 3
    (p.Policy.choose (obs ~buffer_s:15.0 ()));
  (* Mid-cushion: target rate = rmin + (b-5)/10 * (rmax-rmin); at
     b = 7.5 that is 1000 + 0.25*7000 = 2750 -> highest fitting is
     level 1 (2000 B/s). *)
  Alcotest.(check int) "mid-cushion maps to rate axis" 1
    (p.Policy.choose (obs ~buffer_s:7.5 ()));
  (* Monotone in buffer occupancy. *)
  let prev = ref 0 in
  for b = 0 to 60 do
    let l = p.Policy.choose (obs ~buffer_s:(0.25 *. float_of_int b) ()) in
    if l < !prev then Alcotest.failf "BBA not monotone at buffer %d" b;
    prev := l
  done;
  raises_invalid "bad reservoir" (fun () -> Policy.bba ~reservoir_s:0.0 ());
  raises_invalid "bad cushion" (fun () -> Policy.bba ~cushion_s:(-1.0) ())

let test_policy_rate_fitting () =
  let p = Policy.rate ~safety:0.85 () in
  Alcotest.(check int) "no estimate -> floor" 0 (p.Policy.choose (obs ()));
  (* 0.85 * 5000 = 4250: fits level 2 (4000) but not 3. *)
  Alcotest.(check int) "highest fitting" 2
    (p.Policy.choose (obs ~throughput:5000.0 ()));
  Alcotest.(check int) "nothing fits -> floor" 0
    (p.Policy.choose (obs ~throughput:900.0 ()));
  Alcotest.(check int) "everything fits -> ceiling" 3
    (p.Policy.choose (obs ~throughput:1e7 ()));
  raises_invalid "safety 0" (fun () -> Policy.rate ~safety:0.0 ());
  raises_invalid "safety > 1" (fun () -> Policy.rate ~safety:1.5 ())

let test_policy_fixed () =
  let p = Policy.fixed 2 in
  Alcotest.(check int) "fixed level" 2 (p.Policy.choose (obs ()));
  raises_invalid "negative fixed" (fun () -> ignore (Policy.fixed (-1)))

(* ------------------------------------------------------------------ *)
(* Client                                                               *)
(* ------------------------------------------------------------------ *)

(* One source with constant bandwidth [bw] bytes/slot and zero queue
   delay. *)
let flat_capture ?(slots = 4000) ?(slot_s = 0.1) bw =
  let c = Trajectory.create ~slots ~sources:1 ~slot_s in
  for t = 0 to slots - 1 do
    Trajectory.sink c ~slot:t ~served:[| bw |] ~delays:[| 0.0 |]
  done;
  c

(* Source 0's row of a capture, as one client link. *)
let capture_link cap =
  Client.link ~bandwidth:(Trajectory.bandwidth cap 0) ~slot_s:cap.Trajectory.slot_s ()

let small_ladder () =
  Ladder.of_trace ~levels:[ 0.5; 1.0; 2.0 ] ~chunk_frames:30 (flat_trace ())

let test_client_constant_bandwidth_no_stall () =
  (* Level-0 chunks are 15 kB; at 10 kB/slot (0.1 s/slot = 100 kB/s)
     each chunk downloads in 0.15 s against 1 s of playback, so only
     the first chunk can stall (startup). *)
  let ladder = small_ladder () in
  let cap = flat_capture 10_000.0 in
  let config = { Client.default with chunks = 40; rtt_s = 0.05 } in
  let r =
    Client.run ~config ~policy:(Policy.fixed 0) ~ladder
      ~link:(capture_link cap)
      ~start:0 ()
  in
  close "startup = rtt + transfer" (0.05 +. 0.15) r.Client.startup_s;
  close "no rebuffering" 0.0 r.Client.rebuffer_s;
  Alcotest.(check int) "no rebuffer events" 0 r.Client.rebuffer_events;
  Alcotest.(check int) "no switches" 0 r.Client.switches;
  close "pinned mean level" 0.0 r.Client.mean_level;
  (* Level-0 nominal rate is 15 kB/s = 0.12 Mbps. *)
  close "mean bitrate" 0.12 r.Client.mean_bitrate_mbps;
  close "qoe = bitrate term" r.Client.qoe_bitrate r.Client.qoe;
  close "ratio denominator" 0.0 r.Client.rebuffer_ratio ~eps:1e-12

let test_client_slow_link_stalls () =
  (* At 2 kB/slot = 20 kB/s a 30 kB level-1 chunk takes 1.5 s per 1 s
     of video: every post-startup chunk stalls 0.5 s minus nothing —
     deterministic arithmetic, checked exactly. *)
  let ladder = small_ladder () in
  let cap = flat_capture 2_000.0 in
  let config = { Client.default with chunks = 20; rtt_s = 0.0 } in
  let r =
    Client.run ~config ~policy:(Policy.fixed 1) ~ladder
      ~link:(capture_link cap)
      ~start:0 ()
  in
  close "startup" 1.5 r.Client.startup_s;
  (* Chunks 1..19: buffer is 1 s when the download starts, dl = 1.5 s,
     so each stalls 0.5 s. *)
  close "total stall" (19.0 *. 0.5) r.Client.rebuffer_s ~eps:1e-6;
  Alcotest.(check int) "every chunk stalls" 19 r.Client.rebuffer_events;
  close "rebuffer ratio" (9.5 /. (20.0 +. 9.5 +. 1.5)) r.Client.rebuffer_ratio
    ~eps:1e-6;
  if r.Client.qoe >= r.Client.qoe_bitrate then
    Alcotest.fail "stall penalty missing from QoE"

let test_client_qoe_decomposition () =
  (* The aggregate QoE equals the reported decomposition; per-chunk
     normalization happens separately for each term, so compare with
     a tolerance rather than bitwise. *)
  let ladder = small_ladder () in
  let cap = flat_capture 3_500.0 in
  let r =
    Client.run
      ~config:{ Client.default with chunks = 60 }
      ~policy:(Policy.rate ()) ~ladder
      ~link:(capture_link cap)
      ~start:7 ()
  in
  close "qoe decomposition" ~eps:1e-9
    (r.Client.qoe_bitrate -. r.Client.qoe_rebuffer -. r.Client.qoe_switch)
    r.Client.qoe

let test_client_delay_adds_latency () =
  (* A constant 2-slot virtual delay adds 0.2 s of latency to every
     request; with everything else flat the startup grows by exactly
     that. *)
  let ladder = small_ladder () in
  let slots = 4000 in
  let cap = Trajectory.create ~slots ~sources:1 ~slot_s:0.1 in
  for t = 0 to slots - 1 do
    Trajectory.sink cap ~slot:t ~served:[| 10_000.0 |] ~delays:[| 2.0 |]
  done;
  let config = { Client.default with chunks = 10; rtt_s = 0.05 } in
  let run delays =
    Client.run ~config ~policy:(Policy.fixed 0) ~ladder
      ~link:(Client.link ~bandwidth:(Trajectory.bandwidth cap 0) ?delays ~slot_s:0.1 ())
      ~start:0 ()
  in
  let plain = run None in
  let delayed = run (Some (Trajectory.delay cap 0)) in
  close "delay adds to startup" (plain.Client.startup_s +. 0.2)
    delayed.Client.startup_s

let test_client_invalid () =
  let ladder = small_ladder () in
  let bw = Array.make 100 10_000.0 in
  let link ?delays ?(bandwidth = bw) ?(slot_s = 0.1) () =
    Client.link ~bandwidth ?delays ~slot_s ()
  in
  let run ?config ?(start = 0) () =
    Client.run ?config ~policy:(Policy.fixed 0) ~ladder ~link:(link ()) ~start ()
  in
  raises_invalid "empty trace" (fun () -> link ~bandwidth:[||] ());
  (* The row total is summed left to right: zero, negative and NaN
     totals are refused by name, and so is a total that cancels to
     zero only in that order (1e16 +. 1 rounds back to 1e16). *)
  List.iter
    (fun (name, bandwidth) ->
      match link ~bandwidth () with
      | exception Invalid_argument msg ->
        Alcotest.(check string) name "Client.link: bandwidth trace sums to zero" msg
      | _ -> Alcotest.failf "%s: expected the zero-sum refusal" name)
    [
      ("zero-sum trace", Array.make 8 0.0);
      ("negative-sum trace", [| 1.0; -3.0; 1.0 |]);
      ("nan-sum trace", [| 1.0; Float.nan; 1.0 |]);
      ("cancels left to right", [| 1e16; 1.0; -1e16 |]);
    ];
  raises_invalid "start out of range" (fun () -> run ~start:100 ());
  raises_invalid "negative start" (fun () -> run ~start:(-1) ());
  raises_invalid "delays mismatch" (fun () ->
      link ~delays:(Array.make 99 0.0) ());
  raises_invalid "bad slot_s" (fun () -> link ~slot_s:0.0 ());
  raises_invalid "zero chunks" (fun () ->
      run ~config:{ Client.default with chunks = 0 } ());
  raises_invalid "bad window" (fun () ->
      run ~config:{ Client.default with throughput_window = 0 } ());
  (* A negative delay would walk the position below 0, into an
     out-of-bounds read; a non-finite delay, RTT or slot duration, or
     an infinite penalty times a zero term, would make the result NaN
     or infinite. All are refused by name. *)
  let delay_at_3 x = Array.init 100 (fun t -> if t = 3 then x else 0.5) in
  List.iter
    (fun (name, x) ->
      match link ~delays:(delay_at_3 x) () with
      | exception Invalid_argument msg ->
        if not (String.starts_with ~prefix:"Client.link: delay" msg) then
          Alcotest.failf "%s: unexpected message %S" name msg
      | _ -> Alcotest.failf "%s: expected the delay refusal" name)
    [
      ("negative delay", -100.0);
      ("nan delay", Float.nan);
      ("infinite delay", Float.infinity);
    ];
  raises_invalid "infinite slot_s" (fun () -> link ~slot_s:Float.infinity ());
  raises_invalid "nan slot_s" (fun () -> link ~slot_s:Float.nan ());
  raises_invalid "infinite rtt" (fun () ->
      run ~config:{ Client.default with rtt_s = Float.infinity } ());
  raises_invalid "infinite rebuffer penalty" (fun () ->
      run ~config:{ Client.default with rebuffer_penalty = Float.infinity } ());
  raises_invalid "infinite switch penalty" (fun () ->
      run ~config:{ Client.default with switch_penalty = Float.infinity } ());
  raises_invalid "nan max_buffer_s" (fun () ->
      run ~config:{ Client.default with max_buffer_s = Float.nan } ());
  (* An infinite buffer cap means no cap, and stays accepted. *)
  let uncapped =
    run ~config:{ Client.default with chunks = 10; max_buffer_s = Float.infinity } ()
  in
  if not (Float.is_finite uncapped.Client.qoe) then
    Alcotest.failf "uncapped buffer: qoe %g" uncapped.Client.qoe

(* The bandwidth trace wraps: a client joining at the last slot must
   walk past the end and around without reading out of bounds or
   producing non-finite results, for any trace length and policy. *)
let prop_client_wraps_past_trace_end =
  QCheck.Test.make ~count:150 ~name:"client wraps past end of trace"
    QCheck.(
      triple
        (list_of_size (Gen.int_range 2 64) (int_range 1 20_000))
        (int_bound 2) (int_bound 2))
    (fun (cells, back, policy_idx) ->
      let bandwidth = Array.of_list (List.map float_of_int cells) in
      let len = Array.length bandwidth in
      (* Join at or just before the final slot, so nearly every chunk
         download crosses the wrap point. *)
      let start = len - 1 - min back (len - 1) in
      let delays = Array.init len (fun t -> float_of_int (t mod 3)) in
      let policy =
        match policy_idx with
        | 0 -> Policy.fixed 0
        | 1 -> Policy.rate ()
        | _ -> Policy.bba ()
      in
      let r =
        Client.run
          ~config:{ Client.default with chunks = 25 }
          ~policy ~ladder:(small_ladder ())
          ~link:(Client.link ~bandwidth ~delays ~slot_s:0.1 ())
          ~start ()
      in
      Float.is_finite r.Client.qoe
      && Float.is_finite r.Client.startup_s
      && r.Client.startup_s >= 0.0
      && r.Client.rebuffer_s >= 0.0
      && r.Client.rebuffer_ratio >= 0.0
      && r.Client.rebuffer_ratio <= 1.0
      && r.Client.mean_level >= 0.0)

(* ------------------------------------------------------------------ *)
(* Fleet                                                                *)
(* ------------------------------------------------------------------ *)

let test_fleet_summarize_quantiles () =
  let s = Fleet.summarize (Array.init 10 (fun i -> float_of_int (i + 1))) in
  close "mean" 5.5 s.Fleet.mean;
  close "min" 1.0 s.Fleet.min;
  close "max" 10.0 s.Fleet.max;
  (* Exact type-7 quantiles of 1..10. *)
  close "median" 5.5 s.Fleet.q50;
  close "q10" 1.9 s.Fleet.q10;
  close "q90" 9.1 s.Fleet.q90;
  close "std" (D.std [| 1.0; 2.0; 3.0 |]) (Fleet.summarize [| 1.0; 2.0; 3.0 |]).Fleet.std;
  raises_invalid "empty" (fun () -> Fleet.summarize [||])

(* A 2-source capture with mild bandwidth variation so policies have
   something to react to. *)
let varied_capture slots =
  let c = Trajectory.create ~slots ~sources:2 ~slot_s:(1.0 /. 30.0) in
  for t = 0 to slots - 1 do
    let wave = 1.0 +. (0.5 *. sin (float_of_int t /. 40.0)) in
    let served = [| 1200.0 *. wave; 900.0 /. wave |] in
    let delays = [| 0.5 *. wave; 1.5 |] in
    Trajectory.sink c ~slot:t ~served ~delays
  done;
  c

let test_fleet_pool_bit_identical () =
  let cap = varied_capture 6000 in
  let ladder = small_ladder () in
  let config = { Client.default with chunks = 30 } in
  let run pool =
    Fleet.run ?pool ~rng:(Rng.create ~seed:97) ~clients:12
      ~policy:(Policy.bba ()) ~ladder ~trajectory:cap ~config ()
  in
  let _, seq = run None in
  let pool = Pool.create ~domains:3 in
  let _, par =
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () -> run (Some pool))
  in
  Alcotest.(check int) "client count" (Array.length seq) (Array.length par);
  Array.iteri
    (fun j (a : Client.result) ->
      let b = par.(j) in
      let same l x y =
        if bits x <> bits y then
          Alcotest.failf "client %d: %s differs (%.17g vs %.17g)" j l x y
      in
      same "qoe" a.Client.qoe b.Client.qoe;
      same "rebuffer" a.Client.rebuffer_s b.Client.rebuffer_s;
      same "startup" a.Client.startup_s b.Client.startup_s;
      same "bitrate" a.Client.mean_bitrate_mbps b.Client.mean_bitrate_mbps;
      Alcotest.(check int)
        (Printf.sprintf "client %d switches" j)
        a.Client.switches b.Client.switches)
    seq

let test_fleet_report_consistency () =
  let cap = varied_capture 6000 in
  let ladder = small_ladder () in
  let report, results =
    Fleet.run ~rng:(Rng.create ~seed:5) ~clients:16 ~policy:(Policy.rate ())
      ~ladder ~trajectory:cap
      ~config:{ Client.default with chunks = 25 }
      ()
  in
  Alcotest.(check int) "clients" 16 report.Fleet.clients;
  Alcotest.(check string) "policy name" "rate" report.Fleet.policy;
  let qoes = Array.map (fun r -> r.Client.qoe) results in
  close "qoe mean matches results" (D.mean qoes) report.Fleet.qoe.Fleet.mean;
  let stalls = Array.fold_left (fun a r -> a +. r.Client.rebuffer_s) 0.0 results in
  close "total stall matches" stalls report.Fleet.rebuffer_s_total;
  let zero =
    Array.fold_left
      (fun a r -> if r.Client.rebuffer_s = 0.0 then a + 1 else a)
      0 results
  in
  close "zero-stall fraction" (float_of_int zero /. 16.0)
    report.Fleet.zero_rebuffer_fraction;
  if report.Fleet.qoe.Fleet.min > report.Fleet.qoe.Fleet.q50 then
    Alcotest.fail "summary min above median"

(* A 3-source capture that exercises every branch of the download
   walk: delays are non-integer and the default RTT is 2.4 slots, so
   positions are fractional; each row holds runs of zero-bandwidth
   cells; and 40 one-second chunks span twice the 600-slot row, so
   every client wraps. *)
let fixture_capture () =
  let slots = 600 and sources = 3 in
  let c = Trajectory.create ~slots ~sources ~slot_s:(1.0 /. 30.0) in
  for t = 0 to slots - 1 do
    let served =
      Array.init sources (fun i ->
          if (t + (11 * i)) mod 97 < 5 then 0.0
          else 1250.0 *. (1.0 +. (0.6 *. sin (float_of_int (t + (50 * i)) /. 31.0))))
    in
    let delays =
      Array.init sources (fun i -> 0.113 +. (0.37 *. float_of_int (t * (i + 3) mod 7)))
    in
    Trajectory.sink c ~slot:t ~served ~delays
  done;
  c

(* Bits captured from the row-per-client implementation this fixture
   guards: per policy, (client, qoe, startup_s, rebuffer_s) for a few
   clients, then the report's qoe and rebuffer_ratio means. Clients 17,
   21 and 26 join within one chunk of the row's end; 10, 13 and 17
   stall under [rate]. *)
let fleet_fixture_expected =
  [
    ( "bba",
      [
        (0, 0x3fc645a1cac08317L, 0x3fe408138cfb4e38L, 0x0L);
        (10, 0x3fc6a7ef9db22d13L, 0x3fdaad0f733e608bL, 0x0L);
        (13, 0x3fc42ccde15d0d66L, 0x3fea3ebcfbb7ce3cL, 0x3fbfde94fadfebb0L);
        (17, 0x3fc4ab2f49f7314eL, 0x3fe649dad09c52feL, 0x3fb6af511958d890L);
        (21, 0x3fc6a7ef9db22d13L, 0x3fe4bb476f519ac3L, 0x0L);
        (26, 0x3fc6a7ef9db22d13L, 0x3fe0470c47b62e5aL, 0x0L);
      ],
      0x3fc6684095a778f2L,
      0x3f259dca888e8ba7L );
    ( "rate",
      [
        (0, 0x3fbeb851eb851ebdL, 0x3fe408138cfb4e38L, 0x0L);
        (10, 0x3fa928d6a96dc66aL, 0x3fdaad0f733e608bL, 0x3fe517e273d209b2L);
        (13, 0x3fbb4b45bea18753L, 0x3fea3ebcfbb7ce3cL, 0x3fbfde94fadfebb0L);
        (17, 0x3fbb836ce9f27b2dL, 0x3fe649dad09c52feL, 0x3fb6af511958d890L);
        (21, 0x3fbdf3b645a1cac5L, 0x3fe4bb476f519ac3L, 0x0L);
        (26, 0x3fbdf3b645a1cac6L, 0x3fe0470c47b62e5aL, 0x0L);
      ],
      0x3fbd26e1e1728bf2L,
      0x3f535c872d0ecfe4L );
  ]

let test_fleet_fixture_bitwise () =
  let cap = fixture_capture () in
  let ladder = small_ladder () in
  let config = { Client.default with chunks = 40 } in
  let clients = 32 and seed = 25 in
  (* Client j joins at a draw from the j-th split of [rng] (see
     {!Fleet}); the fixture is only meaningful while some join within
     one 30-slot chunk of the row's end, so their first download
     wraps. *)
  let starts =
    Array.map
      (fun sub -> Rng.int_range sub 0 (cap.Trajectory.slots - 1))
      (Rng.split_n (Rng.create ~seed) clients)
  in
  List.iter
    (fun j ->
      if starts.(j) < cap.Trajectory.slots - 30 then
        Alcotest.failf "client %d joins at %d, not within a chunk of the end" j starts.(j))
    [ 17; 21; 26 ];
  let check l expected actual =
    if expected <> bits actual then
      Alcotest.failf "%s: expected %Lx, got %Lx (%.17g)" l expected (bits actual) actual
  in
  List.iter2
    (fun policy (name, per_client, qoe_mean, ratio_mean) ->
      let report, results =
        Fleet.run ~rng:(Rng.create ~seed) ~clients ~policy ~ladder ~trajectory:cap
          ~config ()
      in
      Alcotest.(check string) "policy" name report.Fleet.policy;
      List.iter
        (fun (j, qoe, startup, rebuffer) ->
          let r = results.(j) and l f = Printf.sprintf "%s client %d %s" name j f in
          check (l "qoe") qoe r.Client.qoe;
          check (l "startup_s") startup r.Client.startup_s;
          check (l "rebuffer_s") rebuffer r.Client.rebuffer_s)
        per_client;
      check (name ^ " qoe mean") qoe_mean report.Fleet.qoe.Fleet.mean;
      check (name ^ " rebuffer_ratio mean") ratio_mean
        report.Fleet.rebuffer_ratio.Fleet.mean)
    [ Policy.bba (); Policy.rate () ]
    fleet_fixture_expected

let test_fleet_invalid () =
  let cap = varied_capture 100 in
  let ladder = small_ladder () in
  raises_invalid "zero clients" (fun () ->
      Fleet.run ~rng:(Rng.create ~seed:1) ~clients:0 ~policy:(Policy.fixed 0)
        ~ladder ~trajectory:cap ());
  let unfilled = Trajectory.create ~slots:100 ~sources:1 ~slot_s:0.1 in
  raises_invalid "unfilled trajectory" (fun () ->
      Fleet.run ~rng:(Rng.create ~seed:1) ~clients:4 ~policy:(Policy.fixed 0)
        ~ladder ~trajectory:unfilled ());
  (* A bad row among good ones is refused, naming its source, before
     any client runs: sequentially, on a pool, and on the checkpoint
     lane, whose snapshot after client 0 (a good row) must not fire. *)
  let bad_row ~served ~delay =
    let c = Trajectory.create ~slots:100 ~sources:3 ~slot_s:0.1 in
    for t = 0 to 99 do
      Trajectory.sink c ~slot:t ~served:[| 5000.0; served; 5000.0 |]
        ~delays:[| 0.5; (if t = 40 then delay else 0.5); 0.5 |]
    done;
    c
  in
  let refused ~msg name f =
    match f () with
    | exception Invalid_argument m ->
      Alcotest.(check string) name ("Fleet.run: source 1: " ^ msg) m
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  let run ?pool ?checkpoint trajectory () =
    Fleet.run ?pool ~rng:(Rng.create ~seed:1) ~clients:6 ~policy:(Policy.fixed 0)
      ~ladder ~trajectory ~config:{ Client.default with chunks = 5 } ?checkpoint ()
  in
  let zero_row = bad_row ~served:0.0 ~delay:0.5 in
  let msg = "Client.link: bandwidth trace sums to zero" in
  refused ~msg "all-zero row" (run zero_row);
  let pool = Pool.create ~domains:2 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () -> refused ~msg "all-zero row, pooled" (run ~pool zero_row));
  let saves = ref 0 in
  let checkpoint = { Fleet.every = 1; save = (fun ~clients_done:_ _ -> incr saves) } in
  refused ~msg "all-zero row, checkpointed" (run ~checkpoint zero_row);
  Alcotest.(check int) "no client ran before the refusal" 0 !saves;
  refused ~msg:"Client.link: delay nan at slot 40 not finite and >= 0" "nan delay"
    (run (bad_row ~served:5000.0 ~delay:Float.nan))

(* ------------------------------------------------------------------ *)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "ss_abr"
    [
      ( "trajectory",
        [
          tc "sink transposes" test_trajectory_sink_transposes;
          tc "invalid" test_trajectory_invalid;
        ] );
      ( "ladder",
        [
          tc "of_trace scaling" test_ladder_of_trace_scaling;
          tc "of_traces" test_ladder_of_traces;
          tc "invalid" test_ladder_invalid;
          tc "level count boundary" test_ladder_level_boundary;
        ] );
      ( "policy",
        [
          tc "BBA thresholds" test_policy_bba_thresholds;
          tc "rate fitting" test_policy_rate_fitting;
          tc "fixed" test_policy_fixed;
        ] );
      ( "client",
        [
          tc "constant bandwidth, no stall" test_client_constant_bandwidth_no_stall;
          tc "slow link stalls" test_client_slow_link_stalls;
          tc "QoE decomposition" test_client_qoe_decomposition;
          tc "virtual delay adds latency" test_client_delay_adds_latency;
          tc "invalid" test_client_invalid;
          QCheck_alcotest.to_alcotest prop_client_wraps_past_trace_end;
        ] );
      ( "fleet",
        [
          tc "summarize quantiles" test_fleet_summarize_quantiles;
          tc "pool bit-identical" test_fleet_pool_bit_identical;
          tc "report consistency" test_fleet_report_consistency;
          tc "parent-captured fixture bitwise" test_fleet_fixture_bitwise;
          tc "invalid" test_fleet_invalid;
        ] );
    ]
