(* The five benchmark workloads. Each mirrors a run a user launches
   (or, for replay-wide, which has no CLI form, the public
   [Source.of_array] API it would call), split into a set-up phase and
   the timed run phase that follows it. *)

module Rng = Ss_stats.Rng
module Trace = Ss_video.Trace
module Scene = Ss_video.Scene_source
module Fit = Ss_core.Fit
module Model = Ss_core.Model
module Source = Ss_mux.Source
module Mux = Ss_mux.Mux
module Mux_is = Ss_mux.Mux_is
module Admission = Ss_mux.Admission
module Fault = Ss_mux.Fault
module Police = Ss_mux.Police
module Mc = Ss_queueing.Mc
module Likelihood = Ss_fastsim.Likelihood
module Twist = Ss_fastsim.Twist

type size = { slots : int; clients : int; replications : int }

type ctx = {
  trace_path : string;
  seed : int;
  dir : string;  (** working directory for checkpoint files *)
  size : size;
  tr : Tracer.t option;
}

type result = {
  ops : float;  (** units of work the run phase completed *)
  digest : unit -> string;  (** digest of everything the run reports *)
  cli_text : unit -> string list;  (** what the mirrored CLI prints for the same run *)
  verify : unit -> (string * bool) list;  (** output checks, run after timing *)
  layers : unit -> (string * float) list;  (** traced per-layer values *)
}

(* The [vbrsim] command a workload mirrors, and the reduced size the
   byte-for-byte parity check runs it at; [dir] is for files it writes. *)
type cli = {
  parity : size;
  args : trace:string -> seed:int -> dir:string -> size -> string list;
}

type t = {
  name : string;
  why : string;
  op : string;  (** what one unit of [ops] is *)
  full : size;
  smoke : size;
  cli : cli option;  (** [None]: no CLI form, the workload calls the library API *)
  prepare : ctx -> unit -> result;
      (** [prepare ctx] is the set-up phase; the closure it returns is
          the run phase *)
}

let digest_of v = Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))
let sec ns = float_of_int ns *. 1e-9
let span = Tracer.span

(* Every workload starts the way the CLI does: load the trace, fit
   the unified model. *)
let load_and_fit ctx =
  let trace = span ctx.tr "video.trace_load" (fun () -> Trace.load ctx.trace_path) in
  let model, _ = span ctx.tr "core.fit" (fun () -> Fit.fit ~max_lag:500 trace.Trace.sizes) in
  (trace, model)

let report_checks (r : Mux.report) =
  let conserved (s : Mux.source_report) =
    Float.abs (s.Mux.admitted +. s.Mux.lost -. s.Mux.offered)
    <= 1e-9 *. Float.max 1.0 s.Mux.offered
  in
  [
    ("mux.admitted_plus_lost_is_offered", Array.for_all conserved r.Mux.per_source);
    ("mux.loss_in_unit_interval", r.Mux.loss_fraction >= 0.0 && r.Mux.loss_fraction <= 1.0);
    ("mux.mean_queue_within_buffer", r.Mux.mean_queue <= r.Mux.buffer);
  ]

let pp_text pp v = Format.asprintf "%a" pp v

(* Engine self time of a traced [Mux.run]: the run span's self time
   (checkpoint saves are child spans) minus the pull and sink busy
   counters. *)
let engine_self_ns tr ~run ~pull ?(sink = "") () =
  Tracer.self_ns tr run - Tracer.counter_ns tr pull - Tracer.counter_ns tr sink

(* The highest percentile with at least ten samples beyond it. *)
let tail_latency name ms =
  match Bstats.tail_permille (List.length ms) with
  | Some p ->
    [ (Printf.sprintf "%s_p%g" name (float_of_int p /. 10.0), Bstats.percentile ms ~permille:p) ]
  | None -> []

let setup_layers tr =
  [
    ("video.trace_load_s", sec (Tracer.total_ns tr "video.trace_load"));
    ("core.fit_s", sec (Tracer.total_ns tr "core.fit"));
    ("mux.source.build_s", sec (Tracer.total_ns tr "mux.source.build"));
  ]

let pull_layers tr ~counter ~run_ns ~engine_ns ~source_slots =
  let c = Tracer.counter tr counter in
  let pull = float_of_int (Tracer.busy_ns c) and run = float_of_int run_ns in
  [
    ("mux.source.pull_ns_per_slot", pull /. float_of_int c.Tracer.slots);
    ("mux.source.pull_share", pull /. run);
    ("mux.engine.self_ns_per_slot", float_of_int engine_ns /. source_slots);
    ("mux.engine.share", float_of_int engine_ns /. run);
  ]

let when_traced tr f = match tr with None -> [] | Some t -> f t

(* The CLI's default overflow thresholds, in per-source means. *)
let cli_buffers = [ 10.0; 25.0; 50.0; 100.0; 150.0; 200.0; 250.0 ]

(* [n] Hosking model sources on generator [seed], split in the order
   [vbrsim] splits them; the generator is returned for the draws that
   follow. *)
let model_sources ~n ~order ~kernel ~seed model =
  let rng = Rng.create ~seed in
  let srcs =
    Array.init n (fun i ->
        Source.of_model ~name:(Printf.sprintf "src%02d" i) ~order ~backend:`Hosking ~kernel
          model (Rng.split rng))
  in
  (srcs, rng)

(* [vbrsim mux]'s admission step: utilization sets the service rate,
   the buffer is in per-source means, and each source is offered to
   the controller in turn. Returns the controller, the admitted
   sources, service, absolute buffer and overflow thresholds. *)
let admit ~utilization ~buffer_norm ~epsilon srcs =
  let per_mean = srcs.(0).Source.mean in
  let service = float_of_int (Array.length srcs) *. per_mean /. utilization in
  let buffer = buffer_norm *. per_mean in
  let cac = Admission.create ~service ~buffer ~epsilon in
  let admitted =
    List.filter
      (fun s ->
        match Admission.try_admit cac (Admission.descr_of_source s) with
        | Admission.Admit _ -> true
        | Admission.Reject _ -> false)
      (Array.to_list srcs)
  in
  (cac, Array.of_list admitted, service, buffer, List.map (fun b -> b *. per_mean) cli_buffers)

(* ------------------------------------------------------------------ *)

let synth_exact =
  let n = 32 and order = 512 and utilization = 0.8 and buffer_norm = 50.0 in
  let prepare ctx =
    let _, model = load_and_fit ctx in
    let slots = ctx.size.slots in
    let srcs, service, buffer, thresholds =
      span ctx.tr "mux.source.build" (fun () ->
          let srcs, _ = model_sources ~n ~order ~kernel:`Exact ~seed:ctx.seed model in
          (* epsilon 0.5 admits every source, as the CLI run does. *)
          let _, admitted, service, buffer, thresholds =
            admit ~utilization ~buffer_norm ~epsilon:0.5 srcs
          in
          (admitted, service, buffer, thresholds))
    in
    let admitted = Array.length srcs in
    let srcs = Tracer.wrap_sources ctx.tr "mux.source.pull" srcs in
    fun () ->
      let report =
        span ctx.tr "mux.run" (fun () -> Mux.run ~buffer ~thresholds ~service ~slots srcs)
      in
      let source_slots = float_of_int (admitted * slots) in
      {
        ops = source_slots;
        digest = (fun () -> digest_of report);
        cli_text = (fun () -> [ pp_text Mux.pp_report report ]);
        verify = (fun () -> ("synth.all_sources_admitted", admitted = n) :: report_checks report);
        layers =
          (fun () ->
            when_traced ctx.tr (fun tr ->
                let engine =
                  engine_self_ns tr ~run:"mux.run" ~pull:"mux.source.pull" ()
                in
                setup_layers tr
                @ pull_layers tr ~counter:"mux.source.pull"
                    ~run_ns:(Tracer.total_ns tr "mux.run") ~engine_ns:engine ~source_slots));
      }
  in
  {
    name = "synth-exact";
    why =
      "the paper's exact Hosking synthesis on the CLI default path; source pulls dominate, so \
       kernel and transform changes show here";
    op = "source-slot";
    full = { slots = 131_072; clients = 0; replications = 0 };
    smoke = { slots = 2048; clients = 0; replications = 0 };
    cli =
      Some
        {
          parity = { slots = 8192; clients = 0; replications = 0 };
          args =
            (fun ~trace ~seed ~dir:_ s ->
              [
                "mux"; trace; "--sources"; string_of_int n; "--order"; string_of_int order;
                "--slots"; string_of_int s.slots; "--buffer"; "50"; "--utilization"; "0.8";
                "--epsilon"; "0.5"; "--seed"; string_of_int seed; "--domains"; "1";
              ]);
        };
    prepare;
  }

(* ------------------------------------------------------------------ *)

(* [n] cycling replays of [seg]-frame trace segments at offsets drawn
   from seed [seed + 1], each declaring the fitted H. *)
let replay_sources ~n ~seg ~seed (trace : Trace.t) (model : Model.t) =
  let rng = Rng.create ~seed:(seed + 1) in
  let len = Array.length trace.Trace.sizes in
  Array.init n (fun i ->
      let off = Rng.int_range rng 0 (len - seg) in
      Source.of_array ~name:(Printf.sprintf "r%04d" i) ~hurst:model.Model.hurst ~cycle:true
        (Array.sub trace.Trace.sizes off seg))

let mean_sum srcs = Array.fold_left (fun acc s -> acc +. s.Source.mean) 0.0 srcs

let replay_wide =
  let n = 4096 and seg = 256 in
  let prepare ctx =
    let trace, model = load_and_fit ctx in
    let slots = ctx.size.slots in
    let srcs =
      span ctx.tr "mux.source.build" (fun () -> replay_sources ~n ~seg ~seed:ctx.seed trace model)
    in
    let total = mean_sum srcs in
    let service = total /. 0.99 and buffer = 0.5 *. total in
    let srcs = Tracer.wrap_sources ctx.tr "mux.source.pull" srcs in
    fun () ->
      let report = span ctx.tr "mux.run" (fun () -> Mux.run ~buffer ~service ~slots srcs) in
      let source_slots = float_of_int (n * slots) in
      {
        ops = source_slots;
        digest = (fun () -> digest_of report);
        cli_text = (fun () -> []);
        verify = (fun () -> report_checks report);
        layers =
          (fun () ->
            when_traced ctx.tr (fun tr ->
                let engine =
                  engine_self_ns tr ~run:"mux.run" ~pull:"mux.source.pull" ()
                in
                setup_layers tr
                @ pull_layers tr ~counter:"mux.source.pull"
                    ~run_ns:(Tracer.total_ns tr "mux.run") ~engine_ns:engine ~source_slots));
      }
  in
  {
    name = "replay-wide";
    why =
      "trace-driven multiplexing of 4096 sources, each replaying a 256-frame segment; staging, \
       transpose and accounting dominate, so engine changes show here";
    op = "source-slot";
    full = { slots = 32_768; clients = 0; replications = 0 };
    smoke = { slots = 384; clients = 0; replications = 0 };
    cli = None;
    prepare;
  }

(* ------------------------------------------------------------------ *)

let robust_ckpt =
  let n = 64 and order = 16 and utilization = 0.8 and buffer_norm = 50.0 and every = 1024 in
  let kind = "benchmark-robust-ckpt" in
  (* Source 0 drifts to 3x from 1/8 of the run. *)
  let fault_spec slots =
    Printf.sprintf "*:burst@0.002+40x2.5;0:drift@%d+%dx3.0;7:corrupt@0.001" (slots / 8)
      (Stdlib.max 1 (slots / 128))
  in
  let prepare ctx =
    let _, model = load_and_fit ctx in
    let slots = ctx.size.slots in
    let faults = Fault.parse (fault_spec slots) in
    (* As [vbrsim mux --faults --police] builds it: model sources, the
       fault wrapper, admission, and a policer that renegotiates with
       the admission controller. [inner] counts the model pulls,
       [outer] the same pulls through the fault wrapper. *)
    let build ~inner ~outer tr =
      let raw, rng = model_sources ~n ~order ~kernel:`Exact ~seed:ctx.seed model in
      let srcs = Fault.wrap_all ~rng:(Rng.split rng) faults (Tracer.wrap_sources tr inner raw) in
      let cac, admitted, service, buffer, thresholds =
        admit ~utilization ~buffer_norm ~epsilon:0.5 (Tracer.wrap_sources tr outer srcs)
      in
      let police = Police.create ~cac (Array.map Admission.descr_of_source admitted) in
      (admitted, police, service, buffer, thresholds)
    in
    let srcs, police, service, buffer, thresholds =
      span ctx.tr "mux.source.build" (fun () ->
          build ~inner:"mux.source.pull" ~outer:"mux.fault.pull" ctx.tr)
    in
    let path = Filename.concat ctx.dir "robust.ckpt" in
    let snapshots = ref 0 in
    let checkpoint ?(save = "checkpoint.save") path =
      {
        Mux.every;
        save =
          (fun ~slot:_ fill ->
            span ctx.tr save (fun () ->
                Ss_checkpoint.to_file ~path ~kind ~meta:"" (fun w ->
                    span ctx.tr "checkpoint.serialize" (fun () -> fill w)));
            incr snapshots);
      }
    in
    let mux_run ?police ?checkpoint ?resume srcs =
      Mux.run ?police ?checkpoint ?resume ~buffer ~thresholds ~service ~slots srcs
    in
    let source_slots = float_of_int (Array.length srcs * slots) in
    fun () ->
      let report =
        span ctx.tr "mux.run" (fun () -> mux_run ~police ~checkpoint:(checkpoint path) srcs)
      in
      let snaps = !snapshots and incidents = Police.incidents police in
      {
        ops = source_slots;
        digest = (fun () -> digest_of (report, incidents));
        cli_text =
          (fun () ->
            [
              pp_text Mux.pp_report report;
              (if incidents = [] then "police: no incidents\n"
               else
                 Format.asprintf "police incidents (%d):@.%a" (List.length incidents)
                   (fun ppf -> List.iter (Format.fprintf ppf "  %a@." Police.pp_incident))
                   incidents);
            ]);
        verify =
          (fun () ->
            let resumed, resumed_incidents =
              let srcs, police, _, _, _ = build ~inner:"" ~outer:"" None in
              let _, r = Ss_checkpoint.of_file ~path ~kind in
              let report = mux_run ~police ~resume:r srcs in
              (report, Police.incidents police)
            in
            report_checks report
            @ [
                ("robust.all_sources_admitted", Array.length srcs = n);
                ( "robust.resume_equals_uninterrupted",
                  Mux.equal_report resumed report && compare resumed_incidents incidents = 0 );
                ("robust.police_incidents", incidents <> []);
                ("robust.snapshots_taken", snaps > 0);
                ("robust.corrupt_slots_seen", report.Mux.per_source.(7).Mux.corrupt_slots > 0);
              ]);
        layers =
          (fun () ->
            when_traced ctx.tr (fun tr ->
                let run_ns = Tracer.total_ns tr "mux.run" in
                let run = float_of_int run_ns in
                let policed =
                  engine_self_ns tr ~run:"mux.run" ~pull:"mux.fault.pull" ()
                in
                let inner = Tracer.counter_ns tr "mux.source.pull"
                and outer = Tracer.counter_ns tr "mux.fault.pull" in
                let saves = Tracer.durations_ms tr "checkpoint.save" in
                (* Serialization is timed inside the [fill] handed to
                   [to_file]; the rest of a save is encode, CRC, write
                   and rename. *)
                let serialize = Tracer.durations_ms tr "checkpoint.serialize" in
                let ckpt =
                  [
                    ("checkpoint.share", float_of_int (Tracer.total_ns tr "checkpoint.save") /. run);
                    ("checkpoint.snapshots", float_of_int snaps);
                    ( "checkpoint.bytes_per_snapshot",
                      float_of_int (Unix.stat path).Unix.st_size );
                    ("checkpoint.serialize_ms_p50", Bstats.percentile serialize ~permille:500);
                    ( "checkpoint.write_ms_p50",
                      Bstats.percentile (List.map2 ( -. ) saves serialize) ~permille:500 );
                  ]
                  @ tail_latency "checkpoint.save_ms" saves
                in
                (* The same run without the policer: the difference in
                   engine self time is the policing cost. *)
                let srcs, _, _, _, _ =
                  build ~inner:"nopolice.source.pull" ~outer:"nopolice.fault.pull" ctx.tr
                in
                span ctx.tr "nopolice.mux.run" (fun () ->
                    ignore
                      (mux_run
                         ~checkpoint:(checkpoint ~save:"nopolice.checkpoint.save" (path ^ ".np"))
                         srcs));
                let engine =
                  engine_self_ns tr ~run:"nopolice.mux.run" ~pull:"nopolice.fault.pull" ()
                in
                setup_layers tr
                @ pull_layers tr ~counter:"mux.source.pull" ~run_ns ~engine_ns:engine
                    ~source_slots
                @ [
                    ("mux.fault.share", float_of_int (outer - inner) /. run);
                    ("mux.police.share", float_of_int (policed - engine) /. run);
                    ("mux.police.incidents", float_of_int (List.length incidents));
                  ]
                @ ckpt));
      }
  in
  {
    name = "robust-ckpt";
    why =
      "vbrsim mux with fault injection, policing and a snapshot every 1024 slots, so it writes \
       state while it reads traffic";
    op = "source-slot";
    full = { slots = 81_920; clients = 0; replications = 0 };
    smoke = { slots = 4096; clients = 0; replications = 0 };
    cli =
      Some
        {
          parity = { slots = 8192; clients = 0; replications = 0 };
          args =
            (fun ~trace ~seed ~dir s ->
              [
                "mux"; trace; "--sources"; string_of_int n; "--order"; string_of_int order;
                "--slots"; string_of_int s.slots; "--buffer"; "50"; "--utilization"; "0.8";
                "--epsilon"; "0.5"; "--faults"; fault_spec s.slots; "--police";
                "--checkpoint-every"; string_of_int every; "--checkpoint-file";
                Filename.concat dir "cli.ckpt"; "--seed"; string_of_int seed; "--domains"; "1";
              ]);
        };
    prepare;
  }

(* ------------------------------------------------------------------ *)

let abr_fft =
  let n = 64 and order = 2048 and utilization = 0.7 and chunks = 120 and chunk_frames = 30 in
  let levels = [ 0.3; 0.55; 1.0; 1.8; 3.0 ] in
  (* The CLI's ladder: equal-seed Scene_source rungs calibrated so the
     1.0 rung's rate matches the per-source mean rate. *)
  let make_ladder ~seed (trace : Trace.t) (model : Model.t) =
    let base =
      {
        Scene.default with
        frames = Stdlib.max (chunk_frames * 96) 2048;
        fps = trace.Trace.fps;
        hurst = Stdlib.min 0.95 (Stdlib.max 0.55 model.Model.hurst);
      }
    in
    let cal = Scene.generate base (Rng.create ~seed:(seed + 1)) in
    let scale = model.Model.mean /. Ss_stats.Descriptive.mean cal.Trace.sizes in
    let cfgs =
      Scene.ladder ~levels { base with mean_i_bytes = base.Scene.mean_i_bytes *. scale }
    in
    Ss_abr.Ladder.of_traces ~chunk_frames
      (List.map (fun c -> Scene.generate c (Rng.create ~seed:(seed + 1))) cfgs)
  in
  let prepare ctx =
    let trace, model = load_and_fit ctx in
    let slots = ctx.size.slots and clients = ctx.size.clients in
    let srcs, rng =
      span ctx.tr "mux.source.build" (fun () ->
          model_sources ~n ~order ~kernel:`Fft ~seed:ctx.seed model)
    in
    let per_mean = srcs.(0).Source.mean in
    let service = float_of_int n *. per_mean /. utilization in
    let ladder = span ctx.tr "abr.ladder" (fun () -> make_ladder ~seed:ctx.seed trace model) in
    let capture =
      Ss_abr.Trajectory.create ~slots ~sources:n ~slot_s:(1.0 /. trace.Trace.fps)
    in
    let config = { Ss_abr.Client.default with chunks; max_buffer_s = 25.0 } in
    let srcs = Tracer.wrap_sources ctx.tr "mux.source.pull" srcs in
    let sink = Tracer.wrap_sink ctx.tr "abr.trajectory.sink" (Ss_abr.Trajectory.sink capture) in
    fun () ->
      let report =
        span ctx.tr "mux.run" (fun () -> Mux.run ~trajectory:sink ~service ~slots srcs)
      in
      (* Each policy's fleet re-reads the same generator state, as the
         CLI does, so the two fleets are paired. *)
      let fleets =
        List.map
          (fun policy ->
            span ctx.tr "abr.fleet" (fun () ->
                fst
                  (Ss_abr.Fleet.run ~rng:(Rng.copy rng) ~clients ~policy ~ladder
                     ~trajectory:capture ~config ())))
          [ Ss_abr.Policy.bba (); Ss_abr.Policy.rate () ]
      in
      let chunks_done = float_of_int (List.length fleets * clients * chunks) in
      {
        ops = chunks_done;
        digest = (fun () -> digest_of (report, fleets));
        cli_text =
          (fun () ->
            Format.asprintf
              "# mux: %d sources, utilization %.2f, service %.1f B/slot, mean queue %.1f B@." n
              utilization service report.Mux.mean_queue
            :: List.map (pp_text Ss_abr.Fleet.pp_report) fleets);
        verify =
          (fun () ->
            report_checks report
            @ [
                ("abr.trajectory_filled", capture.Ss_abr.Trajectory.filled = slots);
                ( "abr.fleet_reports",
                  List.for_all
                    (fun (f : Ss_abr.Fleet.report) ->
                      f.Ss_abr.Fleet.clients = clients
                      && Float.is_finite f.Ss_abr.Fleet.qoe.Ss_abr.Fleet.mean
                      && f.Ss_abr.Fleet.rebuffer_ratio.Ss_abr.Fleet.max <= 1.0)
                    fleets );
              ]);
        layers =
          (fun () ->
            when_traced ctx.tr (fun tr ->
                let mux_ns = Tracer.total_ns tr "mux.run" in
                let fleet_ns = Tracer.total_ns tr "abr.fleet" in
                let run = float_of_int (mux_ns + fleet_ns) in
                let engine =
                  engine_self_ns tr ~run:"mux.run" ~pull:"mux.source.pull"
                    ~sink:"abr.trajectory.sink" ()
                in
                setup_layers tr
                @ pull_layers tr ~counter:"mux.source.pull" ~run_ns:(mux_ns + fleet_ns)
                    ~engine_ns:engine
                    ~source_slots:(float_of_int (n * slots))
                @ [
                    ( "abr.trajectory.share",
                      float_of_int (Tracer.counter_ns tr "abr.trajectory.sink") /. run );
                    ("abr.fleet.share", float_of_int fleet_ns /. run);
                    ("abr.ladder_s", sec (Tracer.total_ns tr "abr.ladder"));
                    ("abr.fleet.us_per_chunk", float_of_int fleet_ns *. 1e-3 /. chunks_done);
                    ( "abr.trajectory.sink_ns_per_slot",
                      float_of_int (Tracer.counter_ns tr "abr.trajectory.sink")
                      /. float_of_int slots );
                  ]));
      }
  in
  {
    name = "abr-fft";
    why =
      "the user-facing QoE pipeline: fft-kernel synthesis, trajectory export and two client \
       fleets; the only workload on the fft tier";
    op = "client-chunk";
    full = { slots = 32_768; clients = 4096; replications = 0 };
    smoke = { slots = 1024; clients = 64; replications = 0 };
    cli =
      Some
        {
          parity = { slots = 8192; clients = 256; replications = 0 };
          args =
            (fun ~trace ~seed ~dir:_ s ->
              [
                "abr"; trace; "--sources"; string_of_int n; "--order"; string_of_int order;
                "--kernel"; "fft"; "--slots"; string_of_int s.slots; "--clients";
                string_of_int s.clients; "--utilization"; "0.7"; "--seed"; string_of_int seed;
                "--domains"; "1";
              ]);
        };
    prepare;
  }

(* ------------------------------------------------------------------ *)

let is_overflow =
  let sources = 16 and order = 256 and utilization = 0.7 and buffer_norm = 800.0 in
  let horizon = 500 and twist = 0.7512 in
  let prepare ctx =
    let _, model = load_and_fit ctx in
    let replications = ctx.size.replications in
    let per_mean = model.Model.mean in
    let service = float_of_int sources *. per_mean /. utilization in
    let cfg =
      span ctx.tr "mux.source.build" (fun () ->
          Mux_is.make_config ~model ~sources ~order ~backend:`Hosking ~service
            ~buffer:(buffer_norm *. per_mean) ~slots:horizon ~twist ())
    in
    let rng = Rng.create ~seed:ctx.seed in
    (* The traced run calls [Mux_is.replicate] once per replication on
       the substreams [Mux_is.estimate] splits, so its estimate is the
       untraced one. *)
    let replicate_all tr =
      Array.map
        (fun sub ->
          let again = Rng.copy sub in
          (span (Some tr) "mux_is.replicate" (fun () -> Mux_is.replicate cfg sub), again))
        (Rng.split_n rng replications)
    in
    (* The pulls one replication made, without the mux: the same
       twisted sources and likelihood streams, stopped at the same
       slot. *)
    let pull_only (r : Mux_is.replication) sub =
      let srcs =
        Array.mapi
          (fun i plan ->
            let lik = Likelihood.stream_of_plan plan in
            Source.of_model_twisted ~name:(Printf.sprintf "is%d" i) ~order
              ~shift:(Twist.shift (Likelihood.plan_profile plan))
              ~probe:(fun ~k ~innovation -> Likelihood.stream_step lik ~k ~innovation)
              cfg.Mux_is.model (Rng.split sub))
          cfg.Mux_is.plans
      in
      let w = [| 0.0 |] and cl = [| 0 |] in
      for _ = 1 to r.Mux_is.stop_slot do
        Array.iter (fun s -> ignore (Source.next_block s w cl ~off:0 ~len:1)) srcs
      done
    in
    (* Engine time is a replication minus its pulls. The mux is a few
       percent of a replication here, so each replication is timed
       again right next to its pull-only replay, where host drift
       cancels. *)
    let differential tr reps =
      let c = Tracer.counter tr "mux.source.pull" in
      Array.iter
        (fun ((r : Mux_is.replication), sub) ->
          span (Some tr) "differential.replicate" (fun () ->
              ignore (Mux_is.replicate cfg (Rng.copy sub)));
          let t0 = Tracer.now_ns () in
          pull_only r (Rng.copy sub);
          let slots = sources * r.Mux_is.stop_slot in
          Tracer.record c ~t0 ~slots;
          c.Tracer.slots <- c.Tracer.slots + slots)
        reps
    in
    fun () ->
      let estimate, reps =
        match ctx.tr with
        | None -> (Mux_is.estimate cfg ~replications rng, [||])
        | Some tr ->
          let reps = replicate_all tr in
          ( Mc.estimate_of_log_samples
              (Array.map (fun ((r : Mux_is.replication), _) -> r.Mux_is.log_weight) reps),
            reps )
      in
      {
        ops = float_of_int replications;
        digest = (fun () -> digest_of estimate);
        cli_text =
          (fun () ->
            [
              Format.asprintf "uti=%.2f N=%d b=%.0f (per-source mean units) k=%d m*=%.3f@."
                utilization sources buffer_norm horizon twist;
              Format.asprintf "%a@." Ss_core.Report.pp_estimate estimate;
            ]);
        verify =
          (fun () ->
            [
              ("is.hits", estimate.Mc.hits >= 1 && estimate.Mc.hits * 150 >= replications);
              ("is.p_in_unit_interval", estimate.Mc.p > 0.0 && estimate.Mc.p <= 1.0);
              ( "is.normalized_variance_finite",
                Float.is_finite estimate.Mc.normalized_variance );
            ]);
        layers =
          (fun () ->
            when_traced ctx.tr (fun tr ->
                differential tr reps;
                let run_ns = Tracer.total_ns tr "differential.replicate" in
                let pulled = Tracer.counter tr "mux.source.pull" in
                let stops =
                  Array.fold_left
                    (fun acc ((r : Mux_is.replication), _) -> acc + r.Mux_is.stop_slot)
                    0 reps
                in
                let ms = Tracer.durations_ms tr "mux_is.replicate" in
                setup_layers tr
                @ pull_layers tr ~counter:"mux.source.pull" ~run_ns
                    ~engine_ns:(run_ns - Tracer.busy_ns pulled)
                    ~source_slots:(float_of_int pulled.Tracer.slots)
                @ [
                    ( "mux_is.hit_ratio",
                      float_of_int estimate.Mc.hits /. float_of_int replications );
                    ("mux_is.normalized_variance", estimate.Mc.normalized_variance);
                    ( "mux_is.slots_per_replication",
                      float_of_int stops /. float_of_int replications );
                    ("mux_is.replicate_ms_p50", Bstats.percentile ms ~permille:500);
                  ]
                @ tail_latency "mux_is.replicate_ms" ms));
      }
  in
  {
    name = "is-overflow";
    why =
      "the paper's importance-sampled overflow estimate on its own path (twisted scalar pulls, \
       streaming likelihood, lock-step engine); block-kernel and sharded-engine changes bypass it";
    op = "replication";
    full = { slots = 0; clients = 0; replications = 500 };
    smoke = { slots = 0; clients = 0; replications = 8 };
    cli =
      Some
        {
          parity = { slots = 0; clients = 0; replications = 50 };
          args =
            (fun ~trace ~seed ~dir:_ s ->
              [
                "mux"; trace; "--is"; "--sources"; string_of_int sources; "--order";
                string_of_int order; "--buffer"; "800"; "--utilization"; "0.7"; "--twist";
                "0.7512"; "--horizon"; string_of_int horizon; "--replications";
                string_of_int s.replications; "--seed"; string_of_int seed; "--domains"; "1";
              ]);
        };
    prepare;
  }

let all = [ synth_exact; replay_wide; robust_ckpt; abr_fft; is_overflow ]

let find name =
  match List.find_opt (fun w -> w.name = name) all with
  | Some w -> w
  | None ->
    invalid_arg
      (Printf.sprintf "unknown workload %S (expected one of: %s)" name
         (String.concat ", " (List.map (fun w -> w.name) all)))

(* The generated input every run of one seed shares: the CLI's
   [vbrsim synth] defaults on generator [seed]. About one trace in a
   hundred fits a background autocorrelation that is not positive
   definite within the largest order a workload uses, which the
   program rightly refuses; the generator then draws the next trace,
   so the input stays a function of the seed. *)
let make_trace ~seed path =
  let rng = Rng.create ~seed in
  let rec accepted () =
    let trace = Scene.generate Scene.default rng in
    let model, _ = Fit.fit ~max_lag:500 trace.Trace.sizes in
    match Source.table_for ~acf:(Model.background_acf model) ~order:2048 with
    | _ -> trace
    | exception Invalid_argument _ -> accepted ()
  in
  Trace.save (accepted ()) path
