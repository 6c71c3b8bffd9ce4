(* vbrsim: command-line front end to the self-similar VBR video
   modeling library.

   Subcommands mirror the paper's workflow: synthesize a reference
   trace (synth), inspect it (summary, hurst), fit the unified model
   (fit), generate synthetic traffic from a fitted model (generate,
   mpeg), and evaluate queueing behaviour (queue, fastsim). *)

module Rng = Ss_stats.Rng
module D = Ss_stats.Descriptive
module Hurst = Ss_fractal.Hurst
module Trace = Ss_video.Trace
module Gop = Ss_video.Gop
module Scene = Ss_video.Scene_source
module Mc = Ss_queueing.Mc
module Trace_sim = Ss_queueing.Trace_sim
module Is = Ss_fastsim.Is_estimator
module Valley = Ss_fastsim.Valley
module Model = Ss_core.Model
module Pool = Ss_parallel.Pool
module Fit = Ss_core.Fit
module Generate = Ss_core.Generate
module Mpeg = Ss_core.Mpeg
module Report = Ss_core.Report

open Cmdliner

(* --- common arguments --- *)

let trace_arg =
  let doc = "Input trace file (one frame size per line, '#'-metadata header)." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE" ~doc)

let output_arg =
  let doc = "Output trace file." in
  Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let seed_arg =
  let doc = "Random seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"INT" ~doc)

let frames_arg ~default =
  let doc = "Number of frames." in
  Arg.(value & opt int default & info [ "frames" ] ~docv:"INT" ~doc)

let max_lag_arg =
  let doc = "Largest autocorrelation lag used by the fit." in
  Arg.(value & opt int 500 & info [ "max-lag" ] ~docv:"INT" ~doc)

(* A float flag that refuses values failing [ok] at parse time: NaN
   passes every unguarded bound test downstream. *)
let float_where ~expected ok =
  let parse s =
    match Arg.conv_parser Arg.float s with
    | Ok v when not (ok v) -> Error (`Msg (Printf.sprintf "%S is not %s" s expected))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer Arg.float)

(* An int flag that refuses values below 1 at parse time. *)
let positive_int =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok v when v <= 0 -> Error (`Msg (Printf.sprintf "%S is not an integer > 0" s))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer Arg.int)

(* A comma-separated list flag, refused at parse time by entry. The
   value keeps the text as given (the checkpoint fingerprint quotes it)
   beside the parsed entries, which [check] then sees as a whole. *)
let list_arg ~entry ~expected ~check ~default names ~docv ~doc =
  let parse s =
    let rec go acc = function
      | [] -> (
        let l = List.rev acc in
        match check l with
        | Ok () -> Ok (s, l)
        | Error m -> Error (`Msg (Printf.sprintf "%S %s" s m)))
      | x :: rest -> (
        match entry x with
        | Some v -> go (v :: acc) rest
        | None -> Error (`Msg (Printf.sprintf "entry %S of %S is not %s" x s expected)))
    in
    String.split_on_char ',' s |> List.map String.trim
    |> List.filter (fun x -> x <> "")
    |> go []
  in
  let print ppf (s, _) = Format.pp_print_string ppf s in
  let default = match parse default with Ok v -> v | Error _ -> assert false in
  Arg.(value & opt (conv (parse, print)) default & info names ~docv ~doc)

(* [--twist]: a finite background mean shift m*, or one of the search
   [keywords] (name, value). Anything else is refused at parse time: a
   NaN twist turns every slot's work into NaN, which the engine zeroes
   as corrupt, so the estimate would read p = 0 without an error. *)
let twist_arg ~keywords ~doc =
  let names = List.map fst keywords in
  let parse s =
    match List.assoc_opt s keywords with
    | Some k -> Ok k
    | None -> (
      match float_of_string_opt s with
      | Some v when Float.is_finite v -> Ok (`Value v)
      | _ ->
        let rec alternatives = function
          | [] -> ""
          | [ x ] -> " or '" ^ x ^ "'"
          | x :: rest -> ", '" ^ x ^ "'" ^ alternatives rest
        in
        Error (`Msg (Printf.sprintf "%S is not a finite number%s" s (alternatives names))))
  in
  let print ppf = function
    | `Value v -> Format.pp_print_float ppf v
    | k -> Format.pp_print_string ppf (fst (List.find (fun (_, k') -> k' = k) keywords))
  in
  let docv = String.concat "|" ("FLOAT" :: names) in
  Arg.(value & opt (some (conv (parse, print))) None & info [ "twist"; "m" ] ~docv ~doc)

let utilization_arg =
  let doc = "Link utilization in (0,1)." in
  let below_one = float_where ~expected:"a number in (0, 1)" (fun u -> u > 0.0 && u < 1.0) in
  Arg.(value & opt below_one 0.6 & info [ "utilization"; "u" ] ~docv:"FLOAT" ~doc)

let replications_arg =
  let doc = "Independent replications per estimate." in
  Arg.(value & opt int 300 & info [ "replications"; "n" ] ~docv:"INT" ~doc)

let domains_arg =
  let doc =
    "Domains (cores) for the parallel execution layer; estimates are bit-identical for any \
     value. Defaults to $(b,SS_DOMAINS) or 1 (sequential)."
  in
  Arg.(value & opt int (Pool.env_domains ()) & info [ "domains" ] ~docv:"INT" ~doc)

let shards_arg =
  let doc =
    "Source shards for the multiplexer's staging layer (contiguous shards of sources, \
     advanced block-wise and synchronized at a coarse per-block barrier). Reports are \
     bit-identical for any value. Defaults to the pool size ($(b,--domains))."
  in
  Arg.(value & opt (some int) None & info [ "shards" ] ~docv:"INT" ~doc)

let backend_arg =
  let doc =
    "Background synthesis backend for model sources: $(b,hosking) streams the truncated \
     Durbin-Levinson recursion (open-ended, O(order) memory); $(b,davies-harte) (or \
     $(b,dh)) synthesizes the whole fixed horizon at every lag in O(n log n) by circulant \
     embedding, and refuses a model whose embedding is not nonnegative definite at that \
     horizon (in mux and abr, unless $(b,--allow-clipping)). Davies-Harte is incompatible \
     with importance sampling ($(b,--is), nonzero $(b,--twist)), which needs per-step \
     innovations."
  in
  Arg.(value & opt string "hosking" & info [ "backend" ] ~docv:"hosking|davies-harte" ~doc)

(* Backends and kernels are parsed inside [wrap], so a bad or removed
   name exits 1 with a message naming the replacement, not with a
   cmdliner usage error. *)
let parse_backend = function
  | "hosking" -> `Hosking
  | "davies-harte" | "dh" -> `Davies_harte
  | "paxson" ->
    invalid_arg
      "backend paxson was removed: it was Davies-Harte with clipping; use --backend \
       davies-harte (in mux and abr, with --allow-clipping for a model that is not \
       embeddable)"
  | s -> invalid_arg (Printf.sprintf "bad backend %S (expected hosking or davies-harte)" s)

(* The spelling checkpoint meta records, so runs started with [dh] and
   [davies-harte] resume each other. *)
let backend_name = function `Hosking -> "hosking" | `Davies_harte -> "davies-harte"

let kernel_arg =
  let doc =
    "Streaming-synthesis kernel for model sources: $(b,exact) keeps sample paths bitwise \
     reproducible against the committed fixtures; $(b,fft) runs the overlap-save FFT block \
     kernel, computing the frozen AR filter's long-lag contribution spectrally per \
     128-slot block — amortized sublinear in $(b,--order) per slot, largest win at high \
     orders. fft reassociates the AR sums and uses an erf-free normal CDF (absolute error \
     < 7.5e-8), so it is statistically gated but seed-incompatible with exact. Refused \
     with $(b,--is)."
  in
  Arg.(value & opt string "exact" & info [ "kernel" ] ~docv:"exact|fft" ~doc)

let parse_kernel = function
  | "exact" -> `Exact
  | "fft" -> `Fft
  | "relaxed" ->
    invalid_arg
      "kernel relaxed was removed: use --kernel fft, which emits the same stream at --order \
       <= 128 and is faster above it"
  | s -> invalid_arg (Printf.sprintf "bad kernel %S (expected exact or fft)" s)

let kernel_name = function `Exact -> "exact" | `Fft -> "fft"

let allow_clipping_arg =
  let doc =
    "With $(b,--backend davies-harte): clip the negative circulant eigenvalues of a model \
     that is not embeddable at this horizon instead of refusing it. The path then only \
     approximates the model's autocorrelation; the covariance error is bounded by the \
     clipped share of the spectral mass."
  in
  Arg.(value & flag & info [ "allow-clipping" ] ~doc)

(* Model-source synthesis settings shared by mux and abr. *)
type synthesis = {
  backend : Ss_mux.Source.backend;
  kernel : Ss_mux.Source.kernel;
  allow_clipping : bool;
}

(* A thunk, forced inside [wrap] (see [parse_backend]). *)
let synthesis_term =
  let parse backend kernel allow_clipping () =
    { backend = parse_backend backend; kernel = parse_kernel kernel; allow_clipping }
  in
  Term.(const parse $ backend_arg $ kernel_arg $ allow_clipping_arg)

let faults_arg =
  let doc =
    "Fault-injection spec for the mux sources: semicolon-separated $(i,target:events) \
     groups with target $(b,*) or a source index, events drift@START+RAMPxFACTOR, \
     burst@RATE+LENxAMP, stall@START+LEN, dropout@RATE+LEN, corrupt@RATE, mean=V, \
     sigma2=V, hurst=V. Example: '0:drift@10000+1000x4.0;*:corrupt@0.001'."
  in
  Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"SPEC" ~doc)

(* [sources] model sources for mux and abr: one [Rng.split] of [rng]
   per source in index order, then one more for the fault wrapper —
   the order every fixture and snapshot depends on. A Davies–Harte
   background synthesizes exactly the simulated [slots]. Zero-fault
   runs never enter the wrapper, so they stay bit-identical to the
   pre-fault-injection code path. *)
let build_sources syn ~order ~slots ~sources ~faults rng model =
  let horizon = match syn.backend with `Hosking -> None | `Davies_harte -> Some slots in
  let { backend; kernel; allow_clipping } = syn in
  let mk i rng =
    let name = Printf.sprintf "src%02d" i in
    match model with
    | `Model m ->
      Ss_mux.Source.of_model ~name ~order ~backend ~kernel ~allow_clipping ?horizon m rng
    | `Mpeg (m, priority) ->
      Ss_mux.Source.of_mpeg ~name ~order ~backend ~kernel ~allow_clipping ?horizon
        ~phase:(i mod Gop.length m.Mpeg.gop)
        ~priority m rng
  in
  let srcs = Array.init sources (fun i -> mk i (Rng.split rng)) in
  match faults with
  | None -> srcs
  | Some spec -> Ss_mux.Fault.wrap_all ~rng:(Rng.split rng) (Ss_mux.Fault.parse spec) srcs

let csv_arg =
  let doc =
    "Also write the overflow curve as CSV rows '(buffer, overflow)' to $(docv) (normalized \
     buffer units; '#'-prefixed header), for the plots/ scripts."
  in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)

let write_overflow_csv ?(class_delays = []) ?trajectory path rows =
  let oc = open_out path in
  output_string oc "# buffer,overflow\n";
  List.iter (fun (b, p) -> Printf.fprintf oc "%g,%g\n" b p) rows;
  if class_delays <> [] then begin
    output_string oc "# class,quantile,delay_slots\n";
    List.iter
      (fun (c, qs) -> List.iter (fun (p, d) -> Printf.fprintf oc "%d,%g,%g\n" c p d) qs)
      class_delays
  end;
  (match trajectory with
  | None -> ()
  | Some tr ->
    output_string oc "# trajectory: slot,source,served,delay_slots\n";
    for t = 0 to tr.Ss_abr.Trajectory.filled - 1 do
      for i = 0 to tr.Ss_abr.Trajectory.sources - 1 do
        Printf.fprintf oc "%d,%d,%g,%g\n" t i
          tr.Ss_abr.Trajectory.served.(i).(t)
          tr.Ss_abr.Trajectory.delays.(i).(t)
      done
    done);
  close_out oc;
  Format.printf "wrote overflow curve to %s@." path

let wrap f =
  try
    f ();
    0
  with
  | Invalid_argument msg | Failure msg ->
    Printf.eprintf "vbrsim: %s\n" msg;
    1
  | Sys_error msg ->
    Printf.eprintf "vbrsim: %s\n" msg;
    1
  | Ss_checkpoint.Corrupt msg ->
    Printf.eprintf "vbrsim: corrupt or mismatched checkpoint: %s\n" msg;
    1

(* --- checkpoint/resume plumbing (mux and abr) --- *)

type checkpointing = { every : int option; file : string option; resume : string option }

let checkpoint_term =
  let every =
    let doc =
      "Snapshot the full simulation state every $(docv) slots (rounded up to the engine's \
       staging block) into $(b,--checkpoint-file). Requires $(b,--checkpoint-file)."
    in
    Arg.(value & opt (some int) None & info [ "checkpoint-every" ] ~docv:"SLOTS" ~doc)
  in
  let file =
    let doc =
      "Checkpoint file path. Snapshots are published atomically (temp file + rename), so a \
       crash mid-write never leaves a torn checkpoint."
    in
    Arg.(value & opt (some string) None & info [ "checkpoint-file" ] ~docv:"FILE" ~doc)
  in
  let resume =
    let doc =
      "Resume from a checkpoint file written by $(b,--checkpoint-every). The run must be \
       launched with the same parameters (trace, seed, sources, ...); the resumed run is \
       bitwise identical to the uninterrupted one, at any $(b,--domains)/$(b,--shards)."
    in
    Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"FILE" ~doc)
  in
  Term.(const (fun every file resume -> { every; file; resume }) $ every $ file $ resume)

(* Checkpoint framing shared by mux and abr: the [meta] channel of the
   container carries a fingerprint of every run parameter the snapshot
   depends on (including a digest of the input trace), so resuming
   under different parameters is refused up front with both
   fingerprints shown — never a garbage restore. Shard/domain counts
   are deliberately NOT part of the fingerprint: snapshots are
   engine-layout independent. *)
let checkpoint_plumbing ~kind ~meta ck ~save_extra ~restore_extra =
  let checkpoint =
    match (ck.every, ck.file) with
    | None, None -> None
    | Some every, Some path ->
      if every < 1 then invalid_arg "--checkpoint-every must be positive";
      Some
        {
          Ss_mux.Mux.every;
          save =
            (fun ~slot:_ fill ->
              Ss_checkpoint.to_file ~path ~kind ~meta (fun w ->
                  save_extra w;
                  fill w));
        }
    | Some _, None -> invalid_arg "--checkpoint-every requires --checkpoint-file"
    | None, Some _ -> invalid_arg "--checkpoint-file requires --checkpoint-every"
  in
  let resume_reader =
    match ck.resume with
    | None -> None
    | Some path ->
      let saved_meta, r = Ss_checkpoint.of_file ~path ~kind in
      if not (String.equal saved_meta meta) then
        raise
          (Ss_checkpoint.Corrupt
             (Printf.sprintf
                "%s: run parameters differ from the checkpoint's\n  checkpoint: %s\n  this run:   %s"
                path saved_meta meta));
      restore_extra r;
      Some r
  in
  (checkpoint, resume_reader)

(* --- synth --- *)

let synth_cmd =
  let gop_arg =
    let doc = "GOP pattern (e.g. IBBPBBPBBPBB, or I for intraframe-only)." in
    Arg.(value & opt string "IBBPBBPBBPBB" & info [ "gop" ] ~docv:"PATTERN" ~doc)
  in
  let hurst_arg =
    let doc = "Target Hurst parameter in (0.5,1)." in
    Arg.(value & opt float 0.9 & info [ "hurst" ] ~docv:"FLOAT" ~doc)
  in
  let mean_arg =
    let doc = "Mean I-frame size in bytes." in
    Arg.(value & opt float 9000.0 & info [ "mean-i-bytes" ] ~docv:"FLOAT" ~doc)
  in
  let run output frames seed gop hurst mean_i_bytes =
    wrap (fun () ->
        let cfg =
          { Scene.default with frames; gop = Gop.of_string gop; hurst; mean_i_bytes }
        in
        let trace = Scene.generate cfg (Rng.create ~seed) in
        Trace.save trace output;
        Format.printf "wrote %d frames to %s@." frames output;
        Format.printf "%a" Trace.pp_summary (Trace.summarize trace))
  in
  let doc = "Synthesize a scene-model VBR video trace." in
  Cmd.v (Cmd.info "synth" ~doc)
    Term.(
      const run $ output_arg $ frames_arg ~default:131_072 $ seed_arg $ gop_arg $ hurst_arg
      $ mean_arg)

(* --- summary --- *)

let summary_cmd =
  let run path =
    wrap (fun () ->
        let trace = Trace.load path in
        Format.printf "trace             %s@." trace.Trace.name;
        Format.printf "gop               %s@." (Gop.to_string trace.Trace.gop);
        Format.printf "%a" Trace.pp_summary (Trace.summarize trace))
  in
  let doc = "Print Table-1 style statistics of a trace." in
  Cmd.v (Cmd.info "summary" ~doc) Term.(const run $ trace_arg)

(* --- hurst --- *)

let hurst_cmd =
  let run path domains =
    wrap (fun () ->
        Pool.with_pool ~domains @@ fun pool ->
        let trace = Trace.load path in
        let sizes = trace.Trace.sizes in
        let vt = Hurst.variance_time ?pool sizes in
        let rs = Hurst.rs ?pool sizes in
        let pg = Hurst.periodogram sizes in
        Format.printf "variance-time  H = %.3f  (fit r2 %.3f)@." vt.Hurst.h
          vt.Hurst.fit.Ss_stats.Regression.r2;
        Format.printf "R/S            H = %.3f  (fit r2 %.3f)@." rs.Hurst.h
          rs.Hurst.fit.Ss_stats.Regression.r2;
        Format.printf "periodogram    H = %.3f@." pg.Hurst.h;
        Format.printf "adopted        H = %.2f@."
          (Fit.hurst_round ((vt.Hurst.h +. rs.Hurst.h) /. 2.0)))
  in
  let doc = "Estimate the Hurst parameter (variance-time, R/S, periodogram)." in
  Cmd.v (Cmd.info "hurst" ~doc) Term.(const run $ trace_arg $ domains_arg)

(* --- acf --- *)

let acf_cmd =
  let lags_arg =
    let doc = "Largest lag to print." in
    Arg.(value & opt int 200 & info [ "max-lag" ] ~docv:"INT" ~doc)
  in
  let step_arg =
    let doc = "Print every STEP-th lag." in
    Arg.(value & opt int 1 & info [ "step" ] ~docv:"INT" ~doc)
  in
  let kind_arg =
    let doc = "Restrict to one frame type (I, P or B)." in
    Arg.(value & opt (some string) None & info [ "kind" ] ~docv:"I|P|B" ~doc)
  in
  let run path max_lag step kind =
    wrap (fun () ->
        if step <= 0 then invalid_arg "step must be positive";
        let trace = Trace.load path in
        let sizes =
          match kind with
          | None -> trace.Trace.sizes
          | Some s when String.length s = 1 ->
            Trace.of_kind trace (Ss_video.Frame.of_char s.[0])
          | Some s -> invalid_arg (Printf.sprintf "bad kind %S" s)
        in
        let r = D.acf sizes ~max_lag in
        Format.printf "# lag  r(lag)@.";
        let k = ref 1 in
        while !k <= max_lag do
          Format.printf "%5d  %.5f@." !k r.(!k);
          k := !k + step
        done)
  in
  let doc = "Print the sample autocorrelation function of a trace." in
  Cmd.v (Cmd.info "acf" ~doc) Term.(const run $ trace_arg $ lags_arg $ step_arg $ kind_arg)

(* --- compare --- *)

let compare_cmd =
  let trace2_arg =
    let doc = "Second trace file." in
    Arg.(required & pos 1 (some file) None & info [] ~docv:"TRACE2" ~doc)
  in
  let run path1 path2 =
    wrap (fun () ->
        let a = Trace.load path1 and b = Trace.load path2 in
        let sa = a.Trace.sizes and sb = b.Trace.sizes in
        Format.printf "%24s  %12s  %12s@." "" path1 path2;
        Format.printf "%24s  %12.1f  %12.1f@." "mean bytes/frame" (D.mean sa) (D.mean sb);
        Format.printf "%24s  %12.1f  %12.1f@." "std bytes/frame" (D.std sa) (D.std sb);
        Format.printf "%24s  %12.1f  %12.1f@." "peak bytes/frame" (D.max sa) (D.max sb);
        let ha = (Hurst.variance_time sa).Hurst.h and hb = (Hurst.variance_time sb).Hurst.h in
        Format.printf "%24s  %12.3f  %12.3f@." "Hurst (variance-time)" ha hb;
        let max_lag = Stdlib.min 200 (Stdlib.min (Array.length sa) (Array.length sb) / 10) in
        let ra = D.acf sa ~max_lag and rb = D.acf sb ~max_lag in
        let acf_rmse =
          let s = ref 0.0 in
          for k = 1 to max_lag do
            let e = ra.(k) -. rb.(k) in
            s := !s +. (e *. e)
          done;
          sqrt (!s /. float_of_int max_lag)
        in
        Format.printf "%24s  %12.4f@."
          (Printf.sprintf "ACF rmse (lags<=%d)" max_lag)
          acf_rmse;
        let ks =
          Ss_stats.Empirical.ks_distance
            (Ss_stats.Empirical.of_data sa)
            (Ss_stats.Empirical.of_data sb)
        in
        Format.printf "%24s  %12.4f@." "marginal KS distance" ks)
  in
  let doc = "Statistical comparison of two traces (moments, Hurst, ACF, KS)." in
  Cmd.v (Cmd.info "compare" ~doc) Term.(const run $ trace_arg $ trace2_arg)

(* --- fit --- *)

let fit_cmd =
  let run path max_lag =
    wrap (fun () ->
        let trace = Trace.load path in
        let model, diag = Fit.fit ~max_lag trace.Trace.sizes in
        Format.printf "%a@." Report.pp_diagnostics diag;
        Format.printf "%a@." Report.pp_model model)
  in
  let doc = "Fit the unified SRD+LRD model (the paper's four steps)." in
  Cmd.v (Cmd.info "fit" ~doc) Term.(const run $ trace_arg $ max_lag_arg)

(* --- generate --- *)

let generate_cmd =
  let run path output frames seed max_lag =
    wrap (fun () ->
        let trace = Trace.load path in
        let model, diag = Fit.fit ~max_lag trace.Trace.sizes in
        Format.printf "%a@." Report.pp_diagnostics diag;
        let synth =
          Generate.foreground model ~n:frames Generate.Davies_harte (Rng.create ~seed)
        in
        let out =
          Trace.make ~name:"synthetic" ~fps:trace.Trace.fps ~gop:trace.Trace.gop synth
        in
        Trace.save out output;
        Format.printf "wrote %d synthetic frames to %s@." frames output)
  in
  let doc =
    "Fit a trace and generate a synthetic trace with the same marginal and SRD+LRD dependence."
  in
  Cmd.v (Cmd.info "generate" ~doc)
    Term.(
      const run $ trace_arg $ output_arg $ frames_arg ~default:131_072 $ seed_arg $ max_lag_arg)

(* --- mpeg --- *)

let mpeg_cmd =
  let run path output frames seed =
    wrap (fun () ->
        let trace = Trace.load path in
        let m = Mpeg.fit trace in
        Format.printf "I-frame model:@.%a@." Report.pp_diagnostics m.Mpeg.i_diag;
        let synth = Mpeg.generate m ~n:frames (Rng.create ~seed) in
        Trace.save synth output;
        Format.printf "wrote %d composite I/B/P frames to %s@." frames output)
  in
  let doc = "Fit the composite I/B/P model (Section 3.3) and generate a synthetic stream." in
  Cmd.v (Cmd.info "mpeg" ~doc)
    Term.(const run $ trace_arg $ output_arg $ frames_arg ~default:131_072 $ seed_arg)

(* --- queue --- *)

let parse_buffers buffers =
  String.split_on_char ',' buffers
  |> List.map (fun s ->
         match float_of_string_opt (String.trim s) with
         | Some b when b >= 0.0 -> b
         | _ -> invalid_arg (Printf.sprintf "bad buffer size %S" s))

let buffers_arg =
  let doc = "Comma-separated normalized buffer sizes (units of mean frame size)." in
  Arg.(
    value & opt string "10,25,50,100,150,200,250" & info [ "buffers"; "b" ] ~docv:"LIST" ~doc)

let queue_cmd =
  let run path utilization buffers csv =
    wrap (fun () ->
        let trace = Trace.load path in
        let sizes = trace.Trace.sizes in
        let bs = parse_buffers buffers in
        let qp = Trace_sim.queue_path ~arrivals:sizes ~utilization in
        Format.printf "# b(normalized)  Pr(Q > b)  log10@.";
        let curve =
          List.map
            (fun b ->
              (b, Trace_sim.overflow_fraction ~queue_path:qp ~buffer:(b *. D.mean sizes)))
            bs
        in
        List.iter
          (fun (b, p) ->
            Format.printf "%8.0f  %.5g  %s@." b p
              (if p > 0.0 then Printf.sprintf "%.3f" (log10 p) else "-inf"))
          curve;
        match csv with None -> () | Some path -> write_overflow_csv path curve)
  in
  let doc = "Single-run overflow curve of a trace through a deterministic-service queue." in
  Cmd.v (Cmd.info "queue" ~doc)
    Term.(const run $ trace_arg $ utilization_arg $ buffers_arg $ csv_arg)

(* --- mux --- *)

let mux_cmd =
  let sources_arg =
    let doc = "Number of multiplexed sources." in
    Arg.(value & opt int 16 & info [ "sources" ] ~docv:"INT" ~doc)
  in
  let slots_arg =
    let doc = "Simulation length in slots (frames)." in
    Arg.(value & opt int 50_000 & info [ "slots" ] ~docv:"INT" ~doc)
  in
  let order_arg =
    let doc =
      "Streaming-source AR order: dependence is exact up to this lag, frozen-AR beyond; \
       memory and per-slot cost are O(order) per source."
    in
    Arg.(value & opt int 256 & info [ "order" ] ~docv:"INT" ~doc)
  in
  let buffer_arg =
    let doc =
      "Finite shared buffer in units of the per-source mean frame size (omit for an \
       unbounded buffer: pure delay, no loss)."
    in
    let size = float_where ~expected:"a number >= 0" (fun b -> b >= 0.0) in
    Arg.(value & opt (some size) None & info [ "buffer" ] ~docv:"FLOAT" ~doc)
  in
  let epsilon_arg =
    let doc = "Admission-control overflow target Pr(Q > b) <= epsilon, in (0,1)." in
    let target = float_where ~expected:"a number in (0, 1)" (fun e -> e > 0.0 && e < 1.0) in
    Arg.(value & opt target 1e-6 & info [ "epsilon" ] ~docv:"FLOAT" ~doc)
  in
  let composite_arg =
    let doc = "Use the Section-3.3 composite I/B/P model (GOP phases staggered per source)." in
    Arg.(value & flag & info [ "composite" ] ~doc)
  in
  let priority_arg =
    let doc = "Strict priority classes I > P > B (requires $(b,--composite))." in
    Arg.(value & flag & info [ "priority" ] ~doc)
  in
  let is_arg =
    let doc =
      "Importance-sampled overflow estimation instead of a plain simulation run: replicated \
       first-passage of the shared queue above $(b,--buffer), background processes twisted \
       by $(b,--twist). Unified-model sources only; admission control is bypassed."
    in
    Arg.(value & flag & info [ "is" ] ~doc)
  in
  let twist_arg =
    twist_arg
      ~keywords:[ ("sweep", `Sweep); ("auto", `Auto) ]
      ~doc:
        "With $(b,--is): per-source background twisted mean m*; 'sweep' prints the \
         normalized-variance valley, 'auto' runs the coarse-sweep + golden-section search."
  in
  let horizon_arg =
    let doc = "With $(b,--is): replication horizon in slots (default: 10 * buffer)." in
    Arg.(value & opt (some int) None & info [ "horizon"; "k" ] ~docv:"INT" ~doc)
  in
  let police_arg =
    let doc =
      "Measurement-based policing of admitted sources: windowed mean/variance and a \
       streaming variance-time Hurst estimate per source, with \
       renegotiate/demote/throttle/evict sanctions on non-conformance."
    in
    Arg.(value & flag & info [ "police" ] ~doc)
  in
  let police_window_arg =
    let doc = "Policing measurement window in slots." in
    Arg.(value & opt int 512 & info [ "police-window" ] ~docv:"INT" ~doc)
  in
  let run_is ~pool ~trace ~utilization ~sources ~order ~backend ~buffer_norm ~buffers ~twist
      ~horizon ~replications ~seed ~max_lag =
    let model, _ = Fit.fit ~max_lag trace.Trace.sizes in
    let per_mean = model.Model.mean in
    let service = float_of_int sources *. per_mean /. utilization in
    let b_norm =
      match buffer_norm with
      | Some b -> b
      | None -> List.fold_left Stdlib.max 0.0 (parse_buffers buffers)
    in
    if b_norm <= 0.0 then invalid_arg "--is needs a positive --buffer";
    let buffer = b_norm *. per_mean in
    let slots =
      match horizon with
      | Some k -> k
      | None -> Stdlib.max 100 (int_of_float (10.0 *. b_norm))
    in
    let config ~twist =
      Ss_mux.Mux_is.make_config ~model ~sources ~order ~backend ~service ~buffer ~slots ~twist
        ()
    in
    let rng = Rng.create ~seed in
    let print_estimate twist e =
      Format.printf "uti=%.2f N=%d b=%.0f (per-source mean units) k=%d m*=%.3f@." utilization
        sources b_norm slots twist;
      Format.printf "%a@." Report.pp_estimate e
    in
    match twist with
    | Some `Sweep ->
      let twists = List.init 10 (fun i -> 0.5 *. float_of_int (i + 1)) in
      let points = Ss_mux.Mux_is.sweep ?pool ~config ~twists ~replications rng in
      Format.printf "# m*  p  normalized-variance  hits@.";
      List.iter
        (fun p ->
          Format.printf "%4.1f  %.4g  %.4g  %d@." p.Valley.twist p.Valley.estimate.Mc.p
            p.Valley.estimate.Mc.normalized_variance p.Valley.estimate.Mc.hits)
        points;
      let best = Valley.best points in
      Format.printf "# best m* = %.1f@." best.Valley.twist
    | Some `Auto ->
      let best = Ss_mux.Mux_is.auto ?pool ~config ~replications rng in
      print_estimate best.Valley.twist best.Valley.estimate
    | (None | Some (`Value _)) as m ->
      let twist = match m with Some (`Value v) -> v | _ -> 0.0 in
      print_estimate twist (Ss_mux.Mux_is.estimate ?pool (config ~twist) ~replications rng)
  in
  let run path utilization sources slots order synthesis buffer_norm epsilon composite priority
      buffers csv seed max_lag domains shards is_mode twist horizon replications faults police
      police_window ck =
    wrap (fun () ->
        if sources <= 0 then invalid_arg "sources must be positive";
        Pool.with_pool ~domains @@ fun pool ->
        if priority && not composite then invalid_arg "--priority requires --composite";
        let syn = synthesis () in
        let trace = Trace.load path in
        if is_mode then begin
          if composite then
            invalid_arg "--is supports unified-model sources only (omit --composite)";
          if faults <> None || police then
            invalid_arg "--faults/--police are incompatible with --is";
          if shards <> None then
            invalid_arg "--shards applies to the mux engine, not --is";
          if ck.every <> None || ck.file <> None || ck.resume <> None then
            invalid_arg
              "--checkpoint-every/--checkpoint-file/--resume are incompatible with --is \
               (importance-sampled replications carry likelihood state outside the snapshot)";
          if syn.kernel = `Fft then
            invalid_arg
              "--kernel fft is incompatible with --is (the likelihood accumulator replays \
               the exact per-innovation recursion, which the blocked FFT kernel \
               reassociates)";
          run_is ~pool ~trace ~utilization ~sources ~order ~backend:syn.backend ~buffer_norm
            ~buffers ~twist ~horizon ~replications ~seed ~max_lag
        end
        else begin
        if twist <> None || horizon <> None then
          invalid_arg "--twist/--horizon require --is";
        let meta =
          Printf.sprintf
            "mux trace=%s u=%g sources=%d slots=%d order=%d backend=%s kernel=%s \
             buffer=%s epsilon=%g composite=%b priority=%b buffers=%s csv=%b faults=%s \
             police=%b police-window=%d seed=%d max-lag=%d"
            (Digest.to_hex (Digest.file path))
            utilization sources slots order (backend_name syn.backend) (kernel_name syn.kernel)
            (match buffer_norm with None -> "unbounded" | Some b -> Printf.sprintf "%g" b)
            epsilon composite priority buffers (csv <> None)
            (match faults with None -> "-" | Some s -> s)
            police police_window seed max_lag
        in
        let rng = Rng.create ~seed in
        let model =
          if composite then `Mpeg (Mpeg.fit trace, priority)
          else `Model (fst (Fit.fit ~max_lag trace.Trace.sizes))
        in
        let srcs = build_sources syn ~order ~slots ~sources ~faults rng model in
        let per_mean = srcs.(0).Ss_mux.Source.mean in
        let service = float_of_int sources *. per_mean /. utilization in
        let bs = parse_buffers buffers in
        let thresholds = List.map (fun b -> b *. per_mean) bs in
        let buffer_abs =
          match buffer_norm with None -> infinity | Some b -> b *. per_mean
        in
        let cac_buffer =
          if buffer_abs < infinity then buffer_abs
          else List.fold_left Stdlib.max per_mean thresholds
        in
        let cac = Ss_mux.Admission.create ~service ~buffer:cac_buffer ~epsilon in
        Format.printf "# admission control: service %.1f/slot, buffer %.1f, epsilon %g@."
          service cac_buffer epsilon;
        let admitted =
          Array.of_list
            (List.filter
               (fun s ->
                 match Ss_mux.Admission.try_admit cac (Ss_mux.Admission.descr_of_source s) with
                 | Ss_mux.Admission.Admit p ->
                   Format.printf "  admit  %s  (predicted Pr(Q>b) = %.3g)@."
                     s.Ss_mux.Source.name p;
                   true
                 | Ss_mux.Admission.Reject reason ->
                   Format.printf "  reject %s@." reason;
                   false)
               (Array.to_list srcs))
        in
        if Array.length admitted = 0 then
          Format.printf "no sources admitted; nothing to simulate@."
        else begin
          let policer =
            if police then
              Some
                (Ss_mux.Police.create
                   ~config:{ Ss_mux.Police.default with window = police_window }
                   ~cac
                   (Array.map Ss_mux.Admission.descr_of_source admitted))
            else None
          in
          (* Capture the per-source service/delay trajectory (the same
             hook the ABR layer consumes) only when it will be written:
             the hook itself never perturbs the simulated floats. *)
          let capture =
            match csv with
            | None -> None
            | Some _ ->
              Some
                (Ss_abr.Trajectory.create ~slots ~sources:(Array.length admitted)
                   ~slot_s:(1.0 /. trace.Trace.fps))
          in
          let trajectory = Option.map Ss_abr.Trajectory.sink capture in
          let checkpoint, ck_resume =
            checkpoint_plumbing ~kind:"vbrsim-mux" ~meta ck
              ~save_extra:(fun w ->
                match capture with Some c -> Ss_abr.Trajectory.save c w | None -> ())
              ~restore_extra:(fun r ->
                match capture with Some c -> Ss_abr.Trajectory.restore c r | None -> ())
          in
          let report =
            Ss_mux.Mux.run ?pool ?shards ?police:policer ?trajectory ?checkpoint
              ?resume:ck_resume ~buffer:buffer_abs ~thresholds ~service ~slots admitted
          in
          Format.printf "%a" Ss_mux.Mux.pp_report report;
          (match policer with
          | None -> ()
          | Some p ->
            let incidents = Ss_mux.Police.incidents p in
            if incidents = [] then Format.printf "police: no incidents@."
            else begin
              Format.printf "police incidents (%d):@." (List.length incidents);
              List.iter
                (fun inc -> Format.printf "  %a@." Ss_mux.Police.pp_incident inc)
                incidents
            end);
          let load = Ss_mux.Admission.admitted cac in
          Format.printf "norros overlay (admitted aggregate):@.";
          List.iter
            (fun (b, p) ->
              let pred = Ss_mux.Admission.predicted_overflow ~service ~buffer:b load in
              Format.printf "  Pr(Q > %8.0f)  measured %.5g  norros %.5g@." b p pred)
            report.Ss_mux.Mux.overflow;
          match csv with
          | None -> ()
          | Some path ->
            write_overflow_csv path
              ~class_delays:report.Ss_mux.Mux.class_delay_quantiles ?trajectory:capture
              (List.map (fun (b, p) -> (b /. per_mean, p)) report.Ss_mux.Mux.overflow)
        end
        end)
  in
  let doc =
    "Multiplex N streaming model sources through one finite shared buffer with \
     effective-bandwidth admission control and online accounting; with $(b,--is), \
     importance-sampled estimation of rare shared-buffer overflow."
  in
  Cmd.v (Cmd.info "mux" ~doc)
    Term.(
      const run $ trace_arg $ utilization_arg $ sources_arg $ slots_arg $ order_arg
      $ synthesis_term $ buffer_arg $ epsilon_arg $ composite_arg $ priority_arg $ buffers_arg
      $ csv_arg $ seed_arg $ max_lag_arg $ domains_arg $ shards_arg $ is_arg $ twist_arg
      $ horizon_arg $ replications_arg $ faults_arg $ police_arg $ police_window_arg
      $ checkpoint_term)

(* --- abr --- *)

let abr_cmd =
  let sources_arg =
    let doc = "Number of multiplexed sources (each backs clients round-robin)." in
    Arg.(value & opt int 4 & info [ "sources" ] ~docv:"INT" ~doc)
  in
  let slots_arg =
    let doc = "Multiplexer trajectory length in slots (frames)." in
    Arg.(value & opt int 16_384 & info [ "slots" ] ~docv:"INT" ~doc)
  in
  let order_arg =
    let doc = "Streaming-source AR order." in
    Arg.(value & opt int 128 & info [ "order" ] ~docv:"INT" ~doc)
  in
  let clients_arg =
    let doc = "Streaming clients in the fleet." in
    Arg.(value & opt positive_int 64 & info [ "clients" ] ~docv:"INT" ~doc)
  in
  let chunks_arg =
    let doc = "Chunks each client streams." in
    Arg.(value & opt positive_int 120 & info [ "chunks" ] ~docv:"INT" ~doc)
  in
  let chunk_frames_arg =
    let doc = "Frames per chunk (chunk duration = frames / fps)." in
    Arg.(value & opt positive_int 30 & info [ "chunk-frames" ] ~docv:"INT" ~doc)
  in
  let max_buffer_arg =
    let doc = "Client playback buffer cap in seconds ($(b,inf): no cap)." in
    let cap = float_where ~expected:"a number > 0" (fun b -> b > 0.0) in
    Arg.(value & opt cap 25.0 & info [ "max-buffer" ] ~docv:"SECONDS" ~doc)
  in
  let policies_arg =
    let doc = "Comma-separated adaptation policies: bba, rate, fixed:N." in
    let entry = function
      | "bba" -> Some (Ss_abr.Policy.bba ())
      | "rate" -> Some (Ss_abr.Policy.rate ())
      | x -> (
        match String.split_on_char ':' x with
        | [ "fixed"; n ] -> (
          match int_of_string_opt n with
          | Some n when n >= 0 -> Some (Ss_abr.Policy.fixed n)
          | _ -> None)
        | _ -> None)
    in
    let check l = if l = [] then Error "names no policy" else Ok () in
    list_arg ~entry ~expected:"bba, rate or fixed:N with N >= 0" ~check ~default:"bba,rate"
      [ "policies"; "policy" ] ~docv:"LIST" ~doc
  in
  let levels_arg =
    let doc =
      "Comma-separated bitrate-ladder level factors: at least two, each finite and > 0, \
       strictly ascending."
    in
    let entry x =
      match float_of_string_opt x with
      | Some l when Float.is_finite l && l > 0.0 -> Some l
      | _ -> None
    in
    let rec ascending = function
      | a :: (b :: _ as rest) ->
        if b > a then ascending rest else Error "is not strictly ascending"
      | _ -> Ok ()
    in
    let check = function
      | [] | [ _ ] -> Error "names fewer than two levels"
      | l -> ascending l
    in
    list_arg ~entry ~expected:"a finite number > 0" ~check ~default:"0.3,0.55,1.0,1.8,3.0"
      [ "levels" ] ~docv:"LIST" ~doc
  in
  let run path utilization sources slots order synthesis seed max_lag domains clients chunks
      chunk_frames max_buffer policies levels faults ck =
    wrap (fun () ->
        if sources <= 0 then invalid_arg "sources must be positive";
        let policies_s, policies = policies and levels_s, levels = levels in
        Pool.with_pool ~domains @@ fun pool ->
        let syn = synthesis () in
        let trace = Trace.load path in
        let model, _ = Fit.fit ~max_lag trace.Trace.sizes in
        (* The fingerprint covers the mux phase only: the fleet phase
           re-runs deterministically from the same parameters, so a
           resume mid-fleet restarts the fleets from the completed mux
           trajectory. *)
        let meta =
          Printf.sprintf
            "abr trace=%s u=%g sources=%d slots=%d order=%d backend=%s kernel=%s \
             clients=%d chunks=%d chunk-frames=%d max-buffer=%g policies=%s levels=%s \
             faults=%s seed=%d max-lag=%d"
            (Digest.to_hex (Digest.file path))
            utilization sources slots order (backend_name syn.backend) (kernel_name syn.kernel)
            clients chunks
            chunk_frames
            max_buffer policies_s levels_s
            (match faults with None -> "-" | Some s -> s)
            seed max_lag
        in
        let rng = Rng.create ~seed in
        let srcs = build_sources syn ~order ~slots ~sources ~faults rng (`Model model) in
        let per_mean = srcs.(0).Ss_mux.Source.mean in
        let service = float_of_int sources *. per_mean /. utilization in
        let slot_s = 1.0 /. trace.Trace.fps in
        let capture = Ss_abr.Trajectory.create ~slots ~sources ~slot_s in
        let checkpoint, ck_resume =
          checkpoint_plumbing ~kind:"vbrsim-abr" ~meta ck
            ~save_extra:(fun w -> Ss_abr.Trajectory.save capture w)
            ~restore_extra:(fun r -> Ss_abr.Trajectory.restore capture r)
        in
        let report =
          Ss_mux.Mux.run ?pool ~trajectory:(Ss_abr.Trajectory.sink capture) ?checkpoint
            ?resume:ck_resume ~service ~slots srcs
        in
        Format.printf
          "# mux: %d sources, utilization %.2f, service %.1f B/slot, mean queue %.1f B@."
          sources utilization service report.Ss_mux.Mux.mean_queue;
        (* Bitrate ladder: equal-seed Scene_source rungs calibrated so
           the 1.0 rung's rate matches the per-source mean rate. *)
        let ladder_frames = Stdlib.max (chunk_frames * 96) 2048 in
        let base =
          {
            Scene.default with
            frames = ladder_frames;
            fps = trace.Trace.fps;
            hurst = Stdlib.min 0.95 (Stdlib.max 0.55 model.Model.hurst);
          }
        in
        let cal = Scene.generate base (Rng.create ~seed:(seed + 1)) in
        let scale = model.Model.mean /. D.mean cal.Trace.sizes in
        let cfgs =
          Scene.ladder ~levels
            { base with mean_i_bytes = base.Scene.mean_i_bytes *. scale }
        in
        let rungs = List.map (fun c -> Scene.generate c (Rng.create ~seed:(seed + 1))) cfgs in
        let ladder = Ss_abr.Ladder.of_traces ~chunk_frames rungs in
        Format.printf "%a" Ss_abr.Ladder.pp ladder;
        let config = { Ss_abr.Client.default with chunks; max_buffer_s = max_buffer } in
        (* Each policy's fleet re-reads the same generator state, so
           client j joins at the same slot under every policy and the
           comparison is paired. *)
        List.iter
          (fun policy ->
            let fleet_rng = Rng.copy rng in
            let fleet_report, _ =
              Ss_abr.Fleet.run ?pool ~rng:fleet_rng ~clients ~policy ~ladder
                ~trajectory:capture ~config ()
            in
            Format.printf "%a" Ss_abr.Fleet.pp_report fleet_report)
          policies)
  in
  let doc =
    "Adaptive-bitrate streaming fleet over a multiplexer trajectory: N model sources share \
     the bottleneck, each client replays one source's served-work process as its bandwidth \
     and adapts across a Scene_source bitrate ladder; reports QoE/rebuffer/bitrate \
     distributions per policy."
  in
  Cmd.v (Cmd.info "abr" ~doc)
    Term.(
      const run $ trace_arg $ utilization_arg $ sources_arg $ slots_arg $ order_arg
      $ synthesis_term $ seed_arg $ max_lag_arg $ domains_arg $ clients_arg $ chunks_arg
      $ chunk_frames_arg $ max_buffer_arg $ policies_arg $ levels_arg $ faults_arg
      $ checkpoint_term)

(* --- fastsim --- *)

let fastsim_cmd =
  let buffer_arg =
    let doc = "Normalized buffer size (units of mean frame size)." in
    let size =
      float_where ~expected:"a finite number >= 0" (fun b -> Float.is_finite b && b >= 0.0)
    in
    Arg.(value & opt size 100.0 & info [ "buffer"; "b" ] ~docv:"FLOAT" ~doc)
  in
  let horizon_arg =
    let doc = "Simulation horizon k in slots (default: 10 * buffer)." in
    Arg.(value & opt (some int) None & info [ "horizon"; "k" ] ~docv:"INT" ~doc)
  in
  let twist_arg =
    twist_arg ~keywords:[ ("sweep", `Sweep) ]
      ~doc:"Background twisted mean m*; 'sweep' prints the Fig-14 valley instead."
  in
  let run path utilization buffer_norm horizon twist replications seed max_lag domains backend
      =
    wrap (fun () ->
        Pool.with_pool ~domains @@ fun pool ->
        let backend = parse_backend backend in
        let trace = Trace.load path in
        let model, _ = Fit.fit ~max_lag trace.Trace.sizes in
        let mean = model.Model.mean in
        let horizon =
          match horizon with
          | Some k -> k
          | None -> Stdlib.max 100 (int_of_float (10.0 *. buffer_norm))
        in
        let table = Generate.table model ~n:horizon in
        let arrival = Generate.arrival_fn model in
        let service = mean /. utilization in
        let buffer = buffer_norm *. mean in
        let backend =
          match backend with
          | `Hosking -> `Hosking
          | `Davies_harte ->
            `Davies_harte
              (Ss_fractal.Davies_harte.plan ~acf:(Model.background_acf model) ~n:horizon ())
        in
        let config ~twist =
          Is.make_config ~table ~arrival ~service ~buffer ~horizon ~twist ~backend ()
        in
        let rng = Rng.create ~seed in
        match twist with
        | Some `Sweep ->
          let twists = List.init 10 (fun i -> 0.5 *. float_of_int (i + 1)) in
          let points = Valley.sweep ?pool ~config ~twists ~replications rng in
          Format.printf "# m*  p  normalized-variance  hits@.";
          List.iter
            (fun p ->
              Format.printf "%4.1f  %.4g  %.4g  %d@." p.Valley.twist p.Valley.estimate.Mc.p
                p.Valley.estimate.Mc.normalized_variance p.Valley.estimate.Mc.hits)
            points;
          let best = Valley.best points in
          Format.printf "# best m* = %.1f@." best.Valley.twist
        | (None | Some (`Value _)) as m ->
          let twist = match m with Some (`Value v) -> v | _ -> 0.0 in
          let e = Is.estimate ?pool (config ~twist) ~replications rng in
          Format.printf "uti=%.2f b=%.0f (normalized) k=%d m*=%.2f@." utilization buffer_norm
            horizon twist;
          Format.printf "%a@." Report.pp_estimate e)
  in
  let doc = "Importance-sampled (or plain, m*=0) overflow probability under the fitted model." in
  Cmd.v (Cmd.info "fastsim" ~doc)
    Term.(
      const run $ trace_arg $ utilization_arg $ buffer_arg $ horizon_arg $ twist_arg
      $ replications_arg $ seed_arg $ max_lag_arg $ domains_arg $ backend_arg)

let () =
  let doc =
    "self-similar VBR video traffic modeling and fast simulation (SIGCOMM '95 reproduction)"
  in
  let info = Cmd.info "vbrsim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            synth_cmd; summary_cmd; hurst_cmd; acf_cmd; compare_cmd; fit_cmd; generate_cmd;
            mpeg_cmd; queue_cmd; mux_cmd; abr_cmd; fastsim_cmd;
          ]))
