(* Benchmark / reproduction harness.

   Regenerates every table and figure of the paper's evaluation:

     table1 fig1 .. fig17         the paper's artifacts
     abl-gen abl-knee abl-atten abl-trunc   design-choice ablations
     --perf                       Bechamel micro-benchmarks

   With no arguments, everything except --perf runs in order. A
   single id as argument runs just that experiment. Experiment sizes
   follow Ss_core.Defaults (SS_FULL=1 for paper-scale replication
   counts, SS_REPLICATIONS=n to override).

   Output is gnuplot-style: '#'-prefixed commentary, whitespace-
   separated data columns, one block per curve. EXPERIMENTS.md keys
   its paper-vs-measured table to these outputs. *)

module Rng = Ss_stats.Rng
module D = Ss_stats.Descriptive
module Histogram = Ss_stats.Histogram
module Empirical = Ss_stats.Empirical
module Quad = Ss_stats.Quadrature
module Reg = Ss_stats.Regression
module Acf = Ss_fractal.Acf
module Acf_fit = Ss_fractal.Acf_fit
module Hosking = Ss_fractal.Hosking
module DH = Ss_fractal.Davies_harte
module Hurst = Ss_fractal.Hurst
module Transform = Ss_fractal.Transform
module Trace = Ss_video.Trace
module Frame = Ss_video.Frame
module Gop = Ss_video.Gop
module Mc = Ss_queueing.Mc
module Trace_sim = Ss_queueing.Trace_sim
module Is = Ss_fastsim.Is_estimator
module Valley = Ss_fastsim.Valley
module Model = Ss_core.Model
module Fit = Ss_core.Fit
module Generate = Ss_core.Generate
module Mpeg = Ss_core.Mpeg
module Report = Ss_core.Report
module Defaults = Ss_core.Defaults
module Pool = Ss_parallel.Pool

let pf fmt = Printf.printf fmt
let reps = Defaults.replications

(* Every float cell in a BENCH_*.json writer goes through [jf]:
   non-finite values (a relative half-width over zero hits, a ratio
   with an empty denominator) become JSON null instead of the bare
   nan/inf tokens %g would print, which strict parsers reject. *)
let jf = Ss_json.float_str

(* throughput-smoke kernel selector, set by the driver from a
   trailing `--kernel` flag: CI runs the smoke gate once per kernel.
   The default (exact) keeps the original bitwise gates; the fft
   variant swaps the cross-backend agreement checks for the
   statistical gates that define that tier (sample-ACF and
   variance-time Hurst agreement — it has no bitwise contract with
   the exact kernel to check). *)
let smoke_kernel : Ss_mux.Source.kernel ref = ref `Exact

(* Machine/toolchain metadata (Machine_info is generated at build
   time from the compiler configuration), embedded in every
   BENCH_*.json so recorded numbers carry the configuration that
   produced them. *)
let machine_json () =
  Printf.sprintf
    "{\"cores\": %d, \"ocaml_version\": \"%s\", \"flambda\": %b, \"word_size\": %d, \
     \"architecture\": \"%s\", \"system\": \"%s\"}"
    (Domain.recommended_domain_count ())
    Machine_info.ocaml_version Machine_info.flambda Machine_info.word_size
    Machine_info.architecture Machine_info.system

(* ------------------------------------------------------------------ *)
(* Shared fixtures (lazy: each experiment forces only what it needs)  *)
(* ------------------------------------------------------------------ *)

let intra = lazy (Defaults.reference_trace_intra ())
let ibp = lazy (Defaults.reference_trace_ibp ())

let fitted = lazy (Fit.fit_trace (Lazy.force intra))
let model () = fst (Lazy.force fitted)
let diagnostics () = snd (Lazy.force fitted)
let mpeg = lazy (Mpeg.fit (Lazy.force ibp))

(* A fresh master stream per experiment so experiment order does not
   change results. *)
let rng_for id = Rng.create ~seed:(Defaults.seed + Hashtbl.hash id)

(* Shared domain pool, sized by SS_DOMAINS (1 or unset = fully
   sequential; every estimate is bit-identical either way). *)
let the_pool =
  lazy
    (let d = Pool.env_domains () in
     if d <= 1 then None else Some (Pool.create ~domains:d))

let pool () = Lazy.force the_pool

let print_points ~header pts =
  pf "# %s\n" header;
  List.iter (fun (x, y) -> pf "%.6g  %.6g\n" x y) pts

let print_fit name (f : Reg.fit) =
  pf "# %s: slope=%.6g intercept=%.6g r2=%.4f n=%d\n" name f.Reg.slope f.Reg.intercept
    f.Reg.r2 f.Reg.n

(* Solve for the background twist that gives the foreground a target
   positive drift, so IS paths cross the buffer around 60%% of the
   horizon. Heuristic in the spirit of the paper's Section 4 (they
   sweep; we sweep in fig14 and reuse this elsewhere). *)
let auto_twist ~arrival ~service ~buffer ~horizon =
  let target_rate = service +. (buffer /. (0.6 *. float_of_int horizon)) in
  let mean_at m = Quad.gaussian_expectation (fun z -> arrival 0 (z +. m)) in
  let lo = ref 0.0 and hi = ref 8.0 in
  if mean_at !hi < target_rate then !hi
  else begin
    for _ = 1 to 40 do
      let mid = (!lo +. !hi) /. 2.0 in
      if mean_at mid < target_rate then lo := mid else hi := mid
    done;
    (!lo +. !hi) /. 2.0
  end

(* ------------------------------------------------------------------ *)
(* Table 1                                                              *)
(* ------------------------------------------------------------------ *)

let table1 () =
  pf "# table1: parameters of the reference (synthetic empirical) traces\n";
  pf "# paper: MPEG-1, 2h12m36s, 238626 frames, 30 fps, GOP IBBPBBPBBPBB\n";
  List.iter
    (fun (label, trace) ->
      let s = Trace.summarize trace in
      pf "## %s\n" label;
      pf "coder              scene-model rate simulator (MPEG-1-like)\n";
      pf "frames             %d\n" s.Trace.frames;
      pf "duration           %.0f s (%.1f min)\n" s.Trace.duration_s (s.Trace.duration_s /. 60.0);
      pf "frame rate         %.0f per second\n" trace.Trace.fps;
      pf "gop                %s\n" (Gop.to_string trace.Trace.gop);
      pf "mean bytes/frame   %.1f\n" s.Trace.mean_bytes;
      pf "peak bytes/frame   %.1f\n" s.Trace.peak_bytes;
      pf "std bytes/frame    %.1f\n" s.Trace.std_bytes;
      pf "mean rate          %.3f Mbit/s\n" (s.Trace.mean_rate_bps /. 1e6);
      pf "peak rate          %.3f Mbit/s\n" (s.Trace.peak_rate_bps /. 1e6);
      List.iter
        (fun (k, m) -> pf "mean %c bytes       %.1f\n" (Frame.to_char k) m)
        s.Trace.mean_by_kind)
    [ ("intraframe pass (Sections 3.1-3.2, 4)", Lazy.force intra);
      ("interframe I/B/P pass (Section 3.3)", Lazy.force ibp) ]

(* ------------------------------------------------------------------ *)
(* Figures 1-2: marginal distribution and transform                    *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  pf "# fig1: empirical marginal distribution (paper: long-tailed, bytes/frame)\n";
  let sizes = (Lazy.force intra).Trace.sizes in
  let h = Histogram.make ~bins:60 sizes in
  print_points ~header:"bytes/frame  frequency" (Histogram.to_points h)

let fig2 () =
  pf "# fig2: transform h(x) = F^-1(Phi(x)) for the reference marginal\n";
  let m = model () in
  let pts =
    List.init 49 (fun i ->
        let x = -6.0 +. (0.25 *. float_of_int i) in
        (x, Transform.apply1 m.Model.transform x))
  in
  print_points ~header:"x  h(x)" pts

(* ------------------------------------------------------------------ *)
(* Figures 3-4: Hurst estimation                                       *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  pf "# fig3: variance-time plot (paper: slope -0.223, H = 0.89)\n";
  let d = diagnostics () in
  let e = d.Fit.h_variance_time in
  print_points ~header:"log10(m)  log10(var(X^(m)))" e.Hurst.points;
  print_fit "least-squares" e.Hurst.fit;
  pf "# estimated H = %.3f\n" e.Hurst.h

let fig4 () =
  pf "# fig4: R/S pox diagram (paper: slope 0.929, H = 0.92)\n";
  let d = diagnostics () in
  let e = d.Fit.h_rs in
  print_points ~header:"log10(n)  log10(R/S)" e.Hurst.points;
  print_fit "least-squares" e.Hurst.fit;
  pf "# estimated H = %.3f\n" e.Hurst.h;
  pf "# adopted H = %.2f (combining fig3 and fig4, paper: 0.9)\n" d.Fit.h_adopted

(* ------------------------------------------------------------------ *)
(* Figures 5-8: autocorrelation modeling                               *)
(* ------------------------------------------------------------------ *)

let acf_pts ?(step = 5) sizes ~max_lag =
  let r = D.acf sizes ~max_lag in
  let rec go k acc = if k > max_lag then List.rev acc else go (k + step) ((float_of_int k, r.(k)) :: acc) in
  go 1 []

let fig5 () =
  pf "# fig5: empirical autocorrelation, lags 1..500 (paper: knee near lag 60-80)\n";
  print_points ~header:"lag  r(lag)" (acf_pts (Lazy.force intra).Trace.sizes ~max_lag:500)

let fig6 () =
  pf "# fig6: composite SRD+LRD fit of the autocorrelation\n";
  pf "# paper: r(k) = exp(-0.00565 k), k<60;  1.59 k^-0.2, k>=60\n";
  let d = diagnostics () in
  pf "# fitted: %s\n" (Format.asprintf "%a" Report.pp_params d.Fit.raw_fit);
  let f = d.Fit.raw_fit in
  pf "# lag  empirical  srd-curve  lrd-curve  composite\n";
  List.iter
    (fun (k, r) ->
      let kk = int_of_float k in
      pf "%4.0f  %.4f  %.4f  %.4f  %.4f\n" k r
        (exp (-.f.Acf_fit.lambda *. k))
        (Stdlib.min 1.0 (f.Acf_fit.l *. (k ** -.f.Acf_fit.beta)))
        (Acf_fit.eval f kk))
    (acf_pts (Lazy.force intra).Trace.sizes ~max_lag:500)

let fig7 () =
  pf "# fig7: attenuation of the autocorrelation through h (paper: a = 0.94)\n";
  let m = model () in
  let d = diagnostics () in
  let acf = Acf_fit.to_acf d.Fit.raw_fit in
  let n = 32_768 in
  let x = DH.generate (DH.plan ~acf ~n ()) (rng_for "fig7") in
  let y = Transform.apply m.Model.transform x in
  let rx = D.acf x ~max_lag:500 and ry = D.acf y ~max_lag:500 in
  pf "# lag  r_X  r_Y  ratio\n";
  let rec go k =
    if k <= 500 then begin
      let ratio = if abs_float rx.(k) > 1e-6 then ry.(k) /. rx.(k) else nan in
      pf "%4d  %.4f  %.4f  %.4f\n" k rx.(k) ry.(k) ratio;
      go (k + 10)
    end
  in
  go 10;
  pf "# attenuation (Gauss-Hermite quadrature) a = %.4f\n" (Transform.attenuation m.Model.transform);
  (* Measured as the paper's Step 3 does: ratio at large lags,
     averaged (here from the same path). *)
  let lags = List.init 10 (fun i -> 200 + (30 * i)) in
  let ratios =
    List.filter_map
      (fun k -> if abs_float rx.(k) > 1e-6 then Some (ry.(k) /. rx.(k)) else None)
      lags
  in
  let measured = List.fold_left ( +. ) 0.0 ratios /. float_of_int (List.length ratios) in
  pf "# attenuation (measured at large lags)  a = %.4f\n" measured

let fig8 () =
  pf "# fig8: empirical vs final synthetic autocorrelation (after Step 4 compensation)\n";
  let m = model () in
  let sizes = (Lazy.force intra).Trace.sizes in
  let n = Array.length sizes in
  let synth = Generate.foreground m ~n Generate.Davies_harte (rng_for "fig8") in
  let re = D.acf sizes ~max_lag:500 and rs = D.acf synth ~max_lag:500 in
  pf "# lag  empirical  synthetic\n";
  let rec go k =
    if k <= 500 then begin
      pf "%4d  %.4f  %.4f\n" k re.(k) rs.(k);
      go (k + 5)
    end
  in
  go 1

(* ------------------------------------------------------------------ *)
(* Figures 9-13: composite I/B/P model                                 *)
(* ------------------------------------------------------------------ *)

let composite_synth =
  lazy
    (let m = Lazy.force mpeg in
     Mpeg.generate m ~n:(Trace.length (Lazy.force ibp)) (rng_for "composite"))

let fig_composite_acf ~id ~lo ~hi () =
  pf "# %s: composite model vs empirical trace autocorrelation, lags %d..%d\n" id lo hi;
  let re = D.acf (Lazy.force ibp).Trace.sizes ~max_lag:hi in
  let rs = D.acf (Lazy.force composite_synth).Trace.sizes ~max_lag:hi in
  pf "# lag  empirical  synthetic\n";
  let rec go k =
    if k <= hi then begin
      pf "%4d  %.4f  %.4f\n" k re.(k) rs.(k);
      go (k + 1)
    end
  in
  go lo

let fig9 = fig_composite_acf ~id:"fig9" ~lo:1 ~hi:150
let fig10 = fig_composite_acf ~id:"fig10" ~lo:151 ~hi:300
let fig11 = fig_composite_acf ~id:"fig11" ~lo:301 ~hi:490

let fig12 () =
  pf "# fig12: marginal histograms, composite model vs empirical trace\n";
  let emp = (Lazy.force ibp).Trace.sizes in
  let synth = (Lazy.force composite_synth).Trace.sizes in
  let hi = D.quantile emp 0.999 in
  let h_emp = Histogram.make ~bins:50 ~range:(0.0, hi) emp in
  let h_syn = Histogram.make ~bins:50 ~range:(0.0, hi) synth in
  pf "# bytes/frame  empirical-freq  synthetic-freq\n";
  List.iter2
    (fun (x, fe) (_, fs) -> pf "%8.1f  %.5f  %.5f\n" x fe fs)
    (Histogram.to_points h_emp) (Histogram.to_points h_syn)

let fig13 () =
  pf "# fig13: Q-Q plot, composite model vs empirical trace\n";
  let emp = Empirical.of_data (Lazy.force ibp).Trace.sizes in
  let syn = Empirical.of_data (Lazy.force composite_synth).Trace.sizes in
  print_points ~header:"empirical-quantile  synthetic-quantile" (Empirical.qq emp syn ~n:40)

(* ------------------------------------------------------------------ *)
(* Figures 14-17: queueing and importance sampling                     *)
(* ------------------------------------------------------------------ *)

let fig14 () =
  pf "# fig14: IS normalized variance vs twisted mean m*\n";
  pf "# paper: k=500, uti=0.2, b=25 (normalized), 1000 replications; valley at m*=3.2,\n";
  pf "#        variance reduction ~1000x\n";
  let m = model () in
  let mean = m.Model.mean in
  let table = Generate.table m ~n:500 in
  let arrival = Generate.arrival_fn m in
  let config ~twist =
    Is.make_config ~table ~arrival ~service:(mean /. 0.2) ~buffer:(25.0 *. mean)
      ~horizon:500 ~twist ()
  in
  let twists = List.init 10 (fun i -> 0.5 *. float_of_int (i + 1)) in
  let points = Valley.sweep ?pool:(pool ()) ~config ~twists ~replications:reps (rng_for "fig14") in
  pf "# m*  p  normalized-variance  hits/%d\n" reps;
  List.iter
    (fun p ->
      pf "%4.1f  %.4g  %.4g  %d\n" p.Valley.twist p.Valley.estimate.Mc.p
        p.Valley.estimate.Mc.normalized_variance p.Valley.estimate.Mc.hits)
    points;
  let best = Valley.best points in
  pf "# best twist m* = %.1f (paper: 3.2)\n" best.Valley.twist;
  (* Variance reduction vs plain MC: a Bernoulli(p) indicator has
     normalized variance (1-p)/p. *)
  let p = best.Valley.estimate.Mc.p in
  if p > 0.0 then
    pf "# variance reduction vs plain MC: %.0fx (paper: ~1000x)\n"
      ((1.0 -. p) /. p /. best.Valley.estimate.Mc.normalized_variance)

let fig15 () =
  pf "# fig15: transient overflow probability, empty vs full initial buffer\n";
  pf "# paper: uti=0.4, b=200 (normalized), 1000 replications, k up to 2000\n";
  let m = model () in
  let mean = m.Model.mean in
  let horizon_max = 2000 in
  let table = Generate.table m ~n:horizon_max in
  let arrival = Generate.arrival_fn m in
  let service = mean /. 0.4 in
  let buffer = 200.0 *. mean in
  pf "# k  log10(p)-empty  log10(p)-full\n";
  let rng = rng_for "fig15" in
  List.iter
    (fun k ->
      let twist = auto_twist ~arrival ~service ~buffer ~horizon:k in
      let run full_start =
        let cfg =
          Is.make_config ~table ~arrival ~service ~buffer ~horizon:k ~twist ~full_start ()
        in
        (Is.estimate ?pool:(pool ()) cfg ~replications:reps (Rng.split rng)).Mc.p
      in
      let p_empty = run false and p_full = run true in
      let l p = if p > 0.0 then log10 p else nan in
      pf "%5d  %7.3f  %7.3f\n" k (l p_empty) (l p_full))
    [ 100; 200; 400; 600; 800; 1000; 1200; 1400; 1600; 1800; 2000 ]

let utilizations = [ 0.2; 0.4; 0.6; 0.8 ]
let fig16_buffers = [ 10.0; 25.0; 50.0; 100.0; 150.0; 200.0; 250.0 ]

let overflow_is model_ ~utilization ~buffer_norm ~rng =
  let mean = model_.Model.mean in
  let horizon = Stdlib.max 100 (int_of_float (10.0 *. buffer_norm)) in
  let table = Generate.table model_ ~n:2500 in
  let arrival = Generate.arrival_fn model_ in
  let service = mean /. utilization in
  let buffer = buffer_norm *. mean in
  let twist = auto_twist ~arrival ~service ~buffer ~horizon in
  let cfg = Is.make_config ~table ~arrival ~service ~buffer ~horizon ~twist () in
  Is.estimate ?pool:(pool ()) cfg ~replications:reps rng

let fig16 () =
  pf "# fig16: overflow probability vs normalized buffer size, model vs trace\n";
  pf "# paper: k=10b, 1000 replications; trace curves from one long run\n";
  let m = model () in
  let sizes = (Lazy.force intra).Trace.sizes in
  let rng = rng_for "fig16" in
  let first = ref true in
  List.iter
    (fun uti ->
      (* Two blank lines = a new gnuplot dataset (for `index`). *)
      if not !first then pf "\n\n";
      first := false;
      pf "## utilization %.1f\n" uti;
      let qp = Trace_sim.queue_path ~arrivals:sizes ~utilization:uti in
      pf "# b  log10(p)-model  log10(p)-trace\n";
      List.iter
        (fun b ->
          let e = overflow_is m ~utilization:uti ~buffer_norm:b ~rng:(Rng.split rng) in
          let p_trace =
            Trace_sim.overflow_fraction ~queue_path:qp
              ~buffer:(b *. D.mean sizes)
          in
          let l p = if p > 0.0 then log10 p else nan in
          pf "%5.0f  %7.3f  %7.3f\n" b (l e.Mc.p) (l p_trace))
        fig16_buffers)
    utilizations

let fig17 () =
  pf "# fig17: model comparison at uti=0.6 - SRD+LRD vs SRD-only vs LRD-only (FGN) vs trace\n";
  pf "# paper: SRD-only decays much faster at large buffers; FGN-only too low at small buffers\n";
  let m = model () in
  let d = diagnostics () in
  let variants =
    [
      ("srd+lrd", m);
      ("srd-only", Model.with_dependence m (Model.Srd_only d.Fit.raw_fit.Acf_fit.lambda));
      ("lrd-only", Model.with_dependence m (Model.Lrd_only m.Model.hurst));
    ]
  in
  let sizes = (Lazy.force intra).Trace.sizes in
  let qp = Trace_sim.queue_path ~arrivals:sizes ~utilization:0.6 in
  let rng = rng_for "fig17" in
  pf "# b  log10(p):srd+lrd  srd-only  lrd-only  trace\n";
  List.iter
    (fun b ->
      let l p = if p > 0.0 then log10 p else nan in
      let ps =
        List.map
          (fun (_, variant) ->
            l (overflow_is variant ~utilization:0.6 ~buffer_norm:b ~rng:(Rng.split rng)).Mc.p)
          variants
      in
      let p_trace = l (Trace_sim.overflow_fraction ~queue_path:qp ~buffer:(b *. D.mean sizes)) in
      match ps with
      | [ a; b'; c ] -> pf "%5.0f  %7.3f  %7.3f  %7.3f  %7.3f\n" b a b' c p_trace
      | _ -> assert false)
    fig16_buffers

(* ------------------------------------------------------------------ *)
(* Ablations                                                            *)
(* ------------------------------------------------------------------ *)

let time_it f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let acf_error ~acf sample ~max_lag =
  let r = D.acf sample ~max_lag in
  let s = ref 0.0 in
  for k = 1 to max_lag do
    let e = r.(k) -. acf.Acf.r k in
    s := !s +. (e *. e)
  done;
  sqrt (!s /. float_of_int max_lag)

let abl_gen () =
  pf "# abl-gen: generator comparison on FGN H=0.9, n=4096 (time per path, RMS ACF error to lag 50)\n";
  pf "# note: the error metric includes LRD realization noise; the truncated-AR\n";
  pf "# variant scores lower because it *underestimates* the long-range tail,\n";
  pf "# which also shrinks the variance of its sample ACF - see abl-trunc.\n";
  let acf = Acf.fgn ~h:0.9 in
  let n = 4096 in
  let rng = rng_for "abl-gen" in
  let table, t_table = time_it (fun () -> Hosking.Table.make ~acf ~n) in
  pf "# hosking table build: %.3f s (amortized across replications)\n" t_table;
  let paths = 8 in
  let bench name gen =
    let errs = ref 0.0 and time = ref 0.0 in
    for _ = 1 to paths do
      let x, t = time_it (fun () -> gen (Rng.split rng)) in
      errs := !errs +. acf_error ~acf x ~max_lag:50;
      time := !time +. t
    done;
    pf "%-18s  %8.4f s/path  rms-acf-err %.4f\n" name (!time /. float_of_int paths)
      (!errs /. float_of_int paths)
  in
  bench "hosking-table" (fun rng -> Hosking.generate table rng);
  bench "hosking-stream" (fun rng -> Hosking.generate_stream ~acf ~n rng);
  let plan = DH.plan ~acf ~n () in
  bench "davies-harte" (fun rng -> DH.generate plan rng);
  bench "truncated-ar(64)" (fun rng -> Hosking.generate_truncated ~acf ~n ~max_order:64 rng)

let abl_knee () =
  pf "# abl-knee: effect of the knee lag on queueing (uti=0.6, b=100, k=1000)\n";
  let sizes = (Lazy.force intra).Trace.sizes in
  let d = diagnostics () in
  let rng = rng_for "abl-knee" in
  let acf_points = d.Fit.acf_points in
  pf "# knee  lambda  l  log10(p)\n";
  List.iter
    (fun knee ->
      let f = Acf_fit.fit ~knee_candidates:[ knee ] ~fixed_beta:d.Fit.raw_fit.Acf_fit.beta acf_points in
      let transform = (model ()).Model.transform in
      let dependence = Model.Srd_lrd f in
      let m =
        {
          (model ()) with
          Model.dependence;
          background = Model.background_of_dependence ~transform dependence;
        }
      in
      let e = overflow_is m ~utilization:0.6 ~buffer_norm:100.0 ~rng:(Rng.split rng) in
      pf "%5d  %.5f  %.3f  %7.3f\n" knee f.Acf_fit.lambda f.Acf_fit.l
        (if e.Mc.p > 0.0 then log10 e.Mc.p else nan))
    [ 20; 40; 60; 100; 150 ];
  ignore sizes

let abl_atten () =
  pf "# abl-atten: Step-4 compensation methods - paper Eq 14 (divide by a) vs exact Hermite inversion\n";
  let m = model () in
  let d = diagnostics () in
  let sizes = (Lazy.force intra).Trace.sizes in
  let n = Array.length sizes in
  let re = D.acf sizes ~max_lag:300 in
  let compare_method name acf_bg =
    match DH.plan ~acf:acf_bg ~n () with
    | exception Invalid_argument msg -> pf "%-12s  NOT GENERATABLE (%s)\n" name msg
    | plan ->
      let synth = Transform.apply m.Model.transform (DH.generate plan (rng_for ("abl-atten-" ^ name))) in
      let rs = D.acf synth ~max_lag:300 in
      let s = ref 0.0 in
      for k = 1 to 300 do
        let e = rs.(k) -. re.(k) in
        s := !s +. (e *. e)
      done;
      pf "%-12s  rms ACF error vs empirical (lags 1-300): %.4f\n" name
        (sqrt (!s /. 300.0))
  in
  pf "# quadrature a = %.4f\n" d.Fit.attenuation;
  compare_method "eq14" (Acf_fit.to_acf d.Fit.compensated);
  compare_method "hermite" (Model.background_acf m);
  compare_method "none" (Acf_fit.to_acf d.Fit.raw_fit)

let abl_trunc () =
  pf "# abl-trunc: truncated-AR Hosking approximation (FGN H=0.9, n=8192)\n";
  let acf = Acf.fgn ~h:0.9 in
  let n = 8192 in
  let rng = rng_for "abl-trunc" in
  pf "# max_order  s/path  rms-acf-err(lag<=100)\n";
  List.iter
    (fun order ->
      let x, t = time_it (fun () -> Hosking.generate_truncated ~acf ~n ~max_order:order (Rng.split rng)) in
      pf "%6d  %8.4f  %.4f\n" order t (acf_error ~acf x ~max_lag:100))
    [ 8; 32; 128; 512 ];
  let x, t = time_it (fun () -> Hosking.generate_stream ~acf ~n (Rng.split rng)) in
  pf "# exact  %8.4f  %.4f\n" t (acf_error ~acf x ~max_lag:100)

let abl_hurst () =
  pf "# abl-hurst: estimator shoot-out on FGN paths with known H (n=32768)\n";
  pf "# true-H  variance-time  R/S  periodogram  whittle\n";
  List.iter
    (fun h ->
      let x =
        DH.generate (DH.plan ~acf:(Acf.fgn ~h) ~n:32_768 ())
          (rng_for (Printf.sprintf "abl-hurst-%g" h))
      in
      let vt = (Hurst.variance_time ?pool:(pool ()) x).Hurst.h in
      let rs = (Hurst.rs ?pool:(pool ()) x).Hurst.h in
      let pg = (Hurst.periodogram x).Hurst.h in
      let wh = (Ss_fractal.Whittle.estimate x).Ss_fractal.Whittle.h in
      pf "%6.2f  %8.3f  %8.3f  %8.3f  %8.3f\n" h vt rs pg wh)
    [ 0.6; 0.7; 0.8; 0.9 ];
  let sizes = (Lazy.force intra).Trace.sizes in
  let wh = (Ss_fractal.Whittle.estimate sizes).Ss_fractal.Whittle.h in
  pf "# reference trace: whittle H = %.3f (vs VT %.3f, R/S %.3f)\n" wh
    (diagnostics ()).Fit.h_variance_time.Hurst.h (diagnostics ()).Fit.h_rs.Hurst.h

let abl_farima () =
  pf "# abl-farima: FARIMA(1,d,0) baseline vs the paper's direct composite fit\n";
  pf "# (the paper's Section 1 argument: ARIMA(p,d,q) can carry SRD+LRD too,\n";
  pf "# but its parameters are awkward to pin to an empirical ACF)\n";
  let d = diagnostics () in
  let sizes = (Lazy.force intra).Trace.sizes in
  let re = D.acf sizes ~max_lag:300 in
  let frac_d = (model ()).Model.hurst -. 0.5 in
  (* Moment-match the single AR coefficient against the empirical ACF
     by grid search. *)
  let sse_of phi =
    let f = Ss_fractal.Farima_pq.create ~d:frac_d ~ar:(if phi = 0.0 then [||] else [| phi |]) ~ma:[||] in
    let acf = Ss_fractal.Farima_pq.acf f in
    let s = ref 0.0 in
    for k = 1 to 300 do
      let e = acf.Acf.r k -. re.(k) in
      s := !s +. (e *. e)
    done;
    (f, !s)
  in
  let candidates = List.init 10 (fun i -> 0.1 *. float_of_int i) in
  let best_phi, (best_f, best_sse) =
    List.fold_left
      (fun (bphi, (bf, bsse)) phi ->
        let f, sse = sse_of phi in
        if sse < bsse then (phi, (f, sse)) else (bphi, (bf, bsse)))
      (0.0, sse_of 0.0) candidates
  in
  let composite_sse =
    let acf = Acf_fit.to_acf d.Fit.raw_fit in
    let s = ref 0.0 in
    for k = 1 to 300 do
      let e = acf.Acf.r k -. re.(k) in
      s := !s +. (e *. e)
    done;
    !s
  in
  pf "composite fit         sse(1..300) = %.4f  [%s]\n" composite_sse
    (Format.asprintf "%a" Report.pp_params d.Fit.raw_fit);
  pf "farima(1,%.2f,0) phi=%.1f (grid)  sse(1..300) = %.4f\n" frac_d best_phi best_sse;
  (* The actual estimation route (Whittle d + Hannan-Rissanen ARMA) on
     the trace itself. *)
  let hr = Ss_fractal.Farima_fit.fit ~p:1 ~q:1 sizes in
  let hr_acf = Ss_fractal.Farima_pq.acf hr.Ss_fractal.Farima_fit.model in
  let hr_sse =
    let s = ref 0.0 in
    for k = 1 to 300 do
      let e = hr_acf.Acf.r k -. re.(k) in
      s := !s +. (e *. e)
    done;
    !s
  in
  pf "farima(1,d,1) Hannan-Rissanen: d=%.3f phi=%.3f theta=%.3f  sse(1..300) = %.4f\n"
    hr.Ss_fractal.Farima_fit.d
    hr.Ss_fractal.Farima_fit.ar.(0)
    hr.Ss_fractal.Farima_fit.ma.(0) hr_sse;
  pf "# (HR assumes a Gaussian ARMA; run directly on the heavy-tailed foreground\n";
  pf "# it badly overestimates the memory - precisely the estimation difficulty\n";
  pf "# the paper cites as motivation for fitting the ACF directly)\n";
  let facf = Ss_fractal.Farima_pq.acf best_f in
  pf "# lag  empirical  composite  farima-grid  farima-HR\n";
  List.iter
    (fun k ->
      pf "%4d  %.4f  %.4f  %.4f  %.4f\n" k re.(k) (Acf_fit.eval d.Fit.raw_fit k)
        (facf.Acf.r k) (hr_acf.Acf.r k))
    [ 1; 5; 10; 25; 50; 100; 200; 300 ]

let abl_trad () =
  pf "# abl-trad: traditional (Markovian/TES) baselines vs the self-similar model\n";
  pf "# (the Section-1 claim: exponential-ACF models cannot hold the ACF at long lags)\n";
  let sizes = (Lazy.force intra).Trace.sizes in
  let re = D.acf sizes ~max_lag:400 in
  let n = 65_536 in
  (* DAR(1) with rho matched to the empirical lag-1 autocorrelation. *)
  let dar = Ss_video.Dar.of_trace_marginal ~rho:re.(1) sizes in
  let x_dar = Ss_video.Dar.generate dar ~n (rng_for "abl-trad-dar") in
  let r_dar = D.acf x_dar ~max_lag:400 in
  (* TES with innovation bandwidth matched to the same lag-1 value
     (bisection on the analytic background ACF). *)
  let target = re.(1) in
  let hw =
    let lo = ref 0.001 and hi = ref 0.5 in
    for _ = 1 to 40 do
      let mid = (!lo +. !hi) /. 2.0 in
      if Ss_fractal.Tes.background_acf ~half_width:mid 1 > target then lo := mid else hi := mid
    done;
    (!lo +. !hi) /. 2.0
  in
  let tes =
    Ss_fractal.Tes.create ~half_width:hw
      ~dist:(Ss_stats.Dist.of_empirical (Empirical.of_data sizes))
      ()
  in
  let x_tes = Ss_fractal.Tes.generate tes ~n (rng_for "abl-trad-tes") in
  let r_tes = D.acf x_tes ~max_lag:400 in
  (* The unified model's synthetic trace. *)
  let x_ss = Generate.foreground (model ()) ~n Generate.Davies_harte (rng_for "abl-trad-ss") in
  let r_ss = D.acf x_ss ~max_lag:400 in
  pf "# dar rho = %.4f; tes half-width = %.4f (both matched to r(1) = %.4f)\n" re.(1) hw target;
  pf "# lag  empirical  unified  dar(1)  tes\n";
  List.iter
    (fun k -> pf "%4d  %.4f  %.4f  %.4f  %.4f\n" k re.(k) r_ss.(k) r_dar.(k) r_tes.(k))
    [ 1; 5; 10; 25; 50; 100; 200; 400 ];
  (* Queueing consequence at uti 0.6, b = 100 mean units. *)
  let frac arrivals =
    let qp = Trace_sim.queue_path ~arrivals ~utilization:0.6 in
    Trace_sim.overflow_fraction ~queue_path:qp ~buffer:(100.0 *. D.mean arrivals)
  in
  pf "# single-run Pr(Q > 100 mean units) at uti 0.6:\n";
  pf "# empirical %.4g | unified %.4g | dar %.4g | tes %.4g\n" (frac sizes) (frac x_ss)
    (frac x_dar) (frac x_tes)

let abl_marg () =
  pf "# abl-marg: marginal modeling - histogram inversion (the paper) vs\n";
  pf "# parametric Gamma/Pareto (Garrett-Willinger '94) vs lognormal\n";
  let sizes = (Lazy.force intra).Trace.sizes in
  let emp = Empirical.of_data sizes in
  let models =
    [
      ("histogram", Ss_stats.Dist.of_empirical emp);
      ("gamma/pareto", Ss_stats.Fit_dist.gamma_pareto_auto sizes);
      ( "lognormal",
        let mu, sigma = Ss_stats.Fit_dist.lognormal_mle sizes in
        Ss_stats.Dist.lognormal ~mu ~sigma );
      ( "gamma",
        let shape, scale = Ss_stats.Fit_dist.gamma_mle sizes in
        Ss_stats.Dist.gamma ~shape ~scale );
    ]
  in
  pf "# model  KS-vs-data  log-likelihood/n  q(0.99)  q(0.9999)\n";
  List.iter
    (fun (name, dist) ->
      let rng = rng_for ("abl-marg-" ^ name) in
      let sample = Array.init 32_768 (fun _ -> dist.Ss_stats.Dist.sample rng) in
      let ks = Empirical.ks_distance emp (Empirical.of_data sample) in
      let ll =
        Ss_stats.Fit_dist.log_likelihood dist sizes /. float_of_int (Array.length sizes)
      in
      pf "%-14s  %.4f  %10.4f  %9.0f  %9.0f\n" name ks ll
        (dist.Ss_stats.Dist.quantile 0.99)
        (dist.Ss_stats.Dist.quantile 0.9999))
    models;
  pf "# (data quantiles: q(0.99) = %.0f, q(0.9999) = %.0f)\n"
    (Empirical.quantile emp 0.99) (Empirical.quantile emp 0.9999)

let abl_mux () =
  pf "# abl-mux: statistical multiplexing of N independent model sources\n";
  pf "# (total utilization held at 0.7; buffer normalized by the *aggregate* mean)\n";
  let m = model () in
  let n_slots = 65_536 in
  let rng = rng_for "abl-mux" in
  pf "# sources  peak/mean  Pr(Q > 20)  Pr(Q > 100)\n";
  List.iter
    (fun sources ->
      let agg =
        Ss_queueing.Workload.superpose_gen
          (fun sub -> Generate.foreground m ~n:n_slots Generate.Davies_harte sub)
          ~sources (Rng.split rng)
      in
      let qp = Trace_sim.queue_path ~arrivals:agg ~utilization:0.7 in
      let frac b = Trace_sim.overflow_fraction ~queue_path:qp ~buffer:(b *. D.mean agg) in
      pf "%8d  %9.2f  %10.4g  %11.4g\n" sources
        (Ss_queueing.Workload.peak_to_mean agg)
        (frac 20.0) (frac 100.0))
    [ 1; 4; 16 ]

let mux_gain () =
  pf "# mux-gain: streaming multiplexer (lib/mux) - per-source overflow vs number of\n";
  pf "# sources at fixed per-source utilization, Norros FBM prediction overlaid\n";
  let m = model () in
  let u = 0.7 and slots = 32_768 and order = 256 in
  let mean = m.Model.mean in
  pf "# per-source utilization %.1f; total buffer = N * b * mean; %d slots, AR order %d\n"
    u slots order;
  let ns = [| 1; 2; 4; 8; 16 |] in
  (* One substream per N-cell, split in cell order on the caller, and
     each cell buffers its own output: the grid is bit-identical
     whether the cells run sequentially or as pool jobs, at any
     domain count. *)
  let subs = Rng.split_n (rng_for "mux-gain") (Array.length ns) in
  let cell idx =
    let n = ns.(idx) in
    let rng = subs.(idx) in
    let buf = Buffer.create 512 in
    let srcs =
      Array.init n (fun i ->
          Ss_mux.Source.of_model ~name:(Printf.sprintf "s%d" i) ~order m (Rng.split rng))
    in
    let service = float_of_int n *. mean /. u in
    let bs = [ 25.0; 50.0; 100.0 ] in
    let thresholds = List.map (fun b -> b *. mean *. float_of_int n) bs in
    let report = Ss_mux.Mux.run ~thresholds ~service ~slots srcs in
    let load = Array.to_list (Array.map Ss_mux.Admission.descr_of_source srcs) in
    List.iter2
      (fun b (thr, p) ->
        let norros = Ss_mux.Admission.predicted_overflow ~service ~buffer:thr load in
        let l x = if x > 0.0 then log10 x else nan in
        Printf.bprintf buf "%3d  %8.0f  %9.3f  %9.3f\n" n b (l p) (l norros))
      bs report.Ss_mux.Mux.overflow;
    Buffer.contents buf
  in
  pf "# N  b(per-source)  log10 Pr(Q>B) sim  log10 norros\n";
  let outputs =
    match pool () with
    | Some p when Pool.size p > 1 ->
      Pool.run p (Array.init (Array.length ns) (fun i () -> cell i))
    | _ -> Array.init (Array.length ns) cell
  in
  Array.iter print_string outputs;
  pf "# log overflow scales ~linearly in N (Norros: log p proportional to -N):\n";
  pf "# the same per-source buffer and utilization buy ever-rarer losses as\n";
  pf "# sources are added - the statistical multiplexing gain of Section 1.\n"

(* ------------------------------------------------------------------ *)
(* mux-is: importance sampling fills the rare mux-gain cells           *)
(* ------------------------------------------------------------------ *)

(* The large-N mux-gain cells (N >= 8, deep per-source buffers) record
   zero exceedances in the 32768-slot plain run — the events are below
   Monte-Carlo resolution. This experiment estimates the transient
   first-passage probability of the shared queue from empty within a
   10b-slot horizon via Ss_mux.Mux_is, with the per-source twist from
   the same drift heuristic as fig15 applied to the per-source share
   of service and buffer (so the twisted aggregate crosses around 60%
   of the horizon). Plain MC (twist 0) runs on the identical event at
   the identical replication budget to document its hit count. *)
let mux_is_cell ~n ~b ~order ~replications rng =
  let m = model () in
  let u = 0.7 in
  let mean = m.Model.mean in
  let service = float_of_int n *. mean /. u in
  let buffer = b *. mean *. float_of_int n in
  let slots = Stdlib.max 100 (int_of_float (10.0 *. b)) in
  let arrival = Generate.arrival_fn m in
  let twist = auto_twist ~arrival ~service:(mean /. u) ~buffer:(b *. mean) ~horizon:slots in
  let cfg twist =
    Ss_mux.Mux_is.make_config ~model:m ~sources:n ~order ~service ~buffer ~slots ~twist ()
  in
  let sub_is = Rng.split rng in
  let sub_mc = Rng.split rng in
  let e_is = Ss_mux.Mux_is.estimate ?pool:(pool ()) (cfg twist) ~replications sub_is in
  let e_mc = Ss_mux.Mux_is.estimate ?pool:(pool ()) (cfg 0.0) ~replications sub_mc in
  (twist, slots, e_is, e_mc)

let rel_halfwidth_95 (e : Mc.estimate) =
  if e.Mc.p > 0.0 then
    1.96 *. sqrt (e.Mc.variance /. float_of_int e.Mc.replications) /. e.Mc.p
  else nan

let mux_is () =
  pf "# mux-is: importance-sampled shared-buffer overflow for the mux-gain cells\n";
  pf "# plain MC leaves empty; event = first passage of the shared queue above\n";
  pf "# B = N*b*mean within k = 10b slots from empty (per-source utilization 0.7)\n";
  let cells = [ (8, 50.0); (8, 100.0); (16, 25.0); (16, 50.0); (16, 100.0) ] in
  let order = 256 in
  let subs = Rng.split_n (rng_for "mux-is") (List.length cells) in
  pf "#  N    b     k    m*   log10 p(IS)  hits(IS)   nvar  rel95  hits(MC, same budget)\n";
  let rows =
    List.mapi
      (fun i (n, b) ->
        (* The deepest cells get twice the budget: rarer events keep
           the relative half-width under 50% (plain MC still records
           nothing there). *)
        let replications = if n >= 16 then 2 * reps else reps in
        let twist, slots, e_is, e_mc =
          mux_is_cell ~n ~b ~order ~replications subs.(i)
        in
        let rel = rel_halfwidth_95 e_is in
        pf "%4d  %3.0f  %4d  %4.2f  %11.3f  %5d/%d  %6.1f  %5.2f  %d/%d\n" n b slots twist
          (if e_is.Mc.p > 0.0 then log10 e_is.Mc.p else nan)
          e_is.Mc.hits replications e_is.Mc.normalized_variance rel e_mc.Mc.hits replications;
        (n, b, slots, twist, replications, e_is, e_mc))
      cells
  in
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "{\n  \"machine\": %s,\n  \"cells\": [\n" (machine_json ());
  let last = List.length rows - 1 in
  List.iteri
    (fun i (n, b, slots, twist, replications, e_is, e_mc) ->
      Printf.bprintf buf
        "    {\"sources\": %d, \"buffer_per_source\": %s, \"slots\": %d, \"twist\": %s, \
         \"replications\": %d, \"p_is\": %s, \"hits_is\": %d, \"nvar_is\": %s, \
         \"rel_halfwidth_95\": %s, \"p_mc\": %s, \"hits_mc\": %d}%s\n"
        n (jf b) slots
        (jf ~decimals:4 twist)
        replications (jf e_is.Mc.p) e_is.Mc.hits
        (jf e_is.Mc.normalized_variance)
        (jf ~decimals:4 (rel_halfwidth_95 e_is))
        (jf e_mc.Mc.p) e_mc.Mc.hits
        (if i = last then "" else ","))
    rows;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out "BENCH_mux_is.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  pf "# wrote BENCH_mux_is.json\n"

(* Seconds-scale CI gate: on a moderately-rare overflow both plain MC
   and IS record events, and the two estimates must agree within
   their joint 3-sigma band — a cheap end-to-end check that the
   streaming likelihood reweighting is unbiased. *)
let mux_is_smoke () =
  pf "# mux-is-smoke: IS vs plain MC on a moderately-rare mux overflow\n";
  let m = model () in
  let n = 4 and u = 0.7 and b = 35.0 and order = 64 in
  let mean = m.Model.mean in
  let service = float_of_int n *. mean /. u in
  let buffer = b *. mean *. float_of_int n in
  let slots = 250 in
  let twist = 0.3 in
  let cfg twist =
    Ss_mux.Mux_is.make_config ~model:m ~sources:n ~order ~service ~buffer ~slots ~twist ()
  in
  let rng = rng_for "mux-is-smoke" in
  let reps_is = 400 and reps_mc = 2000 in
  let e_is = Ss_mux.Mux_is.estimate ?pool:(pool ()) (cfg twist) ~replications:reps_is (Rng.split rng) in
  let e_mc = Ss_mux.Mux_is.estimate ?pool:(pool ()) (cfg 0.0) ~replications:reps_mc (Rng.split rng) in
  pf "# IS  m*=%.2f  p=%.4g  hits=%d/%d  nvar=%.3g\n" twist e_is.Mc.p e_is.Mc.hits reps_is
    e_is.Mc.normalized_variance;
  pf "# MC         p=%.4g  hits=%d/%d  nvar=%.3g\n" e_mc.Mc.p e_mc.Mc.hits reps_mc
    e_mc.Mc.normalized_variance;
  if e_is.Mc.hits = 0 then failwith "mux-is-smoke: IS recorded no events";
  if e_mc.Mc.hits = 0 then failwith "mux-is-smoke: MC recorded no events";
  let band =
    3.0
    *. sqrt
         ((e_is.Mc.variance /. float_of_int reps_is)
         +. (e_mc.Mc.variance /. float_of_int reps_mc))
  in
  let diff = abs_float (e_is.Mc.p -. e_mc.Mc.p) in
  pf "# |p_is - p_mc| = %.4g, joint 3-sigma band = %.4g\n" diff band;
  if diff > band then failwith "mux-is-smoke: IS and MC disagree beyond 3 sigma";
  pf "# agreement within 3 sigma\n"

(* ------------------------------------------------------------------ *)
(* police: fault injection and measurement-based policing              *)
(* ------------------------------------------------------------------ *)

(* Fresh-but-identical fixtures per run: every run rebuilds its
   sources from the same fixed seed, so the three scenarios (clean,
   faulted, faulted+policed) see bit-identical clean traffic and the
   only difference is the injected fault and the policer's
   sanctions. *)
let police_sources ~tag ~n ~order m =
  let sub = Rng.create ~seed:(Defaults.seed + Hashtbl.hash tag) in
  Array.init n (fun i ->
      Ss_mux.Source.of_model ~name:(Printf.sprintf "s%d" i) ~order m (Rng.split sub))

let police_fault_rng tag = Rng.create ~seed:(Defaults.seed + Hashtbl.hash (tag ^ "-fault"))

(* Smallest buffer whose Norros prediction for the aggregate is at or
   below epsilon (predicted_overflow is decreasing in the buffer). *)
let solve_norros_buffer ~service ~epsilon load =
  let pred b = Ss_mux.Admission.predicted_overflow ~service ~buffer:b load in
  let hi = ref 1.0 in
  while pred !hi > epsilon do hi := !hi *. 2.0 done;
  let lo = ref (!hi /. 2.0) in
  for _ = 1 to 60 do
    let mid = 0.5 *. (!lo +. !hi) in
    if pred mid > epsilon then lo := mid else hi := mid
  done;
  !hi

let police () =
  pf "# police: overflow protection from measurement-based policing under an\n";
  pf "# injected mean-drift fault (one of N sources ramps to drift_factor x mean)\n";
  let m = model () in
  let n = 8 and u = 0.7 and order = 128 and slots = 50_000 in
  let epsilon = 1e-2 in
  let fault_start = 10_000 and ramp = 1_000 and factor = 3.0 in
  let window = Ss_mux.Police.default.Ss_mux.Police.window in
  let mean = m.Model.mean in
  let service = float_of_int n *. mean /. u in
  let mk () = police_sources ~tag:"police-src" ~n ~order m in
  let load = Array.to_list (Array.map Ss_mux.Admission.descr_of_source (mk ())) in
  let b_norros = solve_norros_buffer ~service ~epsilon load in
  pf "# N=%d uti=%.1f order=%d slots=%d epsilon=%g; norros buffer for epsilon: %.0f\n" n u
    order slots epsilon b_norros;
  (* Provision the overflow threshold from a clean calibration run:
     the (1-epsilon) queue quantile, so the clean scenario sits at the
     admission target by construction and the Norros gap (the
     finite-horizon formula is asymptotic) does not contaminate the
     protection comparison. *)
  let calib = Ss_mux.Mux.run ?pool:(pool ()) ~quantiles:[ 1.0 -. epsilon ] ~service ~slots (mk ()) in
  let b = List.assoc (1.0 -. epsilon) calib.Ss_mux.Mux.queue_quantiles in
  pf "# threshold B = empirical %.2f-quantile of the clean run = %.0f (%.1f aggregate-mean units)\n"
    (1.0 -. epsilon) b
    (b /. (float_of_int n *. mean));
  let faults = [ (Some 0, [ Ss_mux.Fault.Drift { start = fault_start; ramp; factor } ]) ] in
  let run ~faulted ~policed =
    let srcs = mk () in
    let srcs =
      if faulted then Ss_mux.Fault.wrap_all ~rng:(police_fault_rng "police") faults srcs
      else srcs
    in
    let policer =
      if not policed then None
      else begin
        (* The CAC holds every source's declared contract, sized at
           the Norros buffer with headroom above the exact epsilon
           boundary; renegotiation of the 3x drifter re-runs this
           admission and is refused, driving the sanction ladder. *)
        let cac =
          Ss_mux.Admission.create ~service ~buffer:b_norros ~epsilon:(1.05 *. epsilon)
        in
        Array.iter
          (fun s ->
            match Ss_mux.Admission.try_admit cac (Ss_mux.Admission.descr_of_source s) with
            | Ss_mux.Admission.Admit _ -> ()
            | Ss_mux.Admission.Reject r -> failwith ("police: clean source rejected: " ^ r))
          srcs;
        Some
          (Ss_mux.Police.create ~cac
             (Array.map Ss_mux.Admission.descr_of_source srcs))
      end
    in
    let report =
      Ss_mux.Mux.run ?pool:(pool ()) ?police:policer ~thresholds:[ b ] ~service ~slots srcs
    in
    (List.assoc b report.Ss_mux.Mux.overflow, report, policer)
  in
  let p_clean, _, _ = run ~faulted:false ~policed:false in
  (* Control for the policer's false-positive cost: over 50k slots the
     honest LRD sources wander far enough from their declared
     contracts to collect sanctions of their own. *)
  let p_clean_policed, _, clean_policer = run ~faulted:false ~policed:true in
  let p_faulted, _, _ = run ~faulted:true ~policed:false in
  let p_policed, rep_policed, policer = run ~faulted:true ~policed:true in
  let policer = Option.get policer in
  pf "# scenario            Pr(q > B)\n";
  pf "clean/unpoliced       %.4g\n" p_clean;
  pf "clean/policed         %.4g   (%d incidents on honest sources)\n" p_clean_policed
    (Ss_mux.Police.incident_count (Option.get clean_policer));
  pf "drift/unpoliced       %.4g\n" p_faulted;
  pf "drift/policed         %.4g\n" p_policed;
  let detected = Ss_mux.Police.detected_at policer 0 in
  let latency = match detected with Some s -> s - fault_start | None -> -1 in
  (match detected with
  | Some s ->
    pf "# detection: fault at slot %d (ramp %d), first flag at slot %d - latency %d slots (%.1f windows)\n"
      fault_start ramp s latency
      (float_of_int latency /. float_of_int window)
  | None -> pf "# detection: drifter was never flagged\n");
  let incidents = Ss_mux.Police.incidents policer in
  pf "# incidents (%d):\n" (List.length incidents);
  List.iter (fun i -> pf "#   %s\n" (Format.asprintf "%a" Ss_mux.Police.pp_incident i)) incidents;
  let drifter = rep_policed.Ss_mux.Mux.per_source.(0) in
  pf "# drifter accounting: throttled %.4g, discarded %.4g, evicted %b\n"
    drifter.Ss_mux.Mux.throttled drifter.Ss_mux.Mux.discarded
    (Ss_mux.Police.evicted policer 0);
  let protected_ = p_policed <= 10.0 *. epsilon and exposed = p_faulted > epsilon in
  pf "# protection: policed %.4g %s 10*epsilon %.4g; unpoliced %.4g %s epsilon  =>  %s\n"
    p_policed
    (if protected_ then "<=" else ">")
    (10.0 *. epsilon) p_faulted
    (if exposed then ">" else "<=")
    (if protected_ && exposed then "PASS" else "FAIL");
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "{\n";
  Printf.bprintf buf "  \"machine\": %s,\n" (machine_json ());
  Printf.bprintf buf "  \"sources\": %d,\n  \"utilization\": %s,\n  \"slots\": %d,\n" n (jf u)
    slots;
  Printf.bprintf buf "  \"epsilon\": %s,\n  \"norros_buffer\": %s,\n  \"threshold\": %s,\n"
    (jf epsilon) (jf b_norros) (jf b);
  Printf.bprintf buf
    "  \"fault\": {\"source\": 0, \"start\": %d, \"ramp\": %d, \"factor\": %s},\n" fault_start
    ramp (jf factor);
  Printf.bprintf buf "  \"overflow_clean\": %s,\n" (jf p_clean);
  Printf.bprintf buf "  \"overflow_clean_policed\": %s,\n" (jf p_clean_policed);
  Printf.bprintf buf "  \"clean_policed_incidents\": %d,\n"
    (Ss_mux.Police.incident_count (Option.get clean_policer));
  Printf.bprintf buf "  \"overflow_faulted_unpoliced\": %s,\n" (jf p_faulted);
  Printf.bprintf buf "  \"overflow_faulted_policed\": %s,\n" (jf p_policed);
  Printf.bprintf buf "  \"detection_slot\": %s,\n"
    (match detected with Some s -> string_of_int s | None -> "null");
  Printf.bprintf buf "  \"detection_latency_slots\": %d,\n" latency;
  Printf.bprintf buf "  \"police_window\": %d,\n" window;
  Printf.bprintf buf "  \"drifter_evicted\": %b,\n" (Ss_mux.Police.evicted policer 0);
  Printf.bprintf buf "  \"incidents\": %d,\n" (List.length incidents);
  Printf.bprintf buf "  \"protected\": %b\n}\n" (protected_ && exposed);
  let oc = open_out "BENCH_police.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  pf "# wrote BENCH_police.json\n"

(* Seconds-scale CI gate: (1) the policer flags an injected 2x mean
   drift within three windows of the fault start and applies a
   sanction; (2) a zero-fault run through the fault wrapper with
   policing on is bit-identical to the plain unwrapped path — the
   robustness layer costs nothing when nothing misbehaves. Runs under
   any SS_DOMAINS. *)
let police_smoke () =
  pf "# police-smoke: drift detection latency + zero-fault bit-identity\n";
  let m = model () in
  let n = 4 and order = 64 and slots = 6_000 in
  (* The fault starts two windows in: late enough that the policer is
     past warmup, early enough that no honest-noise renegotiation has
     re-anchored the drifter's contract to a high-water measurement
     (which would blunt a 2x drift and slow detection). *)
  let window = 256 and fault_start = 512 and factor = 2.0 in
  let config = { Ss_mux.Police.default with Ss_mux.Police.window; warmup_windows = 1 } in
  let mk () = police_sources ~tag:"police-smoke-src" ~n ~order m in
  let service = float_of_int n *. m.Model.mean /. 0.7 in
  let policer_for config srcs =
    Ss_mux.Police.create ~config (Array.map Ss_mux.Admission.descr_of_source srcs)
  in
  (* Zero-fault identity: the full wrapper + policing pipeline must
     cost nothing bit-wise when it sanctions nothing. The identity run
     monitors with generous bands — the heavy-tailed honest sources
     legitimately cross the default violation line in a small fraction
     of windows, and a throttle, however brief, alters traffic. *)
  let monitor =
    { config with Ss_mux.Police.mean_tol = 10.0; sigma2_tol = 1e3; hurst_tol = 10.0;
      violation_factor = 1e6 }
  in
  let plain = Ss_mux.Mux.run ?pool:(pool ()) ~service ~slots (mk ()) in
  let wrapped =
    let srcs = Ss_mux.Fault.wrap_all ~rng:(police_fault_rng "police-smoke") [] (mk ()) in
    Ss_mux.Mux.run ?pool:(pool ()) ~police:(policer_for monitor srcs) ~service ~slots srcs
  in
  let bits = Int64.bits_of_float in
  if bits plain.Ss_mux.Mux.mean_queue <> bits wrapped.Ss_mux.Mux.mean_queue
     || bits plain.Ss_mux.Mux.max_queue <> bits wrapped.Ss_mux.Mux.max_queue
  then failwith "police-smoke: zero-fault policed run is not bit-identical";
  Array.iteri
    (fun i (s : Ss_mux.Mux.source_report) ->
      let w = wrapped.Ss_mux.Mux.per_source.(i) in
      if bits s.Ss_mux.Mux.admitted <> bits w.Ss_mux.Mux.admitted then
        failwith "police-smoke: zero-fault per-source accounting differs")
    plain.Ss_mux.Mux.per_source;
  pf "# zero-fault: policed run bit-identical to plain (mean_queue %.6g)\n"
    plain.Ss_mux.Mux.mean_queue;
  (* Drift detection. *)
  let srcs =
    Ss_mux.Fault.wrap_all
      ~rng:(police_fault_rng "police-smoke")
      [ (Some 0, [ Ss_mux.Fault.Drift { start = fault_start; ramp = 0; factor } ]) ]
      (mk ())
  in
  let policer = policer_for config srcs in
  let _ = Ss_mux.Mux.run ?pool:(pool ()) ~police:policer ~service ~slots srcs in
  (* Honest LRD windows occasionally flag (benign drift) even before
     the fault, so detection is judged from the incident log: the
     first flag against the drifter at or after the fault start. *)
  let drifter = (Array.get srcs 0).Ss_mux.Source.name in
  let post_fault =
    List.filter
      (fun (i : Ss_mux.Police.incident) ->
        i.Ss_mux.Police.source = drifter && i.Ss_mux.Police.slot >= fault_start)
      (Ss_mux.Police.incidents policer)
  in
  (match
     List.find_opt
       (fun (i : Ss_mux.Police.incident) ->
         match i.Ss_mux.Police.event with Ss_mux.Police.Flagged _ -> true | _ -> false)
       post_fault
   with
  | None -> failwith "police-smoke: injected 2x drift was never flagged"
  | Some i ->
    let s = i.Ss_mux.Police.slot in
    pf "# drift at slot %d flagged at slot %d (%.1f windows)\n" fault_start s
      (float_of_int (s - fault_start) /. float_of_int window);
    if s > fault_start + (3 * window) then
      failwith "police-smoke: detection slower than 3 windows");
  let sanctioned =
    List.exists
      (fun (i : Ss_mux.Police.incident) ->
        match i.Ss_mux.Police.event with
        | Ss_mux.Police.Flagged _ -> false
        | Ss_mux.Police.Renegotiated _ | Ss_mux.Police.Demoted _
        | Ss_mux.Police.Throttle_set _ | Ss_mux.Police.Evicted ->
          true)
      post_fault
  in
  if not sanctioned then failwith "police-smoke: drifter was flagged but never sanctioned";
  pf "# drifter sanctioned (%d incidents total)\n"
    (Ss_mux.Police.incident_count policer)

let abl_slice () =
  pf "# abl-slice: frame spreading at slice granularity (15 slices/frame, Table 1)\n";
  pf "# per Ismail et al. [15]: spreading a frame over its interval smooths bursts\n";
  let trace = Lazy.force intra in
  let spread = Ss_video.Slices.spread_evenly trace in
  let front = Ss_video.Slices.front_loaded trace in
  pf "# buffer(mean-frames)  Pr(Q>b)-front-loaded  Pr(Q>b)-spread\n";
  let qp_f = Trace_sim.queue_path ~arrivals:front ~utilization:0.7 in
  let qp_s = Trace_sim.queue_path ~arrivals:spread ~utilization:0.7 in
  let mean_frame = D.mean trace.Trace.sizes in
  List.iter
    (fun b ->
      let buffer = b *. mean_frame in
      pf "%8.1f  %12.4g  %12.4g\n" b
        (Trace_sim.overflow_fraction ~queue_path:qp_f ~buffer)
        (Trace_sim.overflow_fraction ~queue_path:qp_s ~buffer))
    [ 0.5; 1.0; 2.0; 5.0; 20.0; 100.0 ]

let abl_norros () =
  pf "# abl-norros: Norros' FBM storage formula vs IS estimates (uti 0.4)\n";
  let m = model () in
  let mean = m.Model.mean in
  let h = m.Model.hurst in
  let sizes = (Lazy.force intra).Trace.sizes in
  (* Fit the FBM variance coefficient from the aggregate variance:
     Var(sum of t slots) ~ sigma2 t^{2H}. *)
  let sigma2 =
    let samples =
      List.map
        (fun t ->
          let agg = Ss_stats.Timeseries.aggregate sizes ~m:t in
          let v = D.variance agg *. (float_of_int t ** 2.0) in
          v /. (float_of_int t ** (2.0 *. h)))
        [ 16; 32; 64; 128 ]
    in
    List.fold_left ( +. ) 0.0 samples /. 4.0
  in
  pf "# fitted sigma2 = %.4g (per-slot marginal variance %.4g)\n" sigma2 (D.variance sizes);
  let service = mean /. 0.4 in
  let rng = rng_for "abl-norros" in
  pf "# b  log10(p)-IS  log10(p)-norros\n";
  List.iter
    (fun b ->
      let e = overflow_is m ~utilization:0.4 ~buffer_norm:b ~rng:(Rng.split rng) in
      let norros =
        Ss_queueing.Norros.log_overflow ~mean_rate:mean ~service ~hurst:h ~sigma2
          ~buffer:(b *. mean)
        /. log 10.0
      in
      pf "%5.0f  %7.3f  %7.3f\n" b
        (if e.Mc.p > 0.0 then log10 e.Mc.p else nan)
        norros)
    [ 25.0; 50.0; 100.0; 150.0; 200.0; 250.0 ]

let abl_ibp_queue () =
  pf "# abl-ibp-queue: queueing with the composite I/B/P source vs the intraframe\n";
  pf "# model at the same utilization (frame-level GOP burstiness effect)\n";
  let m = Lazy.force mpeg in
  let intra_m = model () in
  let rng = rng_for "abl-ibp-queue" in
  let horizon = 1500 in
  let table = Mpeg.background_table m ~n:horizon in
  let arrival = Mpeg.arrival_fn m in
  (* Composite mean from a short synthetic stretch. *)
  let sample = Mpeg.generate m ~n:12_000 (Rng.split rng) in
  let mean = D.mean sample.Trace.sizes in
  pf "# b  log10(p)-composite  log10(p)-intraframe-model\n";
  List.iter
    (fun b ->
      let service = mean /. 0.6 in
      let buffer = b *. mean in
      let twist = auto_twist ~arrival ~service ~buffer ~horizon in
      let cfg = Is.make_config ~table ~arrival ~service ~buffer ~horizon ~twist () in
      let e = Is.estimate ?pool:(pool ()) cfg ~replications:reps (Rng.split rng) in
      let e_intra =
        overflow_is intra_m ~utilization:0.6 ~buffer_norm:b ~rng:(Rng.split rng)
      in
      let l p = if p > 0.0 then log10 p else nan in
      pf "%5.0f  %7.3f  %7.3f\n" b (l e.Mc.p) (l e_intra.Mc.p))
    [ 10.0; 25.0; 50.0; 100.0; 150.0 ]

let abl_codec () =
  pf "# abl-codec: the pipeline on other VBR compression schemes (paper Section 1:\n";
  pf "# 'the approach itself can be readily applied to JPEG, MPEG-2, H.261')\n";
  let rng = rng_for "abl-codec" in
  List.iter
    (fun (label, gop_s) ->
      let gop = Gop.of_string gop_s in
      let cfg = { Ss_video.Scene_source.default with frames = 36_000; gop } in
      let reference = Ss_video.Scene_source.generate cfg (Rng.split rng) in
      let m = Mpeg.fit ~i_max_lag:60 reference in
      let synth = Mpeg.generate m ~n:36_000 (Rng.split rng) in
      let per_kind t k =
        let xs = Trace.of_kind t k in
        if Array.length xs = 0 then nan else D.mean xs
      in
      pf "## %s (gop %s)\n" label gop_s;
      pf "#   adopted H = %.2f, knee fit: %s\n" m.Mpeg.i_model.Model.hurst
        (Format.asprintf "%a" Report.pp_params m.Mpeg.i_diag.Fit.raw_fit);
      List.iter
        (fun kind ->
          let want = per_kind reference kind and got = per_kind synth kind in
          if not (Float.is_nan want) then
            pf "#   mean %c bytes: reference %.0f, synthetic %.0f\n" (Frame.to_char kind)
              want got)
        [ Frame.I; Frame.P; Frame.B ])
    [
      ("JPEG / intraframe MPEG-2", "I");
      ("H.261-like (no B frames)", "IPPPPPPPPPPP");
      ("MPEG-1 (the paper)", "IBBPBBPBBPBB");
    ]

let abl_twist () =
  pf "# abl-twist: constant vs time-varying twisting profiles (per [13]'s observation\n";
  pf "# that the optimal change of measure for first passage is time-dependent)\n";
  let m = model () in
  let mean = m.Model.mean in
  let horizon = 500 in
  let table = Generate.table m ~n:2500 in
  let arrival = Generate.arrival_fn m in
  let service = mean /. 0.2 in
  let buffer = 25.0 *. mean in
  let run name profile =
    let cfg =
      Is.make_config ~table ~arrival ~service ~buffer ~horizon ~twist:0.0 ~profile ()
    in
    let e = Is.estimate ?pool:(pool ()) cfg ~replications:reps (rng_for ("abl-twist-" ^ name)) in
    pf "%-22s  p=%.4g  nvar=%8.3g  hits=%d/%d\n" name e.Mc.p e.Mc.normalized_variance
      e.Mc.hits reps
  in
  let module Twist = Ss_fastsim.Twist in
  run "constant(3.0)" (Twist.constant 3.0);
  run "ramp(peak 4.5)" (Twist.ramp ~until:horizon ~peak:4.5);
  run "ramp(peak 6.0)" (Twist.ramp ~until:horizon ~peak:6.0);
  run "front(250, 3.5)" (Twist.front ~until:250 ~level:3.5);
  run "front(100, 5.0)" (Twist.front ~until:100 ~level:5.0)

let abl_iter () =
  pf "# abl-iter: the paper's 'systematically iterate until the SRD part matches'\n";
  pf "# fixed-point refinement of the background ACF on top of the one-shot fit\n";
  let m = model () in
  let d = diagnostics () in
  let target = List.filter (fun (k, _) -> k <= 100) d.Fit.acf_points in
  let _refined, history =
    Fit.refine ~rounds:5 ~paths:4 ~path_length:32_768 m ~target (rng_for "abl-iter")
  in
  pf "# round  rms-residual(lags 1..100)\n";
  List.iteri (fun i r -> pf "%6d  %.4f\n" i r) history;
  pf "# iteration stops when further boosting the background would leave the\n";
  pf "# positive-definite cone; the residual floor is dominated by the LRD\n";
  pf "# sample-ACF bias both the empirical and synthetic estimates share.\n"

let abl_batch () =
  pf "# abl-batch: batch-means diagnostics of single-run estimates (the paper's caveat)\n";
  let sizes = (Lazy.force intra).Trace.sizes in
  let qp = Trace_sim.queue_path ~arrivals:sizes ~utilization:0.6 in
  let ind =
    Ss_queueing.Batch_means.overflow_indicator ~queue_path:qp
      ~buffer:(50.0 *. D.mean sizes)
  in
  pf "# batches  mean  95%%-half-width  lag1-batch-correlation\n";
  List.iter
    (fun batches ->
      let r = Ss_queueing.Batch_means.analyze ~batches ind in
      pf "%8d  %.4f  %.4f  %+.3f\n" batches r.Ss_queueing.Batch_means.mean
        r.Ss_queueing.Batch_means.half_width r.Ss_queueing.Batch_means.lag1_batch_corr)
    [ 10; 30; 100 ];
  pf "# under LRD the batch correlation stays positive at every batch size,\n";
  pf "# so the nominal interval understates the true error - hence the paper's\n";
  pf "# reliance on independent replications for the synthetic curves.\n"

(* ------------------------------------------------------------------ *)
(* perf-parallel: domain-pool scaling                                   *)
(* ------------------------------------------------------------------ *)

(* Times the three pool-accelerated hot paths at 1/2/4 domains, checks
   every result is bit-identical to the 1-domain run, and writes the
   machine-readable BENCH_parallel.json artifact. All runs use the
   pooled code path (a 1-domain pool runs on the caller), so the
   identity check exercises the determinism contract, not just the
   sequential fallback. *)
let perf_parallel () =
  pf "# perf-parallel: domain-pool scaling (table build, IS replications, mux slot loop)\n";
  let cores = Domain.recommended_domain_count () in
  pf "# recommended_domain_count = %d (speedup > 1 needs > 1 core)\n" cores;
  let domain_counts = [ 1; 2; 4 ] in
  let results = ref [] in
  let t1 = Hashtbl.create 8 in
  let record name d secs identical =
    if d = 1 then Hashtbl.replace t1 name secs;
    let speedup = Hashtbl.find t1 name /. secs in
    results := (name, d, secs, identical, speedup) :: !results;
    pf "%-22s  domains=%d  %8.4f s  speedup %5.2fx  %s\n" name d secs speedup
      (if identical then "bit-identical" else "MISMATCH")
  in
  let with_domains d f =
    let p = Pool.create ~domains:d in
    Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)
  in
  (* 1. Hosking table construction: parallel Durbin-Levinson inner
     products. *)
  let acf = Acf.fgn ~h:0.9 in
  let table_sig t =
    let x = Hosking.generate t (Rng.create ~seed:97) in
    Array.fold_left (fun h v -> Hashtbl.hash (h, Int64.bits_of_float v)) 0 x
  in
  let table_ref = ref 0 in
  List.iter
    (fun d ->
      with_domains d (fun p ->
          let t, secs =
            time_it (fun () -> Hosking.Table.make_pooled ~pool:p ~par_cutoff:256 ~acf ~n:4096 ())
          in
          let sg = table_sig t in
          if d = 1 then table_ref := sg;
          record "hosking-table-4096" d secs (sg = !table_ref)))
    domain_counts;
  (* 2. Importance-sampling replication fan-out. *)
  let is_table = Hosking.Table.make ~acf ~n:1024 in
  let is_cfg =
    Is.make_config ~table:is_table ~arrival:(fun _ x -> x) ~service:0.5 ~buffer:8.0
      ~horizon:1024 ~twist:1.0 ()
  in
  let p_ref = ref nan in
  List.iter
    (fun d ->
      with_domains d (fun p ->
          let e, secs =
            time_it (fun () ->
                Is.estimate ~pool:p is_cfg ~replications:400
                  (Rng.create ~seed:(Defaults.seed + 17)))
          in
          if d = 1 then p_ref := e.Mc.p;
          record "is-replications-400" d secs
            (Int64.bits_of_float e.Mc.p = Int64.bits_of_float !p_ref)))
    domain_counts;
  (* 3. Mux slot loop: block prefetch across sources. *)
  let m = model () in
  let mux_run p =
    let rng = Rng.create ~seed:(Defaults.seed + 23) in
    let srcs =
      Array.init 8 (fun i ->
          Ss_mux.Source.of_model ~name:(Printf.sprintf "p%d" i) ~order:128 m (Rng.split rng))
    in
    Ss_mux.Mux.run ~pool:p ~service:(8.0 *. m.Model.mean /. 0.7) ~slots:8192 srcs
  in
  let mux_ref = ref nan in
  List.iter
    (fun d ->
      with_domains d (fun p ->
          let r, secs = time_it (fun () -> mux_run p) in
          if d = 1 then mux_ref := r.Ss_mux.Mux.mean_queue;
          record "mux-8src-8192slots" d secs
            (Int64.bits_of_float r.Ss_mux.Mux.mean_queue = Int64.bits_of_float !mux_ref)))
    domain_counts;
  let rs = List.rev !results in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Printf.bprintf buf "  \"machine\": %s,\n" (machine_json ());
  Printf.bprintf buf "  \"recommended_domain_count\": %d,\n" cores;
  Buffer.add_string buf "  \"benchmarks\": [\n";
  let last = List.length rs - 1 in
  List.iteri
    (fun i (name, d, secs, identical, speedup) ->
      Printf.bprintf buf
        "    {\"name\": \"%s\", \"domains\": %d, \"seconds\": %s, \"speedup_vs_1\": %s, \"bit_identical_vs_1\": %b}%s\n"
        name d
        (jf ~decimals:6 secs)
        (jf ~decimals:3 speedup)
        identical
        (if i = last then "" else ","))
    rs;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out "BENCH_parallel.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  pf "# wrote BENCH_parallel.json\n"

(* ------------------------------------------------------------------ *)
(* throughput: block-kernel source generation                           *)
(* ------------------------------------------------------------------ *)

(* Source-generation throughput across the three layers the block
   kernel touches: (A) the raw per-slot cost of the cache-blocked AR
   kernel against the legacy scalar background pull (bit-identity is
   asserted, not assumed), (B) the fixed-horizon crossover between
   blocked Hosking streaming and the materialized FFT-exact
   Davies-Harte path — the measurement behind `--backend
   davies-harte`, and (C) end-to-end mux slot loops. Writes
   BENCH_throughput.json. *)
let throughput () =
  pf "# throughput: block-kernel source generation vs scalar pulls\n";
  let m = model () in
  let acf = Model.background_acf m in
  let rows = ref [] in
  (* GC deltas ride refs set by [time_gc]: workloads here are
     deterministic, so every repeat of a cell allocates identically
     and the last repeat's delta is the cell's. Sections that
     interleave variants snapshot the refs per variant before the
     next timing overwrites them. *)
  let gc_minor = ref 0.0 and gc_major = ref 0.0 in
  let time_gc f =
    let s0 = Gc.quick_stat () in
    let r, secs = time_it f in
    let s1 = Gc.quick_stat () in
    gc_minor := s1.Gc.minor_words -. s0.Gc.minor_words;
    gc_major := s1.Gc.major_words -. s0.Gc.major_words;
    (r, secs)
  in
  let row ?gc ~section ~name ~order ~n ~domains secs =
    let gcm, gcj = match gc with Some g -> g | None -> (!gc_minor, !gc_major) in
    rows := (section, name, order, n, domains, secs, float_of_int n /. secs, gcm, gcj) :: !rows;
    pf "%-8s %-24s  %9.4f s  %10.0f slots/s  %7.1f ns/slot\n" section name secs
      (float_of_int n /. secs)
      (1e9 *. secs /. float_of_int n)
  in
  let block = 256 in
  let wbuf = Array.make block 0.0 and cbuf = Array.make block 0 in
  (* Checksum accumulator: keeps the drained arrivals observable so
     no timing loop can be optimized into a no-op. *)
  let sink = ref 0.0 in
  (* Every cell re-seeds its generator, so repeated runs must return
     bitwise-identical results; take the minimum wall time of three
     runs to shed scheduler noise on sub-second cells. [run] returns
     (result, seconds) for one run. *)
  let best_of ?(repeats = 3) run =
    let r0, t0 = run () in
    let t = ref t0 in
    for _ = 1 to repeats - 1 do
      let r, ti = run () in
      if Int64.bits_of_float r <> Int64.bits_of_float r0 then
        failwith "throughput: repeated run disagrees with itself";
      if ti < !t then t := ti
    done;
    (r0, !t)
  in
  let drain s n =
    let acc = ref 0.0 in
    let left = ref n in
    while !left > 0 do
      let l = Stdlib.min block !left in
      let got = Ss_mux.Source.next_block s wbuf cbuf ~off:0 ~len:l in
      for j = 0 to got - 1 do
        acc := !acc +. wbuf.(j)
      done;
      left := (if got < l then 0 else !left - got)
    done;
    !acc
  in
  (* A. Kernel: the scalar per-slot pull interface vs the blocked
     source drained in [block]-slot chunks. The scalar side pulls
     [of_model_twisted] at zero shift one slot at a time: the block
     kernel at one-slot blocks, plus the shift and a tuple per pull.
     The committed "scalar pull" rows predate that and time the
     deleted per-slot recursion (closure, history blit per slot). It
     is documented bit-identical to [of_model] on the same generator
     state — so the arrival sums must agree bitwise. *)
  let n_kernel = 1 lsl 17 in
  List.iter
    (fun order ->
      ignore (Ss_mux.Source.table_for ~acf ~order : Hosking.Table.t);
      let scalar () =
        let rng = rng_for (Printf.sprintf "tp-kernel-%d" order) in
        let s = Ss_mux.Source.of_model_twisted ~order ~shift:(fun _ -> 0.0) m rng in
        let acc = ref 0.0 in
        for _ = 1 to n_kernel do
          acc := !acc +. fst (Ss_mux.Source.next s)
        done;
        !acc
      in
      let blocked () =
        let rng = rng_for (Printf.sprintf "tp-kernel-%d" order) in
        drain (Ss_mux.Source.of_model ~order m rng) n_kernel
      in
      let a_s, t_s = best_of (fun () -> time_gc scalar) in
      let gc_s = (!gc_minor, !gc_major) in
      let a_b, t_b = best_of (fun () -> time_gc blocked) in
      let gc_b = (!gc_minor, !gc_major) in
      if Int64.bits_of_float a_s <> Int64.bits_of_float a_b then
        failwith "throughput: block kernel disagrees with the scalar pull";
      sink := !sink +. a_b;
      row ~gc:gc_s ~section:"kernel"
        ~name:(Printf.sprintf "scalar-order-%d" order)
        ~order ~n:n_kernel ~domains:1 t_s;
      row ~gc:gc_b ~section:"kernel"
        ~name:(Printf.sprintf "block-order-%d" order)
        ~order ~n:n_kernel ~domains:1 t_b;
      pf "# order %d: block/scalar speedup %.2fx\n" order (t_s /. t_b);
      (* FFT tier: the overlap-save block kernel. Deterministic per
         seed (best_of still asserts repeat equality) but on a
         different sample path than the exact tier, so no cross-tier
         bitwise compare — the statistical gates live in
         throughput-smoke and the test suite. *)
      let fft () =
        let rng = rng_for (Printf.sprintf "tp-kernel-%d" order) in
        drain (Ss_mux.Source.of_model ~order ~kernel:`Fft m rng) n_kernel
      in
      ignore (Ss_mux.Source.fft_plan_for ~acf ~order : Hosking.Fft_plan.t);
      let a_f, t_f = best_of (fun () -> time_gc fft) in
      sink := !sink +. a_f;
      row ~section:"kernel"
        ~name:(Printf.sprintf "block-fft-order-%d" order)
        ~order ~n:n_kernel ~domains:1 t_f;
      pf "# order %d: fft/exact block speedup %.2fx\n" order (t_b /. t_f))
    [ 64; 512; 2048 ];
  (* B. Fixed-horizon crossover: time to produce all n slots of one
     source. The Davies-Harte plan is cached and prewarmed (shared
     across same-horizon sources); the per-source O(n log n) path
     synthesis stays inside the timing. *)
  List.iter
    (fun n ->
      ignore (Ss_mux.Source.plan_for ~acf ~n () : DH.plan);
      let a_h, t_h =
        best_of (fun () ->
            time_gc (fun () ->
                drain
                  (Ss_mux.Source.of_model ~order:512 m (rng_for (Printf.sprintf "tp-h-%d" n)))
                  n))
      in
      let gc_h = (!gc_minor, !gc_major) in
      let a_d, t_d =
        best_of (fun () ->
            time_gc (fun () ->
                drain
                  (Ss_mux.Source.of_model ~order:512 ~backend:`Davies_harte ~horizon:n m
                     (rng_for (Printf.sprintf "tp-dh-%d" n)))
                  n))
      in
      let gc_d = (!gc_minor, !gc_major) in
      sink := !sink +. a_h +. a_d;
      row ~gc:gc_h ~section:"horizon"
        ~name:(Printf.sprintf "hosking-512-n%d" n)
        ~order:512 ~n ~domains:1 t_h;
      row ~gc:gc_d ~section:"horizon"
        ~name:(Printf.sprintf "davies-harte-n%d" n)
        ~order:512 ~n ~domains:1 t_d;
      pf "# n=%d: davies-harte/hosking time ratio %.2f (< 1 means the FFT path wins)\n" n
        (t_d /. t_h))
    [ 1 lsl 12; 1 lsl 15; 1 lsl 17 ];
  (* C. End-to-end mux slot loop, 8 sources. *)
  let slots = 16384 in
  let service = 8.0 *. m.Model.mean /. 0.7 in
  let mux_row ~name ~order ~domains ?backend ?horizon () =
    let p = if domains > 1 then Some (Pool.create ~domains) else None in
    let q, secs =
      best_of (fun () ->
          (* Sources are stateful: rebuild them (outside the clock)
             for every repeat so each run consumes the same stream. *)
          let rng = rng_for ("tp-mux-" ^ name) in
          let srcs =
            Array.init 8 (fun i ->
                Ss_mux.Source.of_model ~name:(Printf.sprintf "m%d" i) ~order ?backend ?horizon m
                  (Rng.split rng))
          in
          time_gc (fun () ->
              (Ss_mux.Mux.run ?pool:p ~service ~slots srcs).Ss_mux.Mux.mean_queue))
    in
    Option.iter Pool.shutdown p;
    sink := !sink +. q;
    row ~section:"mux" ~name ~order ~n:slots ~domains secs
  in
  mux_row ~name:"hosking-512-d1" ~order:512 ~domains:1 ();
  mux_row ~name:"hosking-512-d4" ~order:512 ~domains:4 ();
  mux_row ~name:"hosking-64-d1" ~order:64 ~domains:1 ();
  mux_row ~name:"davies-harte-d1" ~order:512 ~domains:1 ~backend:`Davies_harte ~horizon:slots ();
  (* D. Sharded-mux scaling: cheap cycling sources so the admission
     machinery (staging layout, transpose, shard fan-out) dominates
     the clock rather than model synthesis, swept over source count x
     domain count at a fixed per-cell slot budget. All variants of one
     N must agree bitwise on the mean queue. *)
  let feq a b = Int64.bits_of_float a = Int64.bits_of_float b in
  let scaling_ratios = ref [] in
  List.iter
    (fun n ->
      let slots = Stdlib.max 512 (6_291_456 / n) in
      let service = float_of_int n *. 0.64 /. 0.7 in
      let mk () =
        Array.init n (fun i ->
            let len = 384 + (i mod 29) in
            let arr =
              Array.init len (fun t -> abs_float (sin (float_of_int ((t + 1) * (i + 7)))))
            in
            Ss_mux.Source.of_array ~name:(Printf.sprintf "a%d" i) ~cycle:true arr)
      in
      (* One 4-domain pool stays alive across every cell of this N —
         worker-domain existence alone changes GC pacing (multi-domain
         stop-the-world minors), so per-cell pools would fold that
         into the d-ratios. A d<4 cell simply dispatches fewer barrier
         tasks into the same pool. All variants run once per round,
         interleaved; rows keep per-variant minima, while the summary
         speedups are MEDIANS of per-round paired ratios — one round's
         host-noise phase hits every variant, so it moves times, not
         ratios, where ratios of independent minima double the noise. *)
      let p = Pool.create ~domains:4 in
      let run_sh ?pool shards srcs =
        (Ss_mux.Mux.run ?pool ~shards ~service ~slots srcs).Ss_mux.Mux.mean_queue
      in
      let variants =
        [|
          (Printf.sprintf "sharded-n%d-d1" n, 1, run_sh 1);
          (Printf.sprintf "sharded-n%d-d2" n, 2, run_sh ~pool:p 2);
          (Printf.sprintf "sharded-n%d-d4" n, 4, run_sh ~pool:p 4);
        |]
      in
      let nv = Array.length variants in
      let rounds = 7 in
      let tmin = Array.make nv infinity in
      let qv = Array.make nv nan in
      let gcv = Array.make nv (0.0, 0.0) in
      let d1_over_d4 = Array.make rounds 0.0 in
      for k = 0 to rounds - 1 do
        let tk = Array.make nv 0.0 in
        for j = 0 to nv - 1 do
          let _, _, run = variants.(j) in
          let srcs = mk () in
          Gc.full_major ();
          let q, secs = time_gc (fun () -> run srcs) in
          if k = 0 then begin
            qv.(j) <- q;
            gcv.(j) <- (!gc_minor, !gc_major)
          end
          else if not (feq qv.(j) q) then
            failwith "throughput: repeated scaling run disagrees with itself";
          tk.(j) <- secs;
          if secs < tmin.(j) then tmin.(j) <- secs
        done;
        d1_over_d4.(k) <- tk.(0) /. tk.(2)
      done;
      Pool.shutdown p;
      if not (feq qv.(0) qv.(1) && feq qv.(1) qv.(2)) then
        failwith "throughput: sharded mux disagrees across domain counts";
      for j = 0 to nv - 1 do
        let name, domains, _ = variants.(j) in
        sink := !sink +. qv.(j);
        row ~gc:gcv.(j) ~section:"mux-scaling" ~name ~order:0 ~n:slots ~domains tmin.(j)
      done;
      let median a =
        let c = Array.copy a in
        Array.sort compare c;
        c.(Array.length c / 2)
      in
      let m_d4 = median d1_over_d4 in
      if n >= 1024 then
        scaling_ratios := !scaling_ratios @ [ (Printf.sprintf "mux_d4_over_d1_n%d" n, m_d4) ];
      pf "# n=%d: d4/d1 %.2fx (paired medians)\n" n m_d4)
    [ 64; 1024; 8192 ];
  (* D'. FFT-kernel gain under sharding: the N=8192 fleet of model
     sources from the scaling sweep's largest point, on the exact and
     FFT kernels, through the 1-shard sequential engine and the
     4-shard/4-domain engine. Every source is pre-drained past the
     AR ramp (order + partition slots) before timing, so each timed
     slot runs the steady-state kernel — at slots comparable to
     [order] the ramp, where both kernels do identical short-history
     work, would otherwise drag the ratio toward 1. The acceptance
     gate is a ratio of ratios: the exact/fft speedup at 4 shards
     must retain >= 90% of the same fleet's speedup at 1 shard —
     i.e. the sharded staging path consumes the fast kernel without
     eating its gain. (The fleet-level speedup sits below the
     single-source kernel ratio at any layout: 8192 per-source
     states stream through memory once per staging block, a
     capacity effect identical in both layouts — reported as an
     informational ratio, not gated.) Paired per-round ratios,
     median, as in section D. *)
  (let n = 8192 in
   let slots = 768 in
   let order = 512 in
   let warmup = 640 (* order + partition, a multiple of the FFT block *) in
   let service = float_of_int n *. m.Model.mean /. 0.7 in
   let p = Pool.create ~domains:4 in
   let mk kernel tag =
     let rng = rng_for (Printf.sprintf "tp-muxfft-%s" tag) in
     Array.init n (fun i ->
         Ss_mux.Source.of_model ~name:(Printf.sprintf "f%d" i) ~order ~kernel m
           (Rng.split rng))
   in
   let wb = Array.make warmup 0.0 and cb = Array.make warmup 0 in
   let warm srcs =
     Array.iter
       (fun s -> ignore (Ss_mux.Source.next_block s wb cb ~off:0 ~len:warmup : int))
       srcs
   in
   let rounds = 3 in
   let ratio1 = Array.make rounds 0.0 and ratio4 = Array.make rounds 0.0 in
   let rr = Array.make rounds 0.0 in
   let t_e1 = ref infinity and t_f1 = ref infinity in
   let t_e4 = ref infinity and t_f4 = ref infinity in
   (* One reference queue per kernel: rounds AND layouts must agree
      bitwise (the sharded engine's invariance, re-checked here). *)
   let q_e = ref nan and q_f = ref nan in
   let gc_e = ref (0.0, 0.0) and gc_f = ref (0.0, 0.0) in
   for k = 0 to rounds - 1 do
     let once kernel tag sharded q_ref gc_ref t_ref =
       let srcs = mk kernel tag in
       warm srcs;
       Gc.full_major ();
       let q, secs =
         time_gc (fun () ->
             (if sharded then Ss_mux.Mux.run ~pool:p ~shards:4 ~service ~slots srcs
              else Ss_mux.Mux.run ~service ~slots srcs)
               .Ss_mux.Mux.mean_queue)
       in
       if Float.is_nan !q_ref then begin
         q_ref := q;
         gc_ref := (!gc_minor, !gc_major)
       end
       else if not (feq !q_ref q) then
         failwith "throughput: fft-mux run disagrees across rounds/layouts";
       if secs < !t_ref then t_ref := secs;
       secs
     in
     let e1 () = once `Exact "exact" false q_e gc_e t_e1 in
     let f1 () = once `Fft "fft" false q_f gc_f t_f1 in
     let e4 () = once `Exact "exact" true q_e gc_e t_e4 in
     let f4 () = once `Fft "fft" true q_f gc_f t_f4 in
     (* Alternate order so position bias cancels across rounds. *)
     let te1, tf1, te4, tf4 =
       if k land 1 = 0 then
         let a = e1 () in
         let b = f1 () in
         let c = e4 () in
         let d = f4 () in
         (a, b, c, d)
       else
         let d = f4 () in
         let c = e4 () in
         let b = f1 () in
         let a = e1 () in
         (a, b, c, d)
     in
     ratio1.(k) <- te1 /. tf1;
     ratio4.(k) <- te4 /. tf4;
     rr.(k) <- ratio4.(k) /. ratio1.(k)
   done;
   Pool.shutdown p;
   sink := !sink +. !q_e +. !q_f;
   row ~section:"mux-fft"
     ~name:(Printf.sprintf "mux-exact-order-%d-n%d-d1" order n)
     ~order ~n:slots ~domains:1 !t_e1;
   row ~section:"mux-fft"
     ~name:(Printf.sprintf "mux-fft-order-%d-n%d-d1" order n)
     ~order ~n:slots ~domains:1 !t_f1;
   row ~gc:!gc_e ~section:"mux-fft"
     ~name:(Printf.sprintf "mux-exact-order-%d-n%d-d4" order n)
     ~order ~n:slots ~domains:4 !t_e4;
   row ~gc:!gc_f ~section:"mux-fft"
     ~name:(Printf.sprintf "mux-fft-order-%d-n%d-d4" order n)
     ~order ~n:slots ~domains:4 !t_f4;
   Array.sort compare ratio1;
   Array.sort compare ratio4;
   Array.sort compare rr;
   let gain1 = ratio1.(rounds / 2) in
   let gain4 = ratio4.(rounds / 2) in
   let retained = rr.(rounds / 2) in
   let time_of_row name =
     let _, _, _, _, _, secs, _, _, _ =
       List.find (fun (_, nm, _, _, _, _, _, _, _) -> nm = name) !rows
     in
     secs
   in
   let single_gain =
     time_of_row (Printf.sprintf "block-order-%d" order)
     /. time_of_row (Printf.sprintf "block-fft-order-%d" order)
   in
   let vs_single = gain4 /. single_gain in
   pf
     "# n=%d fft mux: exact/fft speedup %.2fx at 4 shards, %.2fx at 1 shard — sharding \
      retains %.0f%%%s\n"
     n gain4 gain1 (100.0 *. retained)
     (if retained >= 0.9 then " (>= 90% gate: ok)" else " (>= 90% gate: MISSED)");
   pf
     "# n=%d fft mux: %.0f%% of the single-source kernel gain %.2fx (informational: the \
      fleet is memory-bound at any layout, see EXPERIMENTS)\n"
     n (100.0 *. vs_single) single_gain;
   scaling_ratios :=
     !scaling_ratios
     @ [
         (Printf.sprintf "fft_mux_speedup_order_%d_n%d" order n, gain4);
         (Printf.sprintf "fft_mux_sharding_retention_n%d" n, retained);
         (Printf.sprintf "fft_mux_gain_over_single_n%d" n, vs_single);
       ]);
  (* E. Checkpoint overhead: the 8-source mux slot loop with the
     periodic snapshot hook armed. Arming the hook caps the staging
     block at [every] (so snapshots cannot be skipped), which by
     itself shifts cache behavior — so the per-[every] baseline is a
     run with a NO-OP hook at the same cadence (same block layout,
     nothing serialized, nothing written), and the reported overhead
     isolates what a snapshot actually costs: serializing the full
     engine + source state and atomically replacing a scratch file.
     The acceptance gate lives at every=8192 (< 5%); no hook may
     perturb the arithmetic, so the mean queue is asserted bitwise
     across every variant. *)
  let ck_path = Filename.temp_file "ss-bench" ".ckpt" in
  let ck_ratios =
    let order = 64 in
    let slots = 131072 in
    let run_once ?checkpoint () =
      let rng = rng_for "tp-ckpt-mux" in
      let srcs =
        Array.init 8 (fun i ->
            Ss_mux.Source.of_model ~name:(Printf.sprintf "c%d" i) ~order m (Rng.split rng))
      in
      time_gc (fun () ->
          (Ss_mux.Mux.run ?checkpoint ~service ~slots srcs).Ss_mux.Mux.mean_queue)
    in
    let q0, t0 = best_of (fun () -> run_once ()) in
    sink := !sink +. q0;
    row ~section:"ckpt" ~name:"mux-ckpt-unhooked" ~order ~n:slots ~domains:1 t0;
    List.map
      (fun every ->
        let hook save = { Ss_mux.Mux.every; save } in
        let noop = hook (fun ~slot:_ _fill -> ()) in
        let saving =
          hook (fun ~slot:_ fill ->
              Ss_checkpoint.to_file ~path:ck_path ~kind:"bench-mux" ~meta:"" fill)
        in
        (* Snapshot cost is sub-ms, well under the run-to-run noise of
           a 0.2 s cell — so pair the noop and saving runs inside each
           round and gate on the MEDIAN of per-round ratios, as the
           mux-scaling section does: one round's host-noise phase hits
           both sides, moving times but not the ratio. *)
        let rounds = 7 in
        let ratios = Array.make rounds 0.0 in
        let t_n = ref infinity and t_s = ref infinity in
        let gc_n = ref (0.0, 0.0) and gc_s = ref (0.0, 0.0) in
        for k = 0 to rounds - 1 do
          (* Alternate which side goes first so position bias (cache
             warmth, GC phase) cancels across rounds. *)
          let (q_n, tn), (q_s, ts) =
            if k land 1 = 0 then
              let a = run_once ~checkpoint:noop () in
              let ga = (!gc_minor, !gc_major) in
              let b = run_once ~checkpoint:saving () in
              if k = 0 then begin
                gc_n := ga;
                gc_s := (!gc_minor, !gc_major)
              end;
              (a, b)
            else
              let b = run_once ~checkpoint:saving () in
              let a = run_once ~checkpoint:noop () in
              (a, b)
          in
          if not (feq q_n q0 && feq q_s q0) then
            failwith "throughput: checkpointed mux disagrees with the baseline";
          if tn < !t_n then t_n := tn;
          if ts < !t_s then t_s := ts;
          ratios.(k) <- ts /. tn
        done;
        row ~gc:!gc_n ~section:"ckpt"
          ~name:(Printf.sprintf "mux-ckpt-noop-every-%d" every)
          ~order ~n:slots ~domains:1 !t_n;
        row ~gc:!gc_s ~section:"ckpt"
          ~name:(Printf.sprintf "mux-ckpt-every-%d" every)
          ~order ~n:slots ~domains:1 !t_s;
        Array.sort compare ratios;
        let pct = 100.0 *. (ratios.(rounds / 2) -. 1.0) in
        pf "# every=%d: checkpoint overhead %.2f%% (%d snapshots, paired median)%s\n" every
          pct
          ((slots - 1) / every)
          (if every = 8192 then
             if pct < 5.0 then " (< 5% gate: ok)" else " (< 5% gate: EXCEEDED)"
           else "");
        (Printf.sprintf "checkpoint_overhead_pct_every_%d" every, pct))
      [ 1024; 8192 ]
  in
  (try Sys.remove ck_path with Sys_error _ -> ());
  scaling_ratios := !scaling_ratios @ ck_ratios;
  (* Cache counters: every plan/table lookup the run just made, so
     the recorded numbers show how much fitting the caches absorbed
     (misses = cold fits, hits = reuse across sources and repeats). *)
  List.iter
    (fun (nm, (s : Ss_mux.Source.cache_stats)) ->
      pf "# cache %-18s hits=%d misses=%d evictions=%d\n" nm s.Ss_mux.Source.hits
        s.Ss_mux.Source.misses s.Ss_mux.Source.evictions)
    (Ss_mux.Source.cache_stats ());
  let rs = List.rev !rows in
  let buf = Buffer.create 2048 in
  Printf.bprintf buf "{\n  \"machine\": %s,\n  \"block\": %d,\n  \"rows\": [\n" (machine_json ())
    block;
  let last = List.length rs - 1 in
  List.iteri
    (fun i (section, name, order, n, domains, secs, rate, gcm, gcj) ->
      Printf.bprintf buf
        "    {\"section\": \"%s\", \"name\": \"%s\", \"order\": %d, \"n\": %d, \"domains\": %d, \
         \"seconds\": %s, \"slots_per_sec\": %s, \"ns_per_slot\": %s, \
         \"gc_minor_words\": %s, \"gc_major_words\": %s}%s\n"
        section name order n domains
        (jf ~decimals:6 secs)
        (jf ~decimals:0 rate)
        (jf ~decimals:1 (1e9 *. secs /. float_of_int n))
        (jf ~decimals:0 gcm)
        (jf ~decimals:0 gcj)
        (if i = last then "" else ","))
    rs;
  Buffer.add_string buf "  ],\n";
  let time_of name =
    let _, _, _, _, _, secs, _, _, _ =
      List.find (fun (_, nm, _, _, _, _, _, _, _) -> nm = name) rs
    in
    secs
  in
  Printf.bprintf buf "  \"summary\": {\n";
  let ratio key num den =
    Printf.bprintf buf "    \"%s\": %s,\n" key (jf ~decimals:3 (time_of num /. time_of den))
  in
  ratio "block_speedup_order_64" "scalar-order-64" "block-order-64";
  ratio "block_speedup_order_512" "scalar-order-512" "block-order-512";
  ratio "block_speedup_order_2048" "scalar-order-2048" "block-order-2048";
  ratio "fft_block_speedup_order_64" "block-order-64" "block-fft-order-64";
  ratio "fft_block_speedup_order_512" "block-order-512" "block-fft-order-512";
  ratio "fft_block_speedup_order_2048" "block-order-2048" "block-fft-order-2048";
  ratio "dh_over_hosking_time_n4096" "davies-harte-n4096" "hosking-512-n4096";
  ratio "dh_over_hosking_time_n32768" "davies-harte-n32768" "hosking-512-n32768";
  ratio "dh_over_hosking_time_n131072" "davies-harte-n131072" "hosking-512-n131072";
  let nr = List.length !scaling_ratios in
  List.iteri
    (fun i (k, v) ->
      Printf.bprintf buf "    \"%s\": %s%s\n" k
        (jf ~decimals:3 v)
        (if i = nr - 1 then "" else ","))
    !scaling_ratios;
  Buffer.add_string buf "  }\n}\n";
  let oc = open_out "BENCH_throughput.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  pf "# wrote BENCH_throughput.json (checksum %.6g)\n" !sink

(* throughput-smoke: the cheap CI gate over the block-kernel work.
   (1) A fixed-seed mux run over block-native model sources must
   produce a bitwise-identical report to the same run over
   scalar-adapter rewraps of the same sources (exercising the default
   loop-the-scalar-pull block adapter against the native kernel).
   (2) The Davies-Harte IS backend must agree with the Hosking walk
   on a moderately-likely overflow within a joint 3-sigma band — with
   the table covering the whole horizon both backends are exact
   synthesizers of the same law, so only MC noise separates them. *)
let throughput_smoke () =
  let kernel = !smoke_kernel in
  pf "# throughput-smoke: block/scalar mux equivalence + cross-backend overflow agreement\n";
  pf "# variant: kernel=%s\n" (match kernel with `Exact -> "exact" | `Fft -> "fft");
  let m = model () in
  let n = 2 and order = 64 and slots = 4096 in
  let service = 2.0 *. m.Model.mean /. 0.7 in
  let buffer = 30.0 *. m.Model.mean in
  let mk () =
    let rng = rng_for "tp-smoke-mux" in
    Array.init n (fun i ->
        Ss_mux.Source.of_model ~name:(Printf.sprintf "s%d" i) ~order ~kernel m (Rng.split rng))
  in
  let scalarize s =
    Ss_mux.Source.make ~name:s.Ss_mux.Source.name ~mean:s.Ss_mux.Source.mean
      ~sigma2:s.Ss_mux.Source.sigma2 ~hurst:s.Ss_mux.Source.hurst (fun () ->
        s.Ss_mux.Source.pull ())
  in
  let run srcs =
    Ss_mux.Mux.run ?pool:(pool ()) ~buffer ~thresholds:[ 0.5 *. buffer ] ~service ~slots srcs
  in
  let r_b = run (mk ()) in
  let r_s = run (Array.map scalarize (mk ())) in
  let feq a b = Int64.bits_of_float a = Int64.bits_of_float b in
  let ok =
    feq r_b.Ss_mux.Mux.mean_queue r_s.Ss_mux.Mux.mean_queue
    && feq r_b.Ss_mux.Mux.max_queue r_s.Ss_mux.Mux.max_queue
    && feq r_b.Ss_mux.Mux.loss_fraction r_s.Ss_mux.Mux.loss_fraction
    && List.for_all2
         (fun (p1, q1) (p2, q2) -> p1 = p2 && feq q1 q2)
         r_b.Ss_mux.Mux.queue_quantiles r_s.Ss_mux.Mux.queue_quantiles
    && List.for_all2
         (fun (t1, f1) (t2, f2) -> feq t1 t2 && feq f1 f2)
         r_b.Ss_mux.Mux.overflow r_s.Ss_mux.Mux.overflow
    && Array.for_all2
         (fun (a : Ss_mux.Mux.source_report) (b : Ss_mux.Mux.source_report) ->
           feq a.Ss_mux.Mux.offered b.Ss_mux.Mux.offered && feq a.Ss_mux.Mux.lost b.Ss_mux.Mux.lost)
         r_b.Ss_mux.Mux.per_source r_s.Ss_mux.Mux.per_source
  in
  pf "# block mux:  mean_queue=%.6g loss=%.3g\n" r_b.Ss_mux.Mux.mean_queue
    r_b.Ss_mux.Mux.loss_fraction;
  pf "# scalar mux: mean_queue=%.6g loss=%.3g\n" r_s.Ss_mux.Mux.mean_queue
    r_s.Ss_mux.Mux.loss_fraction;
  if not ok then failwith "throughput-smoke: block and scalar mux reports differ";
  pf "# block == scalar (bitwise)\n";
  if kernel = `Fft then begin
    (* Statistical gates for the fft kernel: no bitwise contract
       exists against the exact tier, so the gate is the definition of
       the tier — the synthesized background must carry the model's
       dependence structure. Averaged sample ACF (over fixed-seed
       paths) must track the model ACF at every lag <= 100, and the
       variance-time Hurst estimate must agree with the same estimator
       run on exact paths (comparing estimator-to-estimator cancels the
       VT estimator's own bias). *)
    let h = 0.8 in
    let acf = Acf.fgn ~h in
    (* Per-path variance-time H carries ~0.04 std at this length, so
       the 0.03 gate needs the averaging: 24 paths put ~2.5 sigma
       between an unbiased variant and the threshold. *)
    let gn = 16384 and paths = 24 in
    let rng = rng_for "tp-smoke-stat" in
    (* The reference is the exact-tier Hosking kernel the fft kernel
       replaces (truncated AR(512) — a slightly different law than the
       exact circulant, so a Davies-Harte reference would show the
       truncation, not the tier). *)
    let hosking_gen ?fft_plan () =
      let table = Ss_mux.Source.table_for ~acf ~order:512 in
      fun r ->
        let b = Hosking.Block.create ?fft_plan ~table ~order:512 () in
        let dst = Array.make gn 0.0 in
        Hosking.Block.fill b r dst ~off:0 ~len:gn;
        dst
    in
    let gen_variant = hosking_gen ~fft_plan:(Ss_mux.Source.fft_plan_for ~acf ~order:512) () in
    let gen_ref = hosking_gen () in
    let acf_avg = Array.make 101 0.0 in
    let h_var = ref 0.0 and h_ref = ref 0.0 in
    for _ = 1 to paths do
      let xv = gen_variant (Rng.split rng) in
      let xr = gen_ref (Rng.split rng) in
      let rv = D.acf xv ~max_lag:100 in
      for k = 0 to 100 do
        acf_avg.(k) <- acf_avg.(k) +. rv.(k)
      done;
      h_var := !h_var +. (Hurst.variance_time xv).Hurst.h;
      h_ref := !h_ref +. (Hurst.variance_time xr).Hurst.h
    done;
    let fp = float_of_int paths in
    let worst = ref 0.0 and worst_lag = ref 0 in
    for k = 1 to 100 do
      let e = abs_float ((acf_avg.(k) /. fp) -. acf.Acf.r k) in
      if e > !worst then begin
        worst := e;
        worst_lag := k
      end
    done;
    let hv = !h_var /. fp and hr = !h_ref /. fp in
    pf "# acf: max |avg sample - model| over lags 1..100 = %.4f (lag %d; %d paths, n=%d)\n"
      !worst !worst_lag paths gn;
    pf "# variance-time H: variant %.4f, exact reference %.4f (model %.2f)\n" hv hr h;
    if !worst > 0.05 then
      failwith "throughput-smoke: sample ACF disagrees with the model ACF beyond 0.05";
    if abs_float (hv -. hr) > 0.03 then
      failwith
        "throughput-smoke: variance-time Hurst disagrees with the exact reference beyond 0.03";
    pf "# statistical gates passed (acf <= 0.05, |dH| <= 0.03)\n"
  end
  else begin
  let horizon = 200 in
  let table = Generate.table m ~n:horizon in
  let arrival = Generate.arrival_fn m in
  let service = m.Model.mean /. 0.6 in
  let buffer = 5.0 *. m.Model.mean in
  let cfg backend =
    Is.make_config ~table ~arrival ~service ~buffer ~horizon ~twist:0.0 ~backend ()
  in
  let plan = Ss_mux.Source.plan_for ~acf:(Model.background_acf m) ~n:horizon () in
  let rng = rng_for "tp-smoke-is" in
  let reps_each = 600 in
  let e_h = Is.estimate ?pool:(pool ()) (cfg `Hosking) ~replications:reps_each (Rng.split rng) in
  let e_d =
    Is.estimate ?pool:(pool ()) (cfg (`Davies_harte plan)) ~replications:reps_each (Rng.split rng)
  in
  pf "# hosking      p=%.4g  hits=%d/%d\n" e_h.Mc.p e_h.Mc.hits reps_each;
  pf "# davies-harte p=%.4g  hits=%d/%d\n" e_d.Mc.p e_d.Mc.hits reps_each;
  if e_h.Mc.hits = 0 then failwith "throughput-smoke: hosking backend recorded no events";
  if e_d.Mc.hits = 0 then failwith "throughput-smoke: davies-harte backend recorded no events";
  let band = 3.0 *. sqrt ((e_h.Mc.variance +. e_d.Mc.variance) /. float_of_int reps_each) in
  let diff = abs_float (e_h.Mc.p -. e_d.Mc.p) in
  pf "# |p_h - p_dh| = %.4g, joint 3-sigma band = %.4g\n" diff band;
  if diff > band then failwith "throughput-smoke: backends disagree beyond 3 sigma";
  pf "# agreement within 3 sigma\n";
  (* (3) Sharded-mux gate: a fixed-seed run must be bitwise invariant
     in the shard count (the whole report, via Mux.equal_report), and
     the coarse per-block barrier must keep the 4-shard dispatch
     within 5% of the single-shard rate even on one core. *)
  let n_s = 256 and slots_s = 16384 in
  let service_s = float_of_int n_s *. 0.64 /. 0.7 in
  let mk_cheap () =
    Array.init n_s (fun i ->
        let len = 384 + (i mod 29) in
        let arr =
          Array.init len (fun t -> abs_float (sin (float_of_int ((t + 1) * (i + 7)))))
        in
        Ss_mux.Source.of_array ~name:(Printf.sprintf "a%d" i) ~cycle:true arr)
  in
  (* The pool is alive for BOTH timings: the mere existence of worker
     domains changes GC pacing (multi-domain stop-the-world minors),
     so creating it between the two cells would fold that into the
     d4/d1 ratio. The d1/d4 repeats are interleaved so a burst of
     host noise lands on both sides rather than biasing one phase;
     each side keeps its minimum of seven. Sources are stateful:
     rebuilt outside the clock per repeat, and repeats must agree
     with themselves bitwise. *)
  let p4 = Pool.create ~domains:4 in
  let once ?pool shards =
    let srcs = mk_cheap () in
    (* Level the heap before the clock starts: each run allocates
       multi-MB staging arrays, and whoever runs second in a pair
       would otherwise pay the first run's deferred major-GC work. *)
    Gc.full_major ();
    time_it (fun () -> Ss_mux.Mux.run ?pool ~shards ~service:service_s ~slots:slots_s srcs)
  in
  let rep1 = ref None and rep4 = ref None in
  let t1 = ref infinity and t4 = ref infinity in
  let keep rep best (r, secs) =
    (match !rep with
    | None -> rep := Some r
    | Some r0 ->
        if not (Ss_mux.Mux.equal_report r0 r) then
          failwith "throughput-smoke: repeated sharded run disagrees with itself");
    if secs < !best then best := secs
  in
  let reps = 15 in
  let ratios = Array.make reps 0.0 in
  for k = 0 to reps - 1 do
    (* Alternate which side goes first so any residual position bias
       (cache warmth, scheduler phase) cancels across repeats. The
       gate uses the MEDIAN of per-pair ratios: the two sides of one
       pair share the same host-noise phase, so a slow phase moves
       both times, not the ratio — where a ratio of two independent
       minima doubles the noise. *)
    let a, b =
      if k land 1 = 0 then
        let a = once 1 in
        let b = once ~pool:p4 4 in
        (a, b)
      else
        let b = once ~pool:p4 4 in
        let a = once 1 in
        (a, b)
    in
    keep rep1 t1 a;
    keep rep4 t4 b;
    ratios.(k) <- snd a /. snd b
  done;
  Pool.shutdown p4;
  let r1 = Option.get !rep1 and r4 = Option.get !rep4 in
  if not (Ss_mux.Mux.equal_report r1 r4) then
    failwith "throughput-smoke: shard=4 report differs from shard=1";
  Array.sort compare ratios;
  let med = ratios.(reps / 2) in
  let best = ratios.(reps - 1) in
  let rate t = float_of_int slots_s /. t in
  pf "# sharded mux: d1 %.0f slots/s, d4 %.0f slots/s (paired d4/d1 median %.2fx, best %.2fx)\n"
    (rate !t1) (rate !t4) med best;
  (* A genuine dispatch regression is deterministic: it slows EVERY
     d4 run, so no pair can show d4 >= d1. Host noise, by contrast,
     scatters pairs on both sides of 1.0. Hence: median >= 0.95
     passes outright; otherwise a single d4-wins pair acquits, with
     a median backstop against gross regressions. *)
  if not (med >= 0.95 || (best >= 1.0 && med >= 0.85)) then
    failwith "throughput-smoke: 4-shard mux below 0.95x the single-shard rate";
  pf "# shard=4 == shard=1 (bitwise), d4 >= 0.95x d1\n"
  end

(* checkpoint-smoke: the cheap CI gate over the crash-safe snapshot
   path. One fixed-seed mux run — police and fault injection active,
   so every serialized subsystem carries live state — with the
   periodic snapshot hook armed must agree bitwise with the
   uncheckpointed baseline (Mux.equal_report), and a run resumed from
   the mid-run snapshot must reproduce the uninterrupted report
   bitwise, including when the resumed run uses a different shard
   count than the one that wrote the snapshot. *)
let checkpoint_smoke () =
  pf "# checkpoint-smoke: snapshot/resume bit-identity on the mux slot loop\n";
  let m = model () in
  let n = 4 and order = 64 and slots = 4096 in
  let service = float_of_int n *. m.Model.mean /. 0.7 in
  let buffer = 30.0 *. m.Model.mean in
  let faults = Ss_mux.Fault.parse "*:burst@0.002+40x2.5;0:corrupt@0.001" in
  let mk () =
    let rng = rng_for "ckpt-smoke" in
    let srcs =
      Array.init n (fun i ->
          Ss_mux.Source.of_model ~name:(Printf.sprintf "s%d" i) ~order m (Rng.split rng))
    in
    Ss_mux.Fault.wrap_all ~rng:(Rng.split rng) faults srcs
  in
  let run ?shards ?checkpoint ?resume () =
    let srcs = mk () in
    let policer =
      Ss_mux.Police.create
        ~config:{ Ss_mux.Police.default with window = 512 }
        (Array.map Ss_mux.Admission.descr_of_source srcs)
    in
    Ss_mux.Mux.run ?shards ?checkpoint ?resume ~police:policer ~buffer ~service ~slots srcs
  in
  let base = run () in
  let path = Filename.temp_file "ss-smoke" ".ckpt" in
  let every = 1500 in
  let ck =
    {
      Ss_mux.Mux.every;
      save =
        (fun ~slot:_ fill -> Ss_checkpoint.to_file ~path ~kind:"bench-smoke" ~meta:"" fill);
    }
  in
  let armed = run ~checkpoint:ck () in
  if not (Ss_mux.Mux.equal_report base armed) then
    failwith "checkpoint-smoke: snapshot hook perturbed the run";
  pf "# armed == baseline (bitwise), snapshots every %d slots\n" every;
  let resume_with shards =
    let _, r = Ss_checkpoint.of_file ~path ~kind:"bench-smoke" in
    let resumed = run ~shards ~resume:r () in
    if not (Ss_mux.Mux.equal_report base resumed) then
      failwith
        (Printf.sprintf "checkpoint-smoke: resumed run (shards=%d) differs from baseline" shards)
  in
  resume_with 1;
  resume_with 4;
  (try Sys.remove path with Sys_error _ -> ());
  pf "# resume (shards=1 and shards=4) == uninterrupted (bitwise)\n";
  pf "# mean_queue=%.6g loss=%.3g\n" base.Ss_mux.Mux.mean_queue base.Ss_mux.Mux.loss_fraction

(* ------------------------------------------------------------------ *)
(* abr: streaming-client fleets over mux trajectories                  *)
(* ------------------------------------------------------------------ *)

(* One mux run whose per-source served/delay trajectory feeds a whole
   fleet of clients. Sources and faults draw from a tag-seeded master
   stream, so every scenario rebuilds bit-identical traffic. Returns
   the advanced generator for the fleet's client substreams. *)
let abr_trajectory ~tag ~n ~order ~utilization ~slots ?faults () =
  let m = model () in
  let rng = Rng.create ~seed:(Defaults.seed + Hashtbl.hash tag) in
  let srcs =
    Array.init n (fun i ->
        Ss_mux.Source.of_model ~name:(Printf.sprintf "s%d" i) ~order m (Rng.split rng))
  in
  let srcs =
    match faults with
    | None -> srcs
    | Some fs -> Ss_mux.Fault.wrap_all ~rng:(Rng.split rng) fs srcs
  in
  let service = float_of_int n *. m.Model.mean /. utilization in
  let fps = Defaults.scene_config_intra.Ss_video.Scene_source.fps in
  let capture = Ss_abr.Trajectory.create ~slots ~sources:n ~slot_s:(1.0 /. fps) in
  let report =
    Ss_mux.Mux.run ?pool:(pool ()) ~trajectory:(Ss_abr.Trajectory.sink capture) ~service
      ~slots srcs
  in
  (capture, report, rng)

let abr_chunk_frames = 30

(* Bitrate ladder shared by the abr experiments: equal-seed
   Scene_source rungs (Scene_source.ladder) calibrated so the 1.0
   rung's mean rate matches the fitted model's per-source mean. *)
let abr_ladder =
  lazy
    (let m = model () in
     let base =
       {
         Defaults.scene_config_intra with
         Ss_video.Scene_source.frames = abr_chunk_frames * 96;
       }
     in
     let rung_rng () = Rng.create ~seed:(Defaults.seed + Hashtbl.hash "abr-ladder") in
     let cal = Ss_video.Scene_source.generate base (rung_rng ()) in
     let scale = m.Model.mean /. D.mean cal.Trace.sizes in
     let cfgs =
       Ss_video.Scene_source.ladder
         ~levels:[ 0.3; 0.55; 1.0; 1.8; 3.0 ]
         {
           base with
           Ss_video.Scene_source.mean_i_bytes =
             base.Ss_video.Scene_source.mean_i_bytes *. scale;
         }
     in
     Ss_abr.Ladder.of_traces ~chunk_frames:abr_chunk_frames
       (List.map (fun c -> Ss_video.Scene_source.generate c (rung_rng ())) cfgs))

let json_summary (s : Ss_abr.Fleet.summary) =
  Printf.sprintf
    "{\"mean\": %s, \"std\": %s, \"min\": %s, \"max\": %s, \"q10\": %s, \"q50\": %s, \
     \"q90\": %s}"
    (jf s.Ss_abr.Fleet.mean) (jf s.Ss_abr.Fleet.std) (jf s.Ss_abr.Fleet.min)
    (jf s.Ss_abr.Fleet.max) (jf s.Ss_abr.Fleet.q10) (jf s.Ss_abr.Fleet.q50)
    (jf s.Ss_abr.Fleet.q90)

let abr () =
  pf "# abr: streaming QoE vs bottleneck utilization (lib/abr fleets over lib/mux\n";
  pf "# trajectories); clients replay per-source served work as their bandwidth\n";
  let ladder = Lazy.force abr_ladder in
  let n_src = 4 and order = 128 and slots = 16_384 in
  let utils = [ 0.5; 0.7; 0.85 ] in
  let fleets = [ 4; 16; 64 ] in
  let config = { Ss_abr.Client.default with Ss_abr.Client.chunks = 120; max_buffer_s = 25.0 } in
  let policies = [ Ss_abr.Policy.bba (); Ss_abr.Policy.rate () ] in
  pf "# %d sources, AR order %d, %d trajectory slots; ladder rates (Mbps):" n_src order slots;
  Array.iter (fun r -> pf " %.3f" (r *. 8.0 /. 1e6)) ladder.Ss_abr.Ladder.rates;
  pf "\n# uti  clients  policy  qoe(mean)  qoe(p10)  bitrate(mean Mbps)  rebuf(mean)  rebuf(p90)  zero-stall\n";
  let rows =
    List.concat_map
      (fun u ->
        let capture, _, rng =
          abr_trajectory ~tag:(Printf.sprintf "abr-%g" u) ~n:n_src ~order ~utilization:u
            ~slots ()
        in
        List.concat_map
          (fun clients ->
            List.map
              (fun policy ->
                (* Rng.copy: client j joins at the same slot under
                   every policy and fleet size, pairing the grid. *)
                let report, _ =
                  Ss_abr.Fleet.run ?pool:(pool ()) ~rng:(Rng.copy rng) ~clients ~policy
                    ~ladder ~trajectory:capture ~config ()
                in
                pf "%5.2f  %7d  %-6s  %9.4f  %8.4f  %18.4f  %11.4f  %10.4f  %9.2f\n" u
                  clients report.Ss_abr.Fleet.policy report.Ss_abr.Fleet.qoe.Ss_abr.Fleet.mean
                  report.Ss_abr.Fleet.qoe.Ss_abr.Fleet.q10
                  report.Ss_abr.Fleet.bitrate_mbps.Ss_abr.Fleet.mean
                  report.Ss_abr.Fleet.rebuffer_ratio.Ss_abr.Fleet.mean
                  report.Ss_abr.Fleet.rebuffer_ratio.Ss_abr.Fleet.q90
                  report.Ss_abr.Fleet.zero_rebuffer_fraction;
                (u, report))
              policies)
          fleets)
      utils
  in
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "{\n  \"machine\": %s,\n" (machine_json ());
  Printf.bprintf buf
    "  \"sources\": %d, \"order\": %d, \"slots\": %d, \"chunks\": %d, \"chunk_s\": %s,\n"
    n_src order slots config.Ss_abr.Client.chunks
    (jf ladder.Ss_abr.Ladder.chunk_s);
  Printf.bprintf buf "  \"ladder_rates_bps\": [%s],\n"
    (String.concat ", " (Array.to_list (Array.map (fun r -> jf r) ladder.Ss_abr.Ladder.rates)));
  Printf.bprintf buf "  \"cells\": [\n";
  let last = List.length rows - 1 in
  List.iteri
    (fun i (u, (r : Ss_abr.Fleet.report)) ->
      Printf.bprintf buf
        "    {\"utilization\": %s, \"clients\": %d, \"policy\": \"%s\", \"qoe\": %s, \
         \"rebuffer_ratio\": %s, \"bitrate_mbps\": %s, \"startup_s\": %s, \
         \"zero_rebuffer_fraction\": %s, \"mean_level\": %s, \"mean_switches\": %s}%s\n"
        (jf u) r.Ss_abr.Fleet.clients r.Ss_abr.Fleet.policy (json_summary r.Ss_abr.Fleet.qoe)
        (json_summary r.Ss_abr.Fleet.rebuffer_ratio)
        (json_summary r.Ss_abr.Fleet.bitrate_mbps)
        (json_summary r.Ss_abr.Fleet.startup_s)
        (jf ~decimals:4 r.Ss_abr.Fleet.zero_rebuffer_fraction)
        (jf ~decimals:4 r.Ss_abr.Fleet.mean_level)
        (jf ~decimals:4 r.Ss_abr.Fleet.mean_switches)
        (if i = last then "" else ","))
    rows;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out "BENCH_abr.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  pf "# wrote BENCH_abr.json\n"

(* Seconds-scale CI gate over the ABR layer. One background source
   drifts to 3x its declared mean, squeezing the served-work share of
   the well-behaved sources: (1) the squeeze must actually cause
   rebuffering; (2) a protective buffer-based policy (deep reservoir)
   must stall no more than the throughput-chasing rate policy; (3) a
   fleet rerun without the pool must be bit-identical per client —
   with SS_DOMAINS>1 in the environment this pins the pooled fanout
   to the sequential reference. *)
let abr_smoke () =
  pf "# abr-smoke: drift-squeezed fleet - policy ordering + pool bit-identity\n";
  let faults = [ (Some 0, [ Ss_mux.Fault.Drift { start = 1024; ramp = 512; factor = 3.0 } ]) ] in
  let capture, mux_report, rng =
    abr_trajectory ~tag:"abr-smoke" ~n:4 ~order:64 ~utilization:0.6 ~slots:8192 ~faults ()
  in
  pf "# mux mean queue %.0f B (3x drift on source 0 from slot 1024)\n"
    mux_report.Ss_mux.Mux.mean_queue;
  let ladder = Lazy.force abr_ladder in
  let config = { Ss_abr.Client.default with Ss_abr.Client.chunks = 160; max_buffer_s = 12.0 } in
  let bba = Ss_abr.Policy.bba ~reservoir_s:10.0 ~cushion_s:10.0 () in
  let rate = Ss_abr.Policy.rate () in
  let run ~pool policy =
    Ss_abr.Fleet.run ?pool ~rng:(Rng.copy rng) ~clients:32 ~policy ~ladder
      ~trajectory:capture ~config ()
  in
  let rep_bba, res_bba = run ~pool:(pool ()) bba in
  let rep_rate, _ = run ~pool:(pool ()) rate in
  pf "# bba   rebuffer ratio mean %.4f  (total stall %.1f s, qoe %.4f)\n"
    rep_bba.Ss_abr.Fleet.rebuffer_ratio.Ss_abr.Fleet.mean rep_bba.Ss_abr.Fleet.rebuffer_s_total
    rep_bba.Ss_abr.Fleet.qoe.Ss_abr.Fleet.mean;
  pf "# rate  rebuffer ratio mean %.4f  (total stall %.1f s, qoe %.4f)\n"
    rep_rate.Ss_abr.Fleet.rebuffer_ratio.Ss_abr.Fleet.mean
    rep_rate.Ss_abr.Fleet.rebuffer_s_total rep_rate.Ss_abr.Fleet.qoe.Ss_abr.Fleet.mean;
  if rep_rate.Ss_abr.Fleet.rebuffer_s_total <= 0.0 then
    failwith "abr-smoke: drift squeeze caused no rebuffering";
  if
    rep_bba.Ss_abr.Fleet.rebuffer_ratio.Ss_abr.Fleet.mean
    > rep_rate.Ss_abr.Fleet.rebuffer_ratio.Ss_abr.Fleet.mean
  then failwith "abr-smoke: buffer-based policy stalled more than rate-based";
  let _, res_seq = run ~pool:None bba in
  let feq a b = Int64.bits_of_float a = Int64.bits_of_float b in
  Array.iteri
    (fun j (a : Ss_abr.Client.result) ->
      let b = res_seq.(j) in
      if
        not
          (feq a.Ss_abr.Client.qoe b.Ss_abr.Client.qoe
          && feq a.Ss_abr.Client.rebuffer_s b.Ss_abr.Client.rebuffer_s
          && feq a.Ss_abr.Client.startup_s b.Ss_abr.Client.startup_s
          && feq a.Ss_abr.Client.mean_bitrate_mbps b.Ss_abr.Client.mean_bitrate_mbps
          && a.Ss_abr.Client.switches = b.Ss_abr.Client.switches)
      then failwith (Printf.sprintf "abr-smoke: client %d differs pooled vs sequential" j))
    res_bba;
  pf "# pooled fleet == sequential fleet (bitwise, %d clients)\n" (Array.length res_bba)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                            *)
(* ------------------------------------------------------------------ *)

let perf () =
  let open Bechamel in
  let rng = Rng.create ~seed:1 in
  let fgn_table = Hosking.Table.make ~acf:(Acf.fgn ~h:0.9) ~n:1024 in
  let dh_plan = DH.plan ~acf:(Acf.fgn ~h:0.9) ~n:4096 () in
  let m = model () in
  let xs = Array.init 4096 (fun _ -> Rng.gaussian rng) in
  let arrivals = Array.init 4096 (fun _ -> abs_float (Rng.gaussian rng)) in
  let is_cfg =
    Is.make_config ~table:fgn_table ~arrival:(fun _ x -> x) ~service:0.5 ~buffer:8.0
      ~horizon:1024 ~twist:1.0 ()
  in
  let tests =
    [
      Test.make ~name:"hosking-table-path-1024" (Staged.stage (fun () ->
          ignore (Hosking.generate fgn_table rng)));
      Test.make ~name:"davies-harte-path-4096" (Staged.stage (fun () ->
          ignore (DH.generate dh_plan rng)));
      Test.make ~name:"transform-apply-4096" (Staged.stage (fun () ->
          ignore (Transform.apply m.Model.transform xs)));
      Test.make ~name:"lindley-path-4096" (Staged.stage (fun () ->
          ignore (Ss_queueing.Lindley.path ~service:1.0 arrivals)));
      Test.make ~name:"fft-4096" (Staged.stage (fun () ->
          ignore (Ss_fft.Fft.real_forward_magnitude2 xs)));
      Test.make ~name:"acf-4096-lag100" (Staged.stage (fun () ->
          ignore (D.acf xs ~max_lag:100)));
      Test.make ~name:"normal-quantile" (Staged.stage (fun () ->
          ignore (Ss_stats.Special.normal_quantile 0.123)));
      Test.make ~name:"is-replication-1024" (Staged.stage (fun () ->
          ignore (Is.replicate is_cfg rng)));
    ]
  in
  let benchmark test =
    let quota = Time.second 0.5 in
    Benchmark.all (Benchmark.cfg ~limit:2000 ~quota ~kde:(Some 1000) ())
      Toolkit.Instance.[ monotonic_clock ]
      test
  in
  let analyze results =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    Analyze.all ols Toolkit.Instance.monotonic_clock results
  in
  pf "# perf: Bechamel micro-benchmarks (monotonic clock)\n";
  pf "# %-28s  %14s\n" "benchmark" "time/run";
  List.iter
    (fun test ->
      let results = analyze (benchmark test) in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] ->
            let human v =
              if v > 1e9 then Printf.sprintf "%8.3f s" (v /. 1e9)
              else if v > 1e6 then Printf.sprintf "%8.3f ms" (v /. 1e6)
              else if v > 1e3 then Printf.sprintf "%8.3f us" (v /. 1e3)
              else Printf.sprintf "%8.1f ns" v
            in
            pf "%-30s  %14s\n" name (human est)
          | _ -> pf "%-30s  (no estimate)\n" name)
        results)
    tests

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("table1", table1);
    ("fig1", fig1);
    ("fig2", fig2);
    ("fig3", fig3);
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("fig13", fig13);
    ("fig14", fig14);
    ("fig15", fig15);
    ("fig16", fig16);
    ("fig17", fig17);
    ("abl-gen", abl_gen);
    ("abl-knee", abl_knee);
    ("abl-atten", abl_atten);
    ("abl-trunc", abl_trunc);
    ("abl-hurst", abl_hurst);
    ("abl-farima", abl_farima);
    ("abl-trad", abl_trad);
    ("abl-marg", abl_marg);
    ("abl-mux", abl_mux);
    ("mux-gain", mux_gain);
    ("mux-is", mux_is);
    ("mux-is-smoke", mux_is_smoke);
    ("police", police);
    ("police-smoke", police_smoke);
    ("abl-slice", abl_slice);
    ("abl-norros", abl_norros);
    ("abl-batch", abl_batch);
    ("abl-ibp-queue", abl_ibp_queue);
    ("abl-codec", abl_codec);
    ("abl-twist", abl_twist);
    ("abl-iter", abl_iter);
    ("perf-parallel", perf_parallel);
    ("throughput", throughput);
    ("throughput-smoke", throughput_smoke);
    ("checkpoint-smoke", checkpoint_smoke);
    ("abr", abr);
    ("abr-smoke", abr_smoke);
  ]

let run_one (id, f) =
  let t0 = Unix.gettimeofday () in
  f ();
  pf "# [%s done in %.1f s]\n\n%!" id (Unix.gettimeofday () -. t0)

(* Run one experiment with stdout redirected into dir/<id>.dat —
   feeds the gnuplot scripts in plots/. *)
let run_into dir (id, f) =
  let path = Filename.concat dir (id ^ ".dat") in
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  let finish () =
    flush stdout;
    Unix.dup2 saved Unix.stdout;
    Unix.close saved
  in
  (try
     let t0 = Unix.gettimeofday () in
     f ();
     flush stdout;
     finish ();
     Printf.printf "wrote %s (%.1f s)\n%!" path (Unix.gettimeofday () -. t0)
   with e ->
     finish ();
     raise e)

(* Strict-parse the given BENCH_*.json artifacts (the CI gate against
   bare nan/inf tokens sneaking back into a writer). *)
let check_json files =
  let bad = ref 0 in
  List.iter
    (fun path ->
      match Ss_json.validate_file path with
      | Ok () -> Printf.printf "%s: ok\n" path
      | Error msg ->
        incr bad;
        Printf.eprintf "%s: %s\n" path msg
      | exception Sys_error msg ->
        incr bad;
        Printf.eprintf "%s\n" msg)
    files;
  if !bad > 0 then exit 1

(* Peel a trailing `--kernel K` smoke-variant selector off the
   argument list (setting [smoke_kernel]), leaving the rest for the
   usual dispatch. *)
let rec peel_variant = function
  | "--kernel" :: v :: rest ->
    (smoke_kernel :=
       match v with
       | "exact" -> `Exact
       | "fft" -> `Fft
       | _ ->
         prerr_endline ("bad --kernel " ^ v ^ " (expected exact or fft)");
         exit 1);
    peel_variant rest
  | x :: rest -> x :: peel_variant rest
  | [] -> []

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "--check-json" :: files ->
    if files = [] then begin
      prerr_endline "usage: main.exe --check-json FILE...";
      exit 1
    end;
    check_json files
  | args -> (
    match peel_variant args with
    | [] ->
      pf "# Reproduction harness: Huang/Devetsikiotis/Lambadaris/Kaye, SIGCOMM '95\n";
      pf "# replications per estimate: %d%s\n\n" reps
        (if Defaults.full_scale then " (SS_FULL: paper scale)"
         else " (set SS_FULL=1 for paper scale)");
      List.iter run_one experiments;
      run_one ("perf", perf)
    | [ "--perf" ] -> perf ()
    | [ "--out"; dir ] ->
      if not (Sys.file_exists dir && Sys.is_directory dir) then Unix.mkdir dir 0o755;
      List.iter (run_into dir) experiments
    | [ id ] -> (
      match List.assoc_opt id experiments with
      | Some f -> run_one (id, f)
      | None ->
        prerr_endline ("unknown experiment: " ^ id);
        prerr_endline
          ("known: --perf --out DIR --check-json FILE... "
          ^ String.concat " " (List.map fst experiments));
        exit 1)
    | _ ->
      prerr_endline
        "usage: main.exe [experiment-id [--kernel exact|fft] | --perf | --out DIR | \
         --check-json FILE...]";
      exit 1)
