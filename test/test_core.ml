(* Tests for ss_core: the unified fitting pipeline, model variants,
   generation, the MPEG composite pipeline and reporting. *)

module Rng = Ss_stats.Rng
module D = Ss_stats.Descriptive
module Acf = Ss_fractal.Acf
module Acf_fit = Ss_fractal.Acf_fit
module Hurst = Ss_fractal.Hurst
module Trace = Ss_video.Trace
module Scene = Ss_video.Scene_source
module Gop = Ss_video.Gop
module Model = Ss_core.Model
module Fit = Ss_core.Fit
module Generate = Ss_core.Generate
module Mpeg = Ss_core.Mpeg
module Report = Ss_core.Report
module Defaults = Ss_core.Defaults

let close ?(eps = 1e-9) msg expected actual =
  if abs_float (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let raises_invalid msg f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" msg

(* A compact intraframe reference for fast tests: 16k frames. *)
let small_intra =
  lazy
    (Scene.generate
       { Scene.default with frames = 16_384; gop = Gop.of_string "I" }
       (Rng.create ~seed:15))

let small_fit = lazy (Fit.fit ~max_lag:120 (Lazy.force small_intra).Trace.sizes)

(* ------------------------------------------------------------------ *)
(* hurst_round                                                          *)
(* ------------------------------------------------------------------ *)

let test_hurst_round () =
  close "0.884 -> 0.9" 0.9 (Fit.hurst_round 0.884);
  close "0.86 -> 0.85" 0.85 (Fit.hurst_round 0.86);
  close "0.92 -> 0.9" 0.9 (Fit.hurst_round 0.92);
  close "clamps high" 0.95 (Fit.hurst_round 0.99);
  close "clamps low" 0.55 (Fit.hurst_round 0.3)

(* ------------------------------------------------------------------ *)
(* Fit pipeline                                                         *)
(* ------------------------------------------------------------------ *)

let test_fit_produces_sane_model () =
  let model, diag = Lazy.force small_fit in
  (* H should be in LRD territory for this source. *)
  if model.Model.hurst < 0.6 || model.Model.hurst > 0.95 then
    Alcotest.failf "H out of range: %g" model.Model.hurst;
  (* attenuation in (0,1] *)
  if model.Model.attenuation <= 0.0 || model.Model.attenuation > 1.0 then
    Alcotest.failf "attenuation out of range: %g" model.Model.attenuation;
  (* the adopted beta must match H *)
  (match model.Model.dependence with
  | Model.Srd_lrd p ->
    close ~eps:1e-9 "beta = 2 - 2H" (2.0 -. (2.0 *. model.Model.hurst)) p.Acf_fit.beta
  | _ -> Alcotest.fail "expected Srd_lrd");
  (* diagnostics carry both raw and compensated fits *)
  if diag.Fit.compensated.Acf_fit.l < diag.Fit.raw_fit.Acf_fit.l then
    Alcotest.fail "compensation must not lower the LRD level";
  close "mean recorded" (D.mean (Lazy.force small_intra).Trace.sizes) model.Model.mean

let test_fit_compensated_model_is_generatable () =
  (* The compensated background ACF must be accepted by both exact
     generators — i.e. it stays positive definite. *)
  let model, _ = Lazy.force small_fit in
  let x = Generate.background model ~n:2000 Generate.Hosking_stream (Rng.create ~seed:1) in
  Alcotest.(check int) "hosking length" 2000 (Array.length x);
  let y = Generate.background model ~n:2000 Generate.Davies_harte (Rng.create ~seed:2) in
  Alcotest.(check int) "dh length" 2000 (Array.length y)

let test_fit_diag_adopted_between_estimates () =
  let _, diag = Lazy.force small_fit in
  let lo =
    Stdlib.min diag.Fit.h_variance_time.Hurst.h diag.Fit.h_rs.Hurst.h -. 0.051
  in
  let hi =
    Stdlib.max diag.Fit.h_variance_time.Hurst.h diag.Fit.h_rs.Hurst.h +. 0.051
  in
  if diag.Fit.h_adopted < lo || diag.Fit.h_adopted > hi then
    Alcotest.failf "adopted H %.3f outside estimate band [%.3f, %.3f]" diag.Fit.h_adopted lo hi

let test_fit_acf_points_match_trace () =
  let _, diag = Lazy.force small_fit in
  let sizes = (Lazy.force small_intra).Trace.sizes in
  let r = D.acf sizes ~max_lag:120 in
  Alcotest.(check int) "point count" 120 (List.length diag.Fit.acf_points);
  List.iter
    (fun (k, v) -> close ~eps:1e-12 (Printf.sprintf "acf point %d" k) r.(k) v)
    diag.Fit.acf_points

let test_fit_too_short () =
  raises_invalid "short series" (fun () -> ignore (Fit.fit ~max_lag:500 (Array.make 100 1.0)))

let test_fit_measured_attenuation_variant () =
  let sizes = (Lazy.force small_intra).Trace.sizes in
  let _, diag_q = Fit.fit ~max_lag:120 sizes in
  let _, diag_m =
    Fit.fit ~max_lag:120
      ~attenuation:(Fit.Measured { n = 8000; lags = List.init 8 (fun i -> 40 + (10 * i)); rng = Rng.create ~seed:3 })
      sizes
  in
  (* Both routes must land in the same region. *)
  close ~eps:0.2 "measured vs quadrature attenuation" diag_q.Fit.attenuation
    diag_m.Fit.attenuation

(* ------------------------------------------------------------------ *)
(* Model variants                                                       *)
(* ------------------------------------------------------------------ *)

let test_model_variants () =
  let model, _ = Lazy.force small_fit in
  let srd = Model.with_dependence model (Model.Srd_only 0.01) in
  let lrd = Model.with_dependence model (Model.Lrd_only 0.9) in
  Alcotest.(check string) "unified name" "srd+lrd" (Model.variant_name model);
  Alcotest.(check string) "srd name" "srd-only" (Model.variant_name srd);
  Alcotest.(check string) "lrd name" "lrd-only" (Model.variant_name lrd);
  (* Background ACFs reflect the dependence structure. *)
  let a_srd = Model.background_acf srd in
  close ~eps:1e-12 "srd acf" (exp (-0.01 *. 10.0)) (a_srd.Acf.r 10);
  let a_lrd = Model.background_acf lrd in
  close ~eps:1e-12 "lrd acf" ((Acf.fgn ~h:0.9).Acf.r 10) (a_lrd.Acf.r 10);
  (* Variants share the marginal transform. *)
  close "same transform"
    (Ss_fractal.Transform.apply1 model.Model.transform 1.0)
    (Ss_fractal.Transform.apply1 srd.Model.transform 1.0)

(* ------------------------------------------------------------------ *)
(* Generate                                                             *)
(* ------------------------------------------------------------------ *)

let test_generate_foreground_marginal () =
  (* Foreground values must be drawn from the empirical marginal's
     support and match its median. *)
  let model, _ = Lazy.force small_fit in
  let sizes = (Lazy.force small_intra).Trace.sizes in
  let lo = D.min sizes and hi = D.max sizes in
  (* A single LRD path's location wanders (sd of the sample mean is
     ~n^{H-1}); average the median over independent paths. *)
  let medians =
    List.init 6 (fun i ->
        let y = Generate.foreground model ~n:8192 Generate.Davies_harte (Rng.create ~seed:(40 + i)) in
        Array.iter
          (fun v ->
            if v < lo -. 1.0 || v > hi +. 1.0 then
              Alcotest.failf "foreground value %g escapes support" v)
          y;
        D.median y)
  in
  let want = D.median sizes in
  let got = List.fold_left ( +. ) 0.0 medians /. 6.0 in
  if abs_float (want -. got) /. want > 0.25 then
    Alcotest.failf "median mismatch: %.0f vs %.0f" want got

let test_generate_table_cached () =
  let model, _ = Lazy.force small_fit in
  let t1 = Generate.table model ~n:256 in
  let t2 = Generate.table model ~n:256 in
  if t1 != t2 then Alcotest.fail "table not cached";
  Alcotest.(check int) "table length" 256 (Ss_fractal.Hosking.Table.length t1)

let test_generate_cache_keyed_by_structure () =
  (* A compensated background is named after its target dependence
     only: the fitted model and its twin with the same dependence and
     a Gaussian marginal share the background's name, not its values.
     The table and plan caches must still give each model its own. *)
  let model, _ = Lazy.force small_fit in
  let transform =
    Ss_fractal.Transform.make
      (Ss_stats.Dist.normal ~mean:model.Model.mean ~std:(0.25 *. model.Model.mean))
  in
  let twin =
    {
      model with
      Model.transform;
      background = Model.background_of_dependence ~transform model.Model.dependence;
    }
  in
  let bg_model = Model.background_acf model and bg_twin = Model.background_acf twin in
  Alcotest.(check string) "shared name" bg_model.Acf.name bg_twin.Acf.name;
  if bg_model.Acf.r 1 = bg_twin.Acf.r 1 then Alcotest.fail "twin background equals the model's";
  let n = 64 in
  ignore (Generate.table model ~n : Ss_fractal.Hosking.Table.t);
  let fresh = Ss_fractal.Hosking.Table.make ~acf:bg_twin ~n in
  close ~eps:0.0 "twin table cond_var 1"
    (Ss_fractal.Hosking.Table.cond_var fresh 1)
    (Ss_fractal.Hosking.Table.cond_var (Generate.table twin ~n) 1);
  let dh m seed = Generate.background m ~n:256 Generate.Davies_harte (Rng.create ~seed) in
  ignore (dh model 6 : float array);
  let want =
    Ss_fractal.Davies_harte.(generate (plan ~acf:bg_twin ~n:256 ())) (Rng.create ~seed:6)
  in
  Array.iteri
    (fun i v ->
      if Int64.bits_of_float v <> Int64.bits_of_float want.(i) then
        Alcotest.failf "twin Davies-Harte path differs from its own plan's at %d" i)
    (dh twin 6)

let test_generate_table_reuse_in_background () =
  let model, _ = Lazy.force small_fit in
  let table = Generate.table model ~n:128 in
  let x = Generate.background model ~n:100 (Generate.Hosking_table table) (Rng.create ~seed:5) in
  Alcotest.(check int) "shorter than table ok" 100 (Array.length x);
  raises_invalid "table too short" (fun () ->
      ignore (Generate.background model ~n:200 (Generate.Hosking_table table) (Rng.create ~seed:5)))

let test_generate_arrival_fn_matches_transform () =
  let model, _ = Lazy.force small_fit in
  let f = Generate.arrival_fn model in
  List.iter
    (fun x ->
      close (Printf.sprintf "arrival at %g" x)
        (Ss_fractal.Transform.apply1 model.Model.transform x)
        (f 17 x))
    [ -2.0; 0.0; 1.5 ]

let test_generate_invalid () =
  let model, _ = Lazy.force small_fit in
  raises_invalid "n = 0" (fun () ->
      ignore (Generate.background model ~n:0 Generate.Hosking_stream (Rng.create ~seed:1)))

(* ------------------------------------------------------------------ *)
(* Iterative refinement (the paper's Section-1 loop)                    *)
(* ------------------------------------------------------------------ *)

let test_refine_reduces_residual () =
  let model, diag = Lazy.force small_fit in
  (* Target: the empirical ACF points the model was fitted to,
     restricted to small lags where the sample noise is low. *)
  let target = List.filter (fun (k, _) -> k <= 60) diag.Fit.acf_points in
  let refined, history =
    Fit.refine ~rounds:3 ~paths:3 ~path_length:16_384 model ~target (Rng.create ~seed:60)
  in
  (match history with
  | first :: _ ->
    let last = List.nth history (List.length history - 1) in
    if last > first +. 0.01 then
      Alcotest.failf "refinement worsened the residual: %.4f -> %.4f" first last
  | [] -> Alcotest.fail "no residual history");
  (* The refined model must still be generatable. *)
  let x = Generate.background refined ~n:2048 Generate.Davies_harte (Rng.create ~seed:61) in
  Alcotest.(check int) "refined model generates" 2048 (Array.length x)

let test_refine_invalid () =
  let model, _ = Lazy.force small_fit in
  raises_invalid "empty target" (fun () ->
      ignore (Fit.refine model ~target:[] (Rng.create ~seed:1)));
  raises_invalid "bad gain" (fun () ->
      ignore (Fit.refine ~gain:0.0 model ~target:[ (1, 0.9) ] (Rng.create ~seed:1)));
  raises_invalid "lag out of range" (fun () ->
      ignore (Fit.refine ~path_length:100 model ~target:[ (100, 0.5) ] (Rng.create ~seed:1)))

(* ------------------------------------------------------------------ *)
(* Mpeg composite pipeline                                              *)
(* ------------------------------------------------------------------ *)

let small_ibp =
  lazy (Scene.generate { Scene.default with frames = 36_000 } (Rng.create ~seed:15))

let mpeg_model = lazy (Mpeg.fit ~i_max_lag:60 (Lazy.force small_ibp))

let test_mpeg_fit_structure () =
  let m = Lazy.force mpeg_model in
  Alcotest.(check string) "gop" "IBBPBBPBBPBB" (Gop.to_string m.Mpeg.gop);
  (* The background is the Hermite inversion of the I-frame fit
     stretched by 12: compensation can only raise the correlation
     (rh <= r), and the result must stay a valid correlation. *)
  let target_12 = (Acf_fit.to_acf m.Mpeg.i_diag.Fit.raw_fit).Acf.r 1 in
  let bg_12 = m.Mpeg.background.Acf.r 12 in
  if bg_12 < target_12 -. 1e-9 then
    Alcotest.failf "background lag 12 (%.4f) below the foreground target (%.4f)" bg_12 target_12;
  if bg_12 > 1.0 then Alcotest.failf "background correlation above 1: %g" bg_12;
  (* Monotone decline at GOP multiples. *)
  if not (m.Mpeg.background.Acf.r 12 >= m.Mpeg.background.Acf.r 24) then
    Alcotest.fail "background not declining across GOP multiples"

let test_mpeg_generate_gop_structure () =
  let m = Lazy.force mpeg_model in
  let synth = Mpeg.generate m ~n:24_000 (Rng.create ~seed:6) in
  Alcotest.(check int) "frames" 24_000 (Trace.length synth);
  (* Per-type means must reproduce the reference ordering. *)
  let mean_of t k = D.mean (Trace.of_kind t k) in
  let reference = Lazy.force small_ibp in
  List.iter
    (fun k ->
      let want = mean_of reference k and got = mean_of synth k in
      if abs_float (want -. got) /. want > 0.3 then
        Alcotest.failf "%c mean mismatch: %.0f vs %.0f" (Ss_video.Frame.to_char k) want got)
    [ Ss_video.Frame.I; Ss_video.Frame.P; Ss_video.Frame.B ]

let test_mpeg_generate_acf_periodicity () =
  let m = Lazy.force mpeg_model in
  let synth = Mpeg.generate m ~n:24_000 (Rng.create ~seed:7) in
  let r = D.acf synth.Trace.sizes ~max_lag:14 in
  if not (r.(12) > r.(11) && r.(12) > r.(13)) then
    Alcotest.failf "no GOP peak in synthetic ACF: %.3f %.3f %.3f" r.(11) r.(12) r.(13)

let test_mpeg_hosking_variant_consistent () =
  (* Different generators, same distribution: compare medians averaged
     over independent paths (single LRD paths wander). *)
  let m = Lazy.force mpeg_model in
  let avg gen =
    let ms =
      List.init 4 (fun i -> D.median (gen (Rng.create ~seed:(50 + i))).Trace.sizes)
    in
    List.fold_left ( +. ) 0.0 ms /. 4.0
  in
  let ma = avg (fun rng -> Mpeg.generate m ~n:4096 rng) in
  let mb = avg (fun rng -> Mpeg.generate_hosking m ~n:4096 rng) in
  if abs_float (ma -. mb) /. ma > 0.3 then
    Alcotest.failf "generator medians disagree: %.0f vs %.0f" ma mb

let test_mpeg_arrival_fn_kind_dependence () =
  let m = Lazy.force mpeg_model in
  let f = Mpeg.arrival_fn m in
  (* Slot 0 is an I frame, slot 1 a B frame: at the same background
     value the I transform must dominate. *)
  if f 0 0.5 <= f 1 0.5 then Alcotest.fail "I arrival not larger than B at same background"

let test_mpeg_background_table () =
  let m = Lazy.force mpeg_model in
  let table = Mpeg.background_table m ~n:64 in
  Alcotest.(check int) "table length" 64 (Ss_fractal.Hosking.Table.length table)

(* ------------------------------------------------------------------ *)
(* Defaults + Report                                                    *)
(* ------------------------------------------------------------------ *)

let test_defaults_deterministic () =
  let a = Defaults.reference_trace_intra () in
  let b = Defaults.reference_trace_intra () in
  if a != b then Alcotest.fail "reference trace not memoized";
  Alcotest.(check int) "frames" 131_072 (Trace.length a);
  Alcotest.(check string) "intra gop" "I" (Gop.to_string a.Trace.gop);
  let c = Defaults.reference_trace_ibp () in
  Alcotest.(check string) "ibp gop" "IBBPBBPBBPBB" (Gop.to_string c.Trace.gop)

let test_defaults_replications_positive () =
  if Defaults.replications <= 0 then Alcotest.fail "replications must be positive"

let test_report_printers_smoke () =
  let model, diag = Lazy.force small_fit in
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  Report.pp_diagnostics fmt diag;
  Report.pp_model fmt model;
  Format.pp_print_flush fmt ();
  let s = Buffer.contents buf in
  if String.length s < 50 then Alcotest.fail "report suspiciously short";
  (* must mention all four pipeline steps *)
  let contains needle =
    let nl = String.length needle and sl = String.length s in
    let rec go i = i + nl <= sl && (String.sub s i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      if not (contains needle) then Alcotest.failf "report missing %S" needle)
    [ "step 1"; "step 2"; "step 3"; "step 4"; "srd+lrd" ]

let test_report_estimate_printer () =
  let e = Ss_queueing.Mc.estimate_of_samples [| 1.0; 0.0 |] in
  let s = Format.asprintf "%a" Report.pp_estimate e in
  if not (String.length s > 10) then Alcotest.fail "estimate report too short";
  let zero = Ss_queueing.Mc.estimate_of_samples [| 0.0; 0.0 |] in
  let s0 = Format.asprintf "%a" Report.pp_estimate zero in
  if not (String.length s0 > 5) then Alcotest.fail "zero-hit report too short"

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "ss_core"
    [
      ("hurst-round", [ tc "rounding" test_hurst_round ]);
      ( "fit",
        [
          tc "sane model" test_fit_produces_sane_model;
          tc "compensated model generatable" test_fit_compensated_model_is_generatable;
          tc "adopted H between estimates" test_fit_diag_adopted_between_estimates;
          tc "acf points match trace" test_fit_acf_points_match_trace;
          tc "too short" test_fit_too_short;
          tc "measured attenuation variant" test_fit_measured_attenuation_variant;
        ] );
      ("model", [ tc "variants" test_model_variants ]);
      ( "refine",
        [
          tc "reduces residual" test_refine_reduces_residual;
          tc "invalid" test_refine_invalid;
        ] );
      ( "generate",
        [
          tc "foreground marginal" test_generate_foreground_marginal;
          tc "table cached" test_generate_table_cached;
          tc "cache keyed by structure" test_generate_cache_keyed_by_structure;
          tc "table reuse" test_generate_table_reuse_in_background;
          tc "arrival fn" test_generate_arrival_fn_matches_transform;
          tc "invalid" test_generate_invalid;
        ] );
      ( "mpeg",
        [
          tc "fit structure" test_mpeg_fit_structure;
          tc "generate gop structure" test_mpeg_generate_gop_structure;
          tc "acf periodicity" test_mpeg_generate_acf_periodicity;
          tc "hosking variant" test_mpeg_hosking_variant_consistent;
          tc "arrival fn kind dependence" test_mpeg_arrival_fn_kind_dependence;
          tc "background table" test_mpeg_background_table;
        ] );
      ( "defaults-report",
        [
          tc "defaults deterministic" test_defaults_deterministic;
          tc "replications positive" test_defaults_replications_positive;
          tc "report printers" test_report_printers_smoke;
          tc "estimate printer" test_report_estimate_printer;
        ] );
    ]
