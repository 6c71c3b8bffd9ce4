(* Tests for the extension modules: distribution fitting, full
   FARIMA(p,d,q), the Whittle estimator, TES and DAR(1) baselines,
   Norros' formula, superposition, slices and batch means. *)

module Rng = Ss_stats.Rng
module D = Ss_stats.Descriptive
module Dist = Ss_stats.Dist
module Fit_dist = Ss_stats.Fit_dist
module Special = Ss_stats.Special
module Acf = Ss_fractal.Acf
module DH = Ss_fractal.Davies_harte
module Farima_pq = Ss_fractal.Farima_pq
module Whittle = Ss_fractal.Whittle
module Tes = Ss_fractal.Tes
module Dar = Ss_video.Dar
module Slices = Ss_video.Slices
module Trace = Ss_video.Trace
module Gop = Ss_video.Gop
module Norros = Ss_queueing.Norros
module Workload = Ss_queueing.Workload
module Batch_means = Ss_queueing.Batch_means

let close ?(eps = 1e-9) msg expected actual =
  if abs_float (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let raises_invalid msg f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" msg

(* ------------------------------------------------------------------ *)
(* digamma / trigamma                                                   *)
(* ------------------------------------------------------------------ *)

let test_digamma_values () =
  (* psi(1) = -euler_gamma; psi(1/2) = -gamma - 2 ln 2; psi(2) = 1 - gamma *)
  let euler = 0.5772156649015329 in
  close ~eps:1e-10 "psi(1)" (-.euler) (Special.digamma 1.0);
  close ~eps:1e-10 "psi(2)" (1.0 -. euler) (Special.digamma 2.0);
  close ~eps:1e-10 "psi(0.5)" (-.euler -. (2.0 *. log 2.0)) (Special.digamma 0.5);
  raises_invalid "psi(0)" (fun () -> Special.digamma 0.0)

let test_digamma_recurrence () =
  (* psi(x+1) = psi(x) + 1/x *)
  List.iter
    (fun x ->
      close ~eps:1e-11
        (Printf.sprintf "recurrence at %g" x)
        (Special.digamma x +. (1.0 /. x))
        (Special.digamma (x +. 1.0)))
    [ 0.3; 1.7; 5.5; 20.0 ]

let test_trigamma_values () =
  (* psi'(1) = pi^2/6; psi'(1/2) = pi^2/2 *)
  let pi2 = Float.pi *. Float.pi in
  close ~eps:1e-10 "psi'(1)" (pi2 /. 6.0) (Special.trigamma 1.0);
  close ~eps:1e-9 "psi'(0.5)" (pi2 /. 2.0) (Special.trigamma 0.5)

(* ------------------------------------------------------------------ *)
(* Fit_dist                                                             *)
(* ------------------------------------------------------------------ *)

let gamma_sample ~shape ~scale ~n ~seed =
  let d = Dist.gamma ~shape ~scale in
  let rng = Rng.create ~seed in
  Array.init n (fun _ -> d.Dist.sample rng)

let test_gamma_moments_fit () =
  let data = gamma_sample ~shape:3.0 ~scale:2.0 ~n:50_000 ~seed:1 in
  let shape, scale = Fit_dist.gamma_moments data in
  close ~eps:0.15 "moments shape" 3.0 shape;
  close ~eps:0.15 "moments scale" 2.0 scale

let test_gamma_mle_fit () =
  let data = gamma_sample ~shape:0.7 ~scale:5.0 ~n:50_000 ~seed:2 in
  let shape, scale = Fit_dist.gamma_mle data in
  close ~eps:0.05 "mle shape" 0.7 shape;
  close ~eps:0.3 "mle scale" 5.0 scale

let test_gamma_mle_beats_moments_in_likelihood () =
  let data = gamma_sample ~shape:0.8 ~scale:3.0 ~n:10_000 ~seed:3 in
  let sh_m, sc_m = Fit_dist.gamma_moments data in
  let sh_l, sc_l = Fit_dist.gamma_mle data in
  let ll fit_shape fit_scale =
    Fit_dist.log_likelihood (Dist.gamma ~shape:fit_shape ~scale:fit_scale) data
  in
  if ll sh_l sc_l < ll sh_m sc_m -. 1e-6 then
    Alcotest.fail "MLE likelihood below moments likelihood"

let test_pareto_tail_mle () =
  let rng = Rng.create ~seed:4 in
  let data = Array.init 50_000 (fun _ -> Rng.pareto rng ~shape:1.5 ~scale:1.0) in
  let alpha, xc = Fit_dist.pareto_tail_mle data ~cut:0.9 in
  close ~eps:0.1 "tail index" 1.5 alpha;
  if xc <= 1.0 then Alcotest.fail "cut point below scale"

let test_gamma_pareto_auto () =
  let data = gamma_sample ~shape:2.0 ~scale:1.0 ~n:20_000 ~seed:5 in
  let d = Fit_dist.gamma_pareto_auto data in
  (* Valid distribution object with a heavier-than-gamma tail. *)
  close ~eps:1e-6 "cdf(q(0.5))" 0.5 (d.Dist.cdf (d.Dist.quantile 0.5));
  if d.Dist.quantile 0.9999 <= d.Dist.quantile 0.97 then Alcotest.fail "tail not increasing"

let test_lognormal_mle () =
  let rng = Rng.create ~seed:6 in
  let data = Array.init 50_000 (fun _ -> exp (1.0 +. (0.5 *. Rng.gaussian rng))) in
  let mu, sigma = Fit_dist.lognormal_mle data in
  close ~eps:0.02 "mu" 1.0 mu;
  close ~eps:0.02 "sigma" 0.5 sigma

let test_fit_dist_invalid () =
  raises_invalid "gamma_mle nonpositive" (fun () -> Fit_dist.gamma_mle [| 1.0; -2.0; 3.0 |]);
  raises_invalid "moments constant" (fun () -> Fit_dist.gamma_moments (Array.make 10 2.0));
  raises_invalid "pareto cut" (fun () -> Fit_dist.pareto_tail_mle [| 1.0; 2.0 |] ~cut:1.5)

(* ------------------------------------------------------------------ *)
(* Farima_pq                                                            *)
(* ------------------------------------------------------------------ *)

let test_farima_pq_reduces_to_fractional () =
  (* With no ARMA part it must match Acf.farima exactly. *)
  let f = Farima_pq.create ~d:0.3 ~ar:[||] ~ma:[||] in
  let got = Farima_pq.acf f in
  let want = Acf.farima ~d:0.3 in
  for k = 0 to 100 do
    close ~eps:1e-10 (Printf.sprintf "lag %d" k) (want.Acf.r k) (got.Acf.r k)
  done

let test_farima_pq_reduces_to_ar1 () =
  (* d = 0 with one AR coefficient is AR(1): r(k) = phi^k. *)
  let phi = 0.6 in
  let f = Farima_pq.create ~d:0.0 ~ar:[| phi |] ~ma:[||] in
  let acf = Farima_pq.acf f in
  for k = 0 to 20 do
    close ~eps:1e-9 (Printf.sprintf "AR(1) lag %d" k) (phi ** float_of_int k) (acf.Acf.r k)
  done

let test_farima_pq_reduces_to_ma1 () =
  (* d = 0 with one MA coefficient: r(1) = theta/(1+theta^2), r(k>1)=0. *)
  let theta = 0.5 in
  let f = Farima_pq.create ~d:0.0 ~ar:[||] ~ma:[| theta |] in
  let acf = Farima_pq.acf f in
  close ~eps:1e-12 "MA(1) r(1)" (theta /. (1.0 +. (theta *. theta))) (acf.Acf.r 1);
  close ~eps:1e-12 "MA(1) r(2)" 0.0 (acf.Acf.r 2)

let test_farima_pq_psi_weights () =
  let f = Farima_pq.create ~d:0.2 ~ar:[| 0.5 |] ~ma:[| 0.3 |] in
  let psi = Farima_pq.psi_weights f in
  close "psi_0" 1.0 psi.(0);
  close ~eps:1e-12 "psi_1 = theta + phi" 0.8 psi.(1);
  close ~eps:1e-12 "psi_2 = phi psi_1" 0.4 psi.(2)

let test_farima_pq_hurst_and_tail () =
  let f = Farima_pq.create ~d:0.4 ~ar:[| 0.3 |] ~ma:[||] in
  close "hurst" 0.9 (Farima_pq.hurst f);
  (* Asymptotic tail exponent 2d - 1 regardless of the ARMA part. *)
  let acf = Farima_pq.acf f in
  let slope = log (acf.Acf.r 4000 /. acf.Acf.r 1000) /. log 4.0 in
  close ~eps:0.01 "tail exponent" ((2.0 *. 0.4) -. 1.0) slope

let test_farima_pq_generation_matches_acf () =
  let f = Farima_pq.create ~d:0.25 ~ar:[| 0.4 |] ~ma:[| 0.2 |] in
  let acf = Farima_pq.acf f in
  let x = Farima_pq.generate f ~n:8_000 (Rng.create ~seed:7) in
  let r = D.acf x ~max_lag:5 in
  close ~eps:0.05 "exact gen r(1)" (acf.Acf.r 1) r.(1);
  close ~eps:0.05 "exact gen r(3)" (acf.Acf.r 3) r.(3);
  let y = Farima_pq.generate_filtered f ~n:8_000 (Rng.create ~seed:8) in
  let ry = D.acf y ~max_lag:5 in
  close ~eps:0.06 "filtered gen r(1)" (acf.Acf.r 1) ry.(1);
  close ~eps:0.03 "filtered variance 1" 1.0 (D.variance y)

let test_farima_pq_invalid () =
  raises_invalid "d too big" (fun () -> Farima_pq.create ~d:0.5 ~ar:[||] ~ma:[||]);
  raises_invalid "explosive AR" (fun () ->
      ignore (Farima_pq.create ~d:0.1 ~ar:[| 1.05 |] ~ma:[||]))

(* ------------------------------------------------------------------ *)
(* Linalg                                                               *)
(* ------------------------------------------------------------------ *)

module Linalg = Ss_stats.Linalg

let test_cholesky_known () =
  let a = [| [| 4.0; 2.0 |]; [| 2.0; 5.0 |] |] in
  let l = Linalg.cholesky a in
  close "l00" 2.0 l.(0).(0);
  close "l10" 1.0 l.(1).(0);
  close "l11" 2.0 l.(1).(1);
  close "l01 zero" 0.0 l.(0).(1)

let test_cholesky_reconstructs () =
  let rng = Rng.create ~seed:30 in
  let n = 8 in
  (* Random SPD matrix: B B^T + n I. *)
  let b = Array.init n (fun _ -> Array.init n (fun _ -> Rng.gaussian rng)) in
  let a =
    Array.init n (fun i ->
        Array.init n (fun j ->
            let s = ref (if i = j then float_of_int n else 0.0) in
            for k = 0 to n - 1 do
              s := !s +. (b.(i).(k) *. b.(j).(k))
            done;
            !s))
  in
  let l = Linalg.cholesky a in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let s = ref 0.0 in
      for k = 0 to n - 1 do
        s := !s +. (l.(i).(k) *. l.(j).(k))
      done;
      close ~eps:1e-9 (Printf.sprintf "a(%d,%d)" i j) a.(i).(j) !s
    done
  done

let test_solve_spd_roundtrip () =
  let a = [| [| 4.0; 2.0; 0.0 |]; [| 2.0; 5.0; 1.0 |]; [| 0.0; 1.0; 3.0 |] |] in
  let x_true = [| 1.0; -2.0; 0.5 |] in
  let b = Linalg.mat_vec a x_true in
  let x = Linalg.solve_spd a b in
  Array.iteri (fun i v -> close ~eps:1e-10 (Printf.sprintf "x(%d)" i) x_true.(i) v) x

let test_least_squares_exact () =
  (* y = 2 x1 - 3 x2, noise-free. *)
  let rng = Rng.create ~seed:31 in
  let design = Array.init 50 (fun _ -> [| Rng.gaussian rng; Rng.gaussian rng |]) in
  let y = Array.map (fun row -> (2.0 *. row.(0)) -. (3.0 *. row.(1))) design in
  let c = Linalg.least_squares design y in
  close ~eps:1e-9 "c1" 2.0 c.(0);
  close ~eps:1e-9 "c2" (-3.0) c.(1)

let test_linalg_invalid () =
  raises_invalid "not square" (fun () -> Linalg.cholesky [| [| 1.0; 2.0 |] |]);
  raises_invalid "not symmetric" (fun () ->
      Linalg.cholesky [| [| 1.0; 2.0 |]; [| 0.0; 1.0 |] |]);
  raises_invalid "not PD" (fun () -> Linalg.cholesky [| [| 1.0; 2.0 |]; [| 2.0; 1.0 |] |]);
  raises_invalid "singular design" (fun () ->
      Linalg.least_squares [| [| 1.0; 1.0 |]; [| 2.0; 2.0 |]; [| 3.0; 3.0 |] |] [| 1.0; 2.0; 3.0 |])

(* ------------------------------------------------------------------ *)
(* Frac_diff                                                            *)
(* ------------------------------------------------------------------ *)

module Frac_diff = Ss_fractal.Frac_diff

let test_frac_diff_weights_integer_d () =
  (* d = 1 gives the ordinary difference filter [1, -1, 0, ...]. *)
  let w = Frac_diff.weights ~d:1.0 ~n:5 in
  close "pi0" 1.0 w.(0);
  close "pi1" (-1.0) w.(1);
  close "pi2" 0.0 w.(2);
  close "pi3" 0.0 w.(3)

let test_frac_diff_identity_at_zero () =
  let x = [| 3.0; 1.0; 4.0; 1.5 |] in
  Alcotest.(check (list (float 1e-12)))
    "d=0 identity" (Array.to_list x)
    (Array.to_list (Frac_diff.difference ~d:0.0 x))

let test_frac_diff_roundtrip () =
  (* Differencing then integrating recovers the series up to the
     finite-filter startup error, which vanishes for later samples. *)
  let rng = Rng.create ~seed:32 in
  let x = Array.init 600 (fun _ -> Rng.gaussian rng) in
  let y = Frac_diff.integrate ~d:0.3 (Frac_diff.difference ~d:0.3 x) in
  for t = 0 to 599 do
    close ~eps:1e-9 (Printf.sprintf "roundtrip t=%d" t) x.(t) y.(t)
  done

let test_frac_diff_whitens_fractional_noise () =
  (* Differencing FARIMA(0,d,0) by d yields (approximately) white
     noise. *)
  let d = 0.35 in
  let x = DH.generate (DH.plan ~acf:(Acf.farima ~d) ~n:20_000 ()) (Rng.create ~seed:33) in
  let w = Frac_diff.difference ~d x in
  (* Drop the filter's startup region. *)
  let w = Array.sub w 2_000 18_000 in
  let r = D.acf w ~max_lag:5 in
  for k = 1 to 5 do
    if abs_float r.(k) > 0.05 then
      Alcotest.failf "differenced series still correlated at lag %d: %.3f" k r.(k)
  done

(* ------------------------------------------------------------------ *)
(* Farima_fit                                                           *)
(* ------------------------------------------------------------------ *)

module Farima_fit = Ss_fractal.Farima_fit

let test_hannan_rissanen_ar1 () =
  (* Recover a pure AR(1). *)
  let rng = Rng.create ~seed:34 in
  let phi = 0.6 in
  let n = 30_000 in
  let x = Array.make n 0.0 in
  x.(0) <- Rng.gaussian rng;
  for t = 1 to n - 1 do
    x.(t) <- (phi *. x.(t - 1)) +. Rng.gaussian rng
  done;
  let ar, _, var = Farima_fit.hannan_rissanen ~p:1 ~q:0 x in
  close ~eps:0.03 "phi" phi ar.(0);
  close ~eps:0.05 "innovation variance" 1.0 var

let test_hannan_rissanen_ma1 () =
  let rng = Rng.create ~seed:35 in
  let theta = 0.5 in
  let n = 30_000 in
  let eps_prev = ref (Rng.gaussian rng) in
  let x =
    Array.init n (fun _ ->
        let e = Rng.gaussian rng in
        let v = e +. (theta *. !eps_prev) in
        eps_prev := e;
        v)
  in
  let _, ma, _ = Farima_fit.hannan_rissanen ~p:0 ~q:1 x in
  close ~eps:0.04 "theta" theta ma.(0)

let test_hannan_rissanen_arma11 () =
  let rng = Rng.create ~seed:36 in
  let phi = 0.5 and theta = 0.3 in
  let n = 40_000 in
  let x = Array.make n 0.0 in
  let e_prev = ref (Rng.gaussian rng) in
  x.(0) <- !e_prev;
  for t = 1 to n - 1 do
    let e = Rng.gaussian rng in
    x.(t) <- (phi *. x.(t - 1)) +. e +. (theta *. !e_prev);
    e_prev := e
  done;
  let ar, ma, _ = Farima_fit.hannan_rissanen ~p:1 ~q:1 x in
  close ~eps:0.06 "arma phi" phi ar.(0);
  close ~eps:0.08 "arma theta" theta ma.(0)

let test_farima_fit_recovers_d_and_ar () =
  (* End to end: generate FARIMA(1, 0.3, 0), fit, check d and phi. *)
  let truth = Farima_pq.create ~d:0.3 ~ar:[| 0.4 |] ~ma:[||] in
  let x = Farima_pq.generate_filtered truth ~n:16_384 (Rng.create ~seed:37) in
  let fitted = Farima_fit.fit ~p:1 ~q:0 x in
  close ~eps:0.08 "d" 0.3 fitted.Farima_fit.d;
  close ~eps:0.15 "phi" 0.4 fitted.Farima_fit.ar.(0);
  (* The fitted model's ACF must resemble the truth's. *)
  let ta = Farima_pq.acf truth and fa = Farima_pq.acf fitted.Farima_fit.model in
  List.iter
    (fun k ->
      if abs_float (ta.Acf.r k -. fa.Acf.r k) > 0.12 then
        Alcotest.failf "fitted ACF off at lag %d: %.3f vs %.3f" k (fa.Acf.r k) (ta.Acf.r k))
    [ 1; 5; 20 ]

let test_farima_fit_invalid () =
  raises_invalid "p+q = 0" (fun () ->
      ignore (Farima_fit.hannan_rissanen ~p:0 ~q:0 (Array.make 1000 0.0)));
  raises_invalid "too short" (fun () ->
      ignore (Farima_fit.hannan_rissanen ~p:1 ~q:1 (Array.make 50 0.0)))

(* ------------------------------------------------------------------ *)
(* Whittle                                                              *)
(* ------------------------------------------------------------------ *)

let test_whittle_spectral_density_integrates_to_variance () =
  (* f integrates to 1 over (-pi, pi) by construction. *)
  let integral =
    Ss_stats.Quadrature.simpson ~eps:1e-8
      (fun l -> Whittle.fgn_spectral_density ~h:0.8 l)
      ~lo:1e-5 ~hi:Float.pi
  in
  (* The (0, 1e-5) singular sliver carries ~0.3% of the mass. *)
  close ~eps:0.01 "2 * int f = 1" 0.5 integral

let test_whittle_density_blows_up_at_origin_for_lrd () =
  let f1 = Whittle.fgn_spectral_density ~h:0.9 0.01 in
  let f2 = Whittle.fgn_spectral_density ~h:0.9 0.1 in
  if f1 <= f2 then Alcotest.fail "LRD spectral density must diverge at the origin";
  (* H = 0.5 is flat white noise: f = 1/(2 pi). *)
  close ~eps:1e-3 "white noise level" (1.0 /. (2.0 *. Float.pi))
    (Whittle.fgn_spectral_density ~h:0.5 1.0)

let test_whittle_recovers_h () =
  List.iter
    (fun h ->
      let x = DH.generate (DH.plan ~acf:(Acf.fgn ~h) ~n:8192 ()) (Rng.create ~seed:9) in
      let e = Whittle.estimate x in
      close ~eps:0.06 (Printf.sprintf "whittle at H=%g" h) h e.Whittle.h)
    [ 0.6; 0.75; 0.9 ]

let test_whittle_invalid () =
  raises_invalid "short series" (fun () -> ignore (Whittle.estimate (Array.make 64 0.0)));
  raises_invalid "bad lambda" (fun () -> ignore (Whittle.fgn_spectral_density ~h:0.7 0.0))

(* ------------------------------------------------------------------ *)
(* TES                                                                  *)
(* ------------------------------------------------------------------ *)

let test_tes_uniform_marginal () =
  (* Modulo-1 addition preserves uniformity; stitching does too. *)
  let t = Tes.create ~half_width:0.2 () in
  let u = Tes.generate t ~n:100_000 (Rng.create ~seed:10) in
  close ~eps:0.01 "mean 1/2" 0.5 (D.mean u);
  close ~eps:0.005 "variance 1/12" (1.0 /. 12.0) (D.variance u);
  Array.iter (fun v -> if v < 0.0 || v >= 1.0 then Alcotest.fail "outside [0,1)") u

let test_tes_correlation_grows_as_width_shrinks () =
  let r1_of hw =
    let t = Tes.create ~half_width:hw () in
    let u = Tes.generate t ~n:60_000 (Rng.create ~seed:11) in
    D.autocorrelation u 1
  in
  let tight = r1_of 0.05 and loose = r1_of 0.45 in
  if tight <= loose then
    Alcotest.failf "narrow innovations must correlate more: %.3f vs %.3f" tight loose

let test_tes_analytic_acf_matches_simulation () =
  (* Unstitched background (xi = 1) against the harmonic-series
     formula. *)
  let hw = 0.15 in
  let t = Tes.create ~xi:1.0 ~half_width:hw () in
  let u = Tes.generate t ~n:200_000 (Rng.create ~seed:12) in
  close ~eps:0.02 "analytic r(1)" (Tes.background_acf ~half_width:hw 1) (D.autocorrelation u 1);
  close ~eps:0.03 "analytic r(3)" (Tes.background_acf ~half_width:hw 3) (D.autocorrelation u 3)

let test_tes_acf_is_srd () =
  (* Geometric decay: r(k) for the background drops below any power
     law eventually; check r(50) is tiny for moderate bandwidth. *)
  let r50 = Tes.background_acf ~half_width:0.2 50 in
  if abs_float r50 > 0.01 then Alcotest.failf "TES r(50) = %g not SRD-small" r50

let test_tes_marginal_transform () =
  let target = Dist.exponential ~rate:2.0 in
  let t = Tes.create ~half_width:0.3 ~dist:target () in
  let x = Tes.generate t ~n:100_000 (Rng.create ~seed:13) in
  close ~eps:0.01 "exp mean through TES" 0.5 (D.mean x)

let test_tes_invalid () =
  raises_invalid "bad width" (fun () -> Tes.create ~half_width:0.0 ());
  raises_invalid "bad xi" (fun () -> Tes.create ~xi:1.5 ~half_width:0.1 ())

(* ------------------------------------------------------------------ *)
(* DAR(1)                                                               *)
(* ------------------------------------------------------------------ *)

let test_dar_acf_exactly_geometric () =
  let d = Dar.create ~rho:0.8 (Dist.exponential ~rate:1.0) in
  let acf = Dar.acf d in
  for k = 0 to 10 do
    close ~eps:1e-12 (Printf.sprintf "rho^%d" k) (0.8 ** float_of_int k) (acf.Acf.r k)
  done

let test_dar_sample_acf () =
  let d = Dar.create ~rho:0.7 (Dist.uniform ~lo:0.0 ~hi:1.0) in
  let x = Dar.generate d ~n:100_000 (Rng.create ~seed:14) in
  close ~eps:0.02 "sample r(1)" 0.7 (D.autocorrelation x 1);
  close ~eps:0.02 "sample r(3)" (0.7 ** 3.0) (D.autocorrelation x 3);
  close ~eps:0.01 "marginal mean" 0.5 (D.mean x)

let test_dar_of_trace_marginal () =
  let sizes = [| 10.0; 20.0; 20.0; 40.0 |] in
  let d = Dar.of_trace_marginal ~rho:0.5 sizes in
  let x = Dar.generate d ~n:50_000 (Rng.create ~seed:15) in
  (* All values must come from the empirical support (interpolated
     quantiles stay within [min,max]). *)
  Array.iter (fun v -> if v < 10.0 || v > 40.0 then Alcotest.failf "escaped support: %g" v) x

let test_dar_invalid () =
  raises_invalid "rho = 1" (fun () -> Dar.create ~rho:1.0 (Dist.uniform ~lo:0.0 ~hi:1.0))

(* ------------------------------------------------------------------ *)
(* Norros                                                               *)
(* ------------------------------------------------------------------ *)

let test_norros_kappa () =
  close ~eps:1e-12 "kappa(1/2)" 0.5 (Norros.kappa 0.5);
  (* kappa is maximized... check symmetry kappa(h) = kappa(1-h) *)
  close ~eps:1e-12 "kappa symmetry" (Norros.kappa 0.3) (Norros.kappa 0.7)

let test_norros_h_half_is_exponential_in_b () =
  (* At H = 1/2 the exponent is linear in b. *)
  let l b = Norros.log_overflow ~mean_rate:1.0 ~service:2.0 ~hurst:0.5 ~sigma2:1.0 ~buffer:b in
  close ~eps:1e-9 "doubling b doubles the exponent" (2.0 *. l 5.0) (l 10.0)

let test_norros_lrd_decays_slower () =
  (* Weibullian b^{2-2H}: the log-probability ratio between H = 0.9
     and H = 0.5 must grow with b. *)
  let l h b = Norros.log_overflow ~mean_rate:1.0 ~service:1.5 ~hurst:h ~sigma2:1.0 ~buffer:b in
  let gap b = l 0.9 b -. l 0.5 b in
  if gap 100.0 <= gap 10.0 then Alcotest.fail "LRD advantage must grow with buffer";
  if l 0.9 100.0 <= l 0.5 100.0 then Alcotest.fail "H=0.9 must overflow more at b=100"

let test_norros_monotonicities () =
  let base = Norros.overflow ~mean_rate:1.0 ~service:1.5 ~hurst:0.8 ~sigma2:1.0 ~buffer:10.0 in
  let bigger_buffer = Norros.overflow ~mean_rate:1.0 ~service:1.5 ~hurst:0.8 ~sigma2:1.0 ~buffer:20.0 in
  let faster_service = Norros.overflow ~mean_rate:1.0 ~service:2.5 ~hurst:0.8 ~sigma2:1.0 ~buffer:10.0 in
  if bigger_buffer >= base then Alcotest.fail "larger buffer must reduce overflow";
  if faster_service >= base then Alcotest.fail "faster service must reduce overflow"

let test_norros_invalid () =
  raises_invalid "unstable" (fun () ->
      ignore (Norros.log_overflow ~mean_rate:2.0 ~service:1.0 ~hurst:0.8 ~sigma2:1.0 ~buffer:1.0))

(* ------------------------------------------------------------------ *)
(* Workload superposition                                               *)
(* ------------------------------------------------------------------ *)

let test_superpose_sums () =
  let s = Workload.superpose [ [| 1.0; 2.0; 3.0 |]; [| 10.0; 20.0; 30.0 |] ] in
  Alcotest.(check (list (float 1e-12))) "sums" [ 11.0; 22.0; 33.0 ] (Array.to_list s)

let test_superpose_truncates () =
  let s = Workload.superpose ~truncate:true [ [| 1.0; 2.0 |]; [| 1.0; 1.0; 1.0 |] ] in
  Alcotest.(check int) "shortest wins" 2 (Array.length s);
  Alcotest.(check (list (float 1e-12))) "prefix sums" [ 2.0; 3.0 ] (Array.to_list s)

let test_superpose_length_mismatch_raises () =
  raises_invalid "unequal lengths" (fun () ->
      ignore (Workload.superpose [ [| 1.0; 2.0 |]; [| 1.0; 1.0; 1.0 |] ]))

let test_superpose_gen_independent () =
  let gen rng = Array.init 1000 (fun _ -> Rng.gaussian rng) in
  let s = Workload.superpose_gen gen ~sources:16 (Rng.create ~seed:16) in
  (* Variance of a sum of 16 independent N(0,1) sources is 16. *)
  close ~eps:2.0 "variance adds" 16.0 (D.variance s)

let test_superpose_smooths () =
  (* Multiplexing gain: peak-to-mean drops as sources are added. *)
  let rng = Rng.create ~seed:17 in
  let gen rng = Array.init 5000 (fun _ -> Rng.exponential rng ~rate:1.0) in
  let one = Workload.peak_to_mean (gen (Rng.split rng)) in
  let many = Workload.peak_to_mean (Workload.superpose_gen gen ~sources:32 (Rng.split rng)) in
  if many >= one then Alcotest.fail "superposition must smooth the peak-to-mean ratio"

let test_workload_invalid () =
  raises_invalid "no sources" (fun () -> Workload.superpose []);
  raises_invalid "zero sources" (fun () ->
      ignore (Workload.superpose_gen (fun _ -> [| 1.0 |]) ~sources:0 (Rng.create ~seed:1)))

(* ------------------------------------------------------------------ *)
(* Slices                                                               *)
(* ------------------------------------------------------------------ *)

let small_trace () =
  Trace.make ~gop:(Gop.of_string "I") [| 150.0; 300.0; 75.0 |]

let test_slices_conserve_bytes () =
  let t = small_trace () in
  let spread = Slices.spread_evenly ~per_frame:15 t in
  let front = Slices.front_loaded ~per_frame:15 t in
  let total xs = Array.fold_left ( +. ) 0.0 xs in
  close ~eps:1e-9 "spread conserves" 525.0 (total spread);
  close ~eps:1e-9 "front conserves" 525.0 (total front);
  Alcotest.(check int) "length" 45 (Array.length spread)

let test_slices_spread_values () =
  let t = small_trace () in
  let spread = Slices.spread_evenly ~per_frame:3 t in
  Alcotest.(check (list (float 1e-9)))
    "even division"
    [ 50.0; 50.0; 50.0; 100.0; 100.0; 100.0; 25.0; 25.0; 25.0 ]
    (Array.to_list spread)

let test_slices_smoothing_reduces_overflow () =
  (* The frame-spreading claim: with the same utilization, spreading
     strictly reduces queue exceedance at small buffers. *)
  let movie =
    Ss_video.Scene_source.generate
      { Ss_video.Scene_source.default with frames = 8_000; gop = Gop.of_string "I" }
      (Rng.create ~seed:18)
  in
  let spread = Slices.spread_evenly movie in
  let front = Slices.front_loaded movie in
  let frac arrivals =
    let qp = Ss_queueing.Trace_sim.queue_path ~arrivals ~utilization:0.8 in
    Ss_queueing.Trace_sim.overflow_fraction ~queue_path:qp
      ~buffer:(2.0 *. D.mean arrivals)
  in
  if frac spread >= frac front then
    Alcotest.fail "spreading did not reduce small-buffer overflow"

let test_slices_invalid () =
  raises_invalid "per_frame 0" (fun () ->
      ignore (Slices.spread_evenly ~per_frame:0 (small_trace ())))

(* ------------------------------------------------------------------ *)
(* Batch means                                                          *)
(* ------------------------------------------------------------------ *)

let test_batch_means_iid_coverage () =
  (* For iid data the 95% interval should usually cover the truth. *)
  let rng = Rng.create ~seed:19 in
  let covered = ref 0 in
  for _ = 1 to 40 do
    let x = Array.init 3_000 (fun _ -> Rng.gaussian rng) in
    let r = Batch_means.analyze x in
    if abs_float r.Batch_means.mean <= r.Batch_means.half_width then incr covered
  done;
  if !covered < 30 then Alcotest.failf "coverage too low: %d/40" !covered

let test_batch_means_mean_matches () =
  let x = Array.init 900 (fun i -> float_of_int (i mod 3)) in
  let r = Batch_means.analyze ~batches:30 x in
  close ~eps:1e-9 "grand mean" 1.0 r.Batch_means.mean;
  Alcotest.(check int) "batch size" 30 r.Batch_means.batch_size

let test_batch_means_lrd_correlation_persists () =
  (* Under strong LRD, batch means remain correlated — the paper's
     caveat about single-trace estimates. *)
  let x = DH.generate (DH.plan ~acf:(Acf.fgn ~h:0.95) ~n:30_000 ()) (Rng.create ~seed:20) in
  let lrd = (Batch_means.analyze ~batches:30 x).Batch_means.lag1_batch_corr in
  let rng = Rng.create ~seed:21 in
  let iid = Array.init 30_000 (fun _ -> Rng.gaussian rng) in
  let srd = (Batch_means.analyze ~batches:30 iid).Batch_means.lag1_batch_corr in
  if lrd <= srd +. 0.1 then
    Alcotest.failf "LRD batch correlation (%.3f) not above iid level (%.3f)" lrd srd

let test_batch_means_overflow_indicator () =
  let ind = Batch_means.overflow_indicator ~queue_path:[| 0.0; 3.0; 1.0; 5.0 |] ~buffer:2.0 in
  Alcotest.(check (list (float 1e-12))) "indicator" [ 0.0; 1.0; 0.0; 1.0 ] (Array.to_list ind)

let test_batch_means_invalid () =
  raises_invalid "too short" (fun () -> ignore (Batch_means.analyze ~batches:30 (Array.make 10 0.0)))

(* ------------------------------------------------------------------ *)
(* QCheck properties over the extension modules                         *)
(* ------------------------------------------------------------------ *)

let prop_frac_diff_roundtrip =
  QCheck.Test.make ~name:"fractional difference/integrate roundtrip" ~count:50
    QCheck.(pair (float_range (-0.45) 0.45) (array_of_size Gen.(int_range 10 100) (float_range (-10.0) 10.0)))
    (fun (d, x) ->
      let y = Frac_diff.integrate ~d (Frac_diff.difference ~d x) in
      Array.for_all2 (fun a b -> abs_float (a -. b) < 1e-6) x y)

let prop_cholesky_diag_positive =
  QCheck.Test.make ~name:"cholesky diagonal positive on A A^T + I" ~count:50
    QCheck.(array_of_size Gen.(int_range 2 6) (array_of_size Gen.(int_range 2 6) (float_range (-2.0) 2.0)))
    (fun rows ->
      (* Build a square SPD matrix from possibly ragged random rows. *)
      let n = Array.length rows in
      let m = Array.fold_left (fun a r -> Stdlib.min a (Array.length r)) max_int rows in
      QCheck.assume (m >= 1);
      let a =
        Array.init n (fun i ->
            Array.init n (fun j ->
                let s = ref (if i = j then 1.0 +. float_of_int m else 0.0) in
                for k = 0 to m - 1 do
                  s := !s +. (rows.(i).(k) *. rows.(j).(k))
                done;
                !s))
      in
      let l = Linalg.cholesky a in
      Array.for_all (fun i -> l.(i).(i) > 0.0) (Array.init n (fun i -> i)))

let prop_dar_within_support =
  QCheck.Test.make ~name:"DAR(1) samples stay in the marginal's range" ~count:30
    QCheck.(pair (float_range 0.0 0.95) (int_range 1 1000))
    (fun (rho, seed) ->
      let d = Dar.create ~rho (Dist.uniform ~lo:2.0 ~hi:5.0) in
      let x = Dar.generate d ~n:200 (Rng.create ~seed) in
      Array.for_all (fun v -> v >= 2.0 && v <= 5.0) x)

let prop_norros_decreasing_in_buffer =
  QCheck.Test.make ~name:"Norros overflow decreasing in buffer" ~count:100
    QCheck.(triple (float_range 0.55 0.95) (float_range 0.1 10.0) (float_range 0.1 50.0))
    (fun (h, b1, b2) ->
      let lo = Stdlib.min b1 b2 and hi = Stdlib.max b1 b2 in
      let p b = Norros.overflow ~mean_rate:1.0 ~service:2.0 ~hurst:h ~sigma2:1.0 ~buffer:b in
      p hi <= p lo +. 1e-12)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_frac_diff_roundtrip;
      prop_cholesky_diag_positive;
      prop_dar_within_support;
      prop_norros_decreasing_in_buffer;
    ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "extensions"
    [
      ( "digamma",
        [
          tc "reference values" test_digamma_values;
          tc "recurrence" test_digamma_recurrence;
          tc "trigamma" test_trigamma_values;
        ] );
      ( "fit-dist",
        [
          tc "gamma moments" test_gamma_moments_fit;
          tc "gamma MLE" test_gamma_mle_fit;
          tc "MLE beats moments" test_gamma_mle_beats_moments_in_likelihood;
          tc "pareto tail" test_pareto_tail_mle;
          tc "gamma/pareto auto" test_gamma_pareto_auto;
          tc "lognormal MLE" test_lognormal_mle;
          tc "invalid" test_fit_dist_invalid;
        ] );
      ( "farima-pq",
        [
          tc "reduces to FARIMA(0,d,0)" test_farima_pq_reduces_to_fractional;
          tc "reduces to AR(1)" test_farima_pq_reduces_to_ar1;
          tc "reduces to MA(1)" test_farima_pq_reduces_to_ma1;
          tc "psi weights" test_farima_pq_psi_weights;
          tc "hurst and tail" test_farima_pq_hurst_and_tail;
          tc "generation matches acf" test_farima_pq_generation_matches_acf;
          tc "invalid" test_farima_pq_invalid;
        ] );
      ( "linalg",
        [
          tc "cholesky known" test_cholesky_known;
          tc "cholesky reconstructs" test_cholesky_reconstructs;
          tc "solve spd" test_solve_spd_roundtrip;
          tc "least squares" test_least_squares_exact;
          tc "invalid" test_linalg_invalid;
        ] );
      ( "frac-diff",
        [
          tc "integer d weights" test_frac_diff_weights_integer_d;
          tc "identity at d=0" test_frac_diff_identity_at_zero;
          tc "roundtrip" test_frac_diff_roundtrip;
          tc "whitens fractional noise" test_frac_diff_whitens_fractional_noise;
        ] );
      ( "farima-fit",
        [
          tc "HR recovers AR(1)" test_hannan_rissanen_ar1;
          tc "HR recovers MA(1)" test_hannan_rissanen_ma1;
          tc "HR recovers ARMA(1,1)" test_hannan_rissanen_arma11;
          tc "end-to-end FARIMA" test_farima_fit_recovers_d_and_ar;
          tc "invalid" test_farima_fit_invalid;
        ] );
      ( "whittle",
        [
          tc "density integrates" test_whittle_spectral_density_integrates_to_variance;
          tc "LRD divergence at 0" test_whittle_density_blows_up_at_origin_for_lrd;
          tc "recovers H" test_whittle_recovers_h;
          tc "invalid" test_whittle_invalid;
        ] );
      ( "tes",
        [
          tc "uniform marginal" test_tes_uniform_marginal;
          tc "bandwidth controls correlation" test_tes_correlation_grows_as_width_shrinks;
          tc "analytic acf" test_tes_analytic_acf_matches_simulation;
          tc "SRD only" test_tes_acf_is_srd;
          tc "marginal transform" test_tes_marginal_transform;
          tc "invalid" test_tes_invalid;
        ] );
      ( "dar",
        [
          tc "geometric acf" test_dar_acf_exactly_geometric;
          tc "sample acf" test_dar_sample_acf;
          tc "trace marginal" test_dar_of_trace_marginal;
          tc "invalid" test_dar_invalid;
        ] );
      ( "norros",
        [
          tc "kappa" test_norros_kappa;
          tc "H=1/2 exponential" test_norros_h_half_is_exponential_in_b;
          tc "LRD decays slower" test_norros_lrd_decays_slower;
          tc "monotonicities" test_norros_monotonicities;
          tc "invalid" test_norros_invalid;
        ] );
      ( "workload",
        [
          tc "superpose sums" test_superpose_sums;
          tc "superpose truncates (opt-in)" test_superpose_truncates;
          tc "superpose length mismatch raises" test_superpose_length_mismatch_raises;
          tc "variance adds" test_superpose_gen_independent;
          tc "smooths peaks" test_superpose_smooths;
          tc "invalid" test_workload_invalid;
        ] );
      ( "slices",
        [
          tc "conserve bytes" test_slices_conserve_bytes;
          tc "spread values" test_slices_spread_values;
          tc "smoothing reduces overflow" test_slices_smoothing_reduces_overflow;
          tc "invalid" test_slices_invalid;
        ] );
      ( "batch-means",
        [
          tc "iid coverage" test_batch_means_iid_coverage;
          tc "grand mean" test_batch_means_mean_matches;
          tc "LRD correlation persists" test_batch_means_lrd_correlation_persists;
          tc "overflow indicator" test_batch_means_overflow_indicator;
          tc "invalid" test_batch_means_invalid;
        ] );
      ("properties", qcheck_cases);
    ]
