(* Tests for ss_fastsim: likelihood-ratio accumulation, the
   importance-sampling estimator (unbiasedness, variance reduction,
   valley shape) and the twist search. *)

module Rng = Ss_stats.Rng
module Acf = Ss_fractal.Acf
module Hosking = Ss_fractal.Hosking
module Mc = Ss_queueing.Mc
module Likelihood = Ss_fastsim.Likelihood
module Is = Ss_fastsim.Is_estimator
module Valley = Ss_fastsim.Valley
module Twist = Ss_fastsim.Twist

let close ?(eps = 1e-9) msg expected actual =
  if abs_float (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let raises_invalid msg f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" msg

let white_table n = Hosking.Table.make ~acf:Acf.white_noise ~n
let fgn_table ?(h = 0.7) n = Hosking.Table.make ~acf:(Acf.fgn ~h) ~n

(* ------------------------------------------------------------------ *)
(* Likelihood                                                           *)
(* ------------------------------------------------------------------ *)

let test_likelihood_zero_twist_is_one () =
  let table = fgn_table 50 in
  let lik = Likelihood.create ~table ~twist:0.0 in
  let rng = Rng.create ~seed:1 in
  for k = 0 to 49 do
    Likelihood.step lik ~k ~innovation:(Rng.gaussian rng)
  done;
  close "log L = 0 at zero twist" 0.0 (Likelihood.log_ratio lik);
  close "L = 1 at zero twist" 1.0 (Likelihood.ratio lik)

let test_likelihood_first_step_closed_form () =
  (* For iid N(0,1), step 0 has delta = m*, v = 1:
     log L_0 = -(2 eps m* + m*^2)/2 — the paper's Eq (48) with
     eps = x_0 (the untwisted draw). *)
  let table = white_table 10 in
  let twist = 1.5 in
  let lik = Likelihood.create ~table ~twist in
  let eps = 0.37 in
  Likelihood.step lik ~k:0 ~innovation:eps;
  close ~eps:1e-12 "Eq 48"
    (-.((2.0 *. eps *. twist) +. (twist *. twist)) /. 2.0)
    (Likelihood.log_ratio lik)

let test_likelihood_white_noise_product () =
  (* For iid noise the likelihood ratio is the product of per-sample
     normal density ratios; verify against direct computation. *)
  let n = 20 in
  let table = white_table n in
  let twist = 0.8 in
  let lik = Likelihood.create ~table ~twist in
  let rng = Rng.create ~seed:2 in
  let direct = ref 0.0 in
  for k = 0 to n - 1 do
    let x = Rng.gaussian rng in
    (* x' = x + m*; ratio f_X(x')/f_X'(x') evaluated per-sample. *)
    let x' = x +. twist in
    direct :=
      !direct
      +. Ss_stats.Special.log_normal_pdf ~mean:0.0 ~var:1.0 x'
      -. Ss_stats.Special.log_normal_pdf ~mean:twist ~var:1.0 x';
    Likelihood.step lik ~k ~innovation:x
  done;
  close ~eps:1e-10 "iid product" !direct (Likelihood.log_ratio lik)

let test_likelihood_reset () =
  let table = white_table 5 in
  let lik = Likelihood.create ~table ~twist:1.0 in
  Likelihood.step lik ~k:0 ~innovation:0.5;
  Alcotest.(check int) "steps" 1 (Likelihood.steps lik);
  Likelihood.reset lik;
  Alcotest.(check int) "steps after reset" 0 (Likelihood.steps lik);
  close "log L cleared" 0.0 (Likelihood.log_ratio lik)

let test_likelihood_order_enforced () =
  let table = white_table 5 in
  let lik = Likelihood.create ~table ~twist:1.0 in
  raises_invalid "must start at 0" (fun () -> Likelihood.step lik ~k:1 ~innovation:0.0);
  Likelihood.step lik ~k:0 ~innovation:0.0;
  raises_invalid "no skipping" (fun () -> Likelihood.step lik ~k:2 ~innovation:0.0)

let test_likelihood_expectation_is_one () =
  (* E_X'[L] = 1: average the likelihood ratio over twisted paths. *)
  let n = 30 in
  let table = fgn_table ~h:0.8 n in
  let twist = 0.7 in
  let rng = Rng.create ~seed:3 in
  let reps = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to reps do
    let lik = Likelihood.create ~table ~twist in
    let xs = Array.make n 0.0 in
    for k = 0 to n - 1 do
      let m = Hosking.Table.cond_mean table xs k in
      let innovation = Hosking.Table.innovation_std table k *. Rng.gaussian rng in
      xs.(k) <- m +. innovation;
      Likelihood.step lik ~k ~innovation
    done;
    sum := !sum +. Likelihood.ratio lik
  done;
  close ~eps:0.05 "E[L] = 1" 1.0 (!sum /. float_of_int reps)

(* ------------------------------------------------------------------ *)
(* Likelihood: streaming (truncated-Hosking) accumulator               *)
(* ------------------------------------------------------------------ *)

let test_likelihood_stream_matches_plan_prefix () =
  (* Within the table length the streaming accumulator follows the
     exact recursion, so it must agree with the table-indexed one on
     identical innovations — for both constant and general profiles. *)
  let n = 40 in
  let table = fgn_table ~h:0.8 n in
  List.iter
    (fun profile ->
      let plan = Likelihood.plan ~table ~profile in
      let lik = Likelihood.of_plan plan in
      let s = Likelihood.stream_of_plan plan in
      let rng = Rng.create ~seed:9 in
      for k = 0 to n - 1 do
        let innovation = Rng.gaussian rng in
        Likelihood.step lik ~k ~innovation;
        Likelihood.stream_step s ~k ~innovation
      done;
      close ~eps:1e-12 "prefix log L" (Likelihood.log_ratio lik) (Likelihood.stream_log_ratio s);
      Alcotest.(check int) "steps" n (Likelihood.stream_steps s))
    [ Twist.constant 0.9; Twist.ramp ~until:25 ~peak:1.2 ]

let test_likelihood_stream_constant_equals_fn_profile () =
  (* A Fn profile that happens to be constant must accumulate exactly
     the same log ratio as the cached-row-sum constant fast path,
     including past the table length where both use the frozen row. *)
  let order = 12 in
  let table = fgn_table ~h:0.8 (order + 1) in
  let m0 = 0.6 in
  let fast = Likelihood.stream ~table ~profile:(Twist.constant m0) in
  let general = Likelihood.stream ~table ~profile:(Twist.of_fun (fun _ -> m0)) in
  let rng = Rng.create ~seed:10 in
  for k = 0 to 199 do
    let innovation = Rng.gaussian rng in
    Likelihood.stream_step fast ~k ~innovation;
    Likelihood.stream_step general ~k ~innovation
  done;
  close ~eps:1e-10 "fast = general" (Likelihood.stream_log_ratio fast)
    (Likelihood.stream_log_ratio general)

let test_likelihood_stream_expectation_is_one () =
  (* E_X'[L] = 1 for the truncated process far beyond the table
     length: generate with the frozen AR(order) recursion (the
     streaming-source scheme) and average the ratio. *)
  let order = 8 in
  let table = fgn_table ~h:0.8 (order + 1) in
  let twist = 0.5 in
  let plan = Likelihood.plan ~table ~profile:(Twist.constant twist) in
  let horizon = 120 in
  let rng = Rng.create ~seed:11 in
  let reps = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to reps do
    let s = Likelihood.stream_of_plan plan in
    let hist = Array.make order 0.0 in
    for k = 0 to horizon - 1 do
      let kk = Stdlib.min k order in
      let m = Hosking.Table.cond_mean table hist kk in
      let innovation = Hosking.Table.innovation_std table kk *. Rng.gaussian rng in
      let x = m +. innovation in
      if k < order then hist.(k) <- x
      else begin
        Array.blit hist 1 hist 0 (order - 1);
        hist.(order - 1) <- x
      end;
      Likelihood.stream_step s ~k ~innovation
    done;
    sum := !sum +. exp (Likelihood.stream_log_ratio s)
  done;
  close ~eps:0.05 "E[L] = 1 (streaming)" 1.0 (!sum /. float_of_int reps)

let test_likelihood_stream_reset_and_order () =
  let table = fgn_table 5 in
  let s = Likelihood.stream ~table ~profile:(Twist.constant 1.0) in
  raises_invalid "must start at 0" (fun () -> Likelihood.stream_step s ~k:3 ~innovation:0.0);
  Likelihood.stream_step s ~k:0 ~innovation:0.4;
  (* No table-length ceiling: steps past the table clamp to the frozen
     row instead of raising. *)
  for k = 1 to 19 do
    Likelihood.stream_step s ~k ~innovation:0.0
  done;
  Alcotest.(check int) "steps" 20 (Likelihood.stream_steps s);
  Likelihood.stream_reset s;
  Alcotest.(check int) "steps after reset" 0 (Likelihood.stream_steps s);
  close "log L cleared" 0.0 (Likelihood.stream_log_ratio s)

(* ------------------------------------------------------------------ *)
(* Is_estimator                                                         *)
(* ------------------------------------------------------------------ *)

let identity_arrival _i x = x

let test_is_log_weight_consistent () =
  (* replicate's linear weight is exp of its log weight; misses carry
     log weight -inf. *)
  let table = fgn_table 100 in
  let cfg =
    Is.make_config ~table ~arrival:identity_arrival ~service:0.4 ~buffer:5.0 ~horizon:100
      ~twist:0.8 ()
  in
  let rng = Rng.create ~seed:12 in
  let hits = ref 0 and misses = ref 0 in
  for _ = 1 to 200 do
    let r = Is.replicate cfg (Rng.split rng) in
    if r.Is.hit then begin
      incr hits;
      close ~eps:1e-12 "weight = exp log_weight" (exp r.Is.log_weight) r.Is.weight
    end
    else begin
      incr misses;
      Alcotest.(check bool) "miss log weight" true (r.Is.log_weight = neg_infinity);
      close "miss weight" 0.0 r.Is.weight
    end
  done;
  if !hits = 0 || !misses = 0 then
    Alcotest.failf "degenerate split: %d hits, %d misses" !hits !misses

let test_is_zero_twist_equals_plain_mc () =
  (* With twist 0 the weights are exactly the indicator. *)
  let table = fgn_table 100 in
  let cfg =
    Is.make_config ~table ~arrival:identity_arrival ~service:0.4 ~buffer:5.0 ~horizon:100
      ~twist:0.0 ()
  in
  let e = Is.estimate cfg ~replications:2000 (Rng.create ~seed:4) in
  Alcotest.(check int) "hits = weighted hits" e.Mc.hits
    (int_of_float (Float.round (e.Mc.p *. float_of_int e.Mc.replications)));
  if e.Mc.p <= 0.0 || e.Mc.p >= 1.0 then Alcotest.failf "degenerate p=%g" e.Mc.p

let test_is_unbiased_across_twists () =
  (* The same probability estimated at several twists must agree
     within joint confidence bands. *)
  let table = fgn_table 150 in
  let cfg twist =
    Is.make_config ~table ~arrival:identity_arrival ~service:0.45 ~buffer:6.0 ~horizon:150
      ~twist ()
  in
  let estimates =
    List.map
      (fun twist -> Is.estimate (cfg twist) ~replications:4000 (Rng.create ~seed:5))
      [ 0.0; 0.3; 0.6 ]
  in
  match estimates with
  | [ a; b; c ] ->
    let band e = 4.0 *. sqrt (e.Mc.variance /. float_of_int e.Mc.replications) in
    close ~eps:(band a +. band b) "0 vs 0.3" a.Mc.p b.Mc.p;
    close ~eps:(band a +. band c) "0 vs 0.6" a.Mc.p c.Mc.p
  | _ -> assert false

let test_is_variance_reduction () =
  (* For a genuinely rare event, a well-chosen twist must slash the
     normalized variance relative to plain MC. *)
  let table = fgn_table ~h:0.75 300 in
  let cfg twist =
    Is.make_config ~table ~arrival:identity_arrival ~service:0.5 ~buffer:15.0 ~horizon:300
      ~twist ()
  in
  let mc = Is.estimate (cfg 0.0) ~replications:2000 (Rng.create ~seed:6) in
  let is = Is.estimate (cfg 0.8) ~replications:2000 (Rng.create ~seed:7) in
  if is.Mc.hits < 100 then Alcotest.failf "twist too weak: %d hits" is.Mc.hits;
  if is.Mc.p <= 0.0 then Alcotest.fail "IS estimate vanished";
  (* Plain MC at 2000 reps likely sees no hits at all; if it does,
     its normalized variance must still dominate the IS one. *)
  if mc.Mc.hits > 0 && is.Mc.normalized_variance >= mc.Mc.normalized_variance then
    Alcotest.fail "no variance reduction"

let test_is_rare_event_magnitude () =
  (* iid N(0,1) arrivals, service c: P(sup W > b) <= exp(-2 c b)
     (Chernoff/Hoeffding-style bound for the normal random walk:
     the exact Lundberg exponent is 2c). IS must land below the bound
     and within a plausible range of the Cramer approximation
     C exp(-2 c b). *)
  let table = white_table 400 in
  let c = 0.5 and b = 8.0 in
  let cfg =
    Is.make_config ~table ~arrival:identity_arrival ~service:c ~buffer:b ~horizon:400
      ~twist:1.0 ()
  in
  let e = Is.estimate cfg ~replications:4000 (Rng.create ~seed:8) in
  let bound = exp (-2.0 *. c *. b) in
  if e.Mc.p > bound then Alcotest.failf "IS %.3g above Lundberg bound %.3g" e.Mc.p bound;
  if e.Mc.p < bound /. 100.0 then Alcotest.failf "IS %.3g implausibly small" e.Mc.p

let test_is_monotone_in_buffer () =
  let table = fgn_table 200 in
  let est b =
    let cfg =
      Is.make_config ~table ~arrival:identity_arrival ~service:0.5 ~buffer:b ~horizon:200
        ~twist:0.7 ()
    in
    (Is.estimate cfg ~replications:2000 (Rng.create ~seed:9)).Mc.p
  in
  let p4 = est 4.0 and p8 = est 8.0 and p16 = est 16.0 in
  if not (p4 > p8 && p8 > p16) then
    Alcotest.failf "overflow not decreasing in buffer: %.3g %.3g %.3g" p4 p8 p16

let test_is_full_start_dominates_empty () =
  (* Starting from a full buffer can only increase the overflow
     probability at any horizon. *)
  let table = fgn_table 150 in
  let mk full_start =
    Is.make_config ~table ~arrival:identity_arrival ~service:0.5 ~buffer:8.0 ~horizon:150
      ~twist:0.6 ~full_start ()
  in
  let empty = Is.estimate (mk false) ~replications:3000 (Rng.create ~seed:10) in
  let full = Is.estimate (mk true) ~replications:3000 (Rng.create ~seed:10) in
  if full.Mc.p < empty.Mc.p then
    Alcotest.failf "full start (%.3g) below empty start (%.3g)" full.Mc.p empty.Mc.p

let test_is_replication_stop_step () =
  let table = white_table 50 in
  (* Immediate crossing: huge arrivals via twist of identity isn't
     needed; use buffer 0.1 and positive service drift. *)
  let cfg =
    Is.make_config ~table ~arrival:(fun _ _ -> 10.0) ~service:1.0 ~buffer:0.5 ~horizon:50
      ~twist:0.0 ()
  in
  let r = Is.replicate cfg (Rng.create ~seed:11) in
  Alcotest.(check bool) "hit" true r.Is.hit;
  Alcotest.(check int) "stops at first slot" 1 r.Is.stop_step;
  close "weight 1 at zero twist" 1.0 r.Is.weight

let test_is_mean_stop_step_bounded () =
  let table = white_table 100 in
  let cfg =
    Is.make_config ~table ~arrival:identity_arrival ~service:0.5 ~buffer:3.0 ~horizon:100
      ~twist:1.5 ()
  in
  let mean_stop = Is.mean_stop_step cfg ~replications:500 (Rng.create ~seed:12) in
  if mean_stop < 1.0 || mean_stop > 100.0 then Alcotest.failf "bad mean stop %.1f" mean_stop

let test_is_config_non_finite () =
  (* A NaN or infinite buffer is never crossed and printed p = 0; each
     non-finite parameter is refused by name, as Mux_is refuses it. *)
  let table = white_table 10 in
  let refused name ?(service = 1.0) ?(buffer = 1.0) ?(twist = 0.0) () =
    match
      Is.make_config ~table ~arrival:identity_arrival ~service ~buffer ~horizon:10 ~twist ()
    with
    | exception Invalid_argument m ->
      let tag = "Is_estimator: " ^ name in
      if not (String.starts_with ~prefix:tag m) then
        Alcotest.failf "%s: message %S does not start with %S" name m tag
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  List.iter (fun service -> refused "service" ~service ()) [ Float.nan; infinity; 0.0 ];
  List.iter
    (fun buffer -> refused "buffer" ~buffer ())
    [ Float.nan; infinity; neg_infinity; -1.0 ];
  List.iter (fun twist -> refused "twist" ~twist ()) [ Float.nan; infinity; neg_infinity ]

let test_is_config_validation () =
  let table = white_table 10 in
  raises_invalid "service" (fun () ->
      Is.make_config ~table ~arrival:identity_arrival ~service:0.0 ~buffer:1.0 ~horizon:10
        ~twist:0.0 ());
  raises_invalid "buffer" (fun () ->
      Is.make_config ~table ~arrival:identity_arrival ~service:1.0 ~buffer:(-1.0) ~horizon:10
        ~twist:0.0 ());
  raises_invalid "horizon" (fun () ->
      Is.make_config ~table ~arrival:identity_arrival ~service:1.0 ~buffer:1.0 ~horizon:11
        ~twist:0.0 ());
  let cfg =
    Is.make_config ~table ~arrival:identity_arrival ~service:1.0 ~buffer:1.0 ~horizon:10
      ~twist:0.0 ()
  in
  raises_invalid "replications" (fun () ->
      ignore (Is.estimate cfg ~replications:0 (Rng.create ~seed:1)))

let test_is_davies_harte_backend () =
  let acf = Acf.fgn ~h:0.7 in
  let table = fgn_table 100 in
  let cfg backend twist =
    Is.make_config ~table ~arrival:identity_arrival ~service:0.4 ~buffer:5.0 ~horizon:100
      ~twist ~backend ()
  in
  (* The DH backend materializes the whole path, so there are no
     per-step innovations to accumulate a likelihood ratio from: it
     is plain MC only (zero twist), and the plan must cover the
     horizon. *)
  let plan = Ss_fractal.Davies_harte.plan ~acf ~n:100 () in
  raises_invalid "DH with nonzero twist" (fun () -> cfg (`Davies_harte plan) 0.5);
  let short = Ss_fractal.Davies_harte.plan ~acf ~n:50 () in
  raises_invalid "DH plan shorter than horizon" (fun () -> cfg (`Davies_harte short) 0.0);
  (* At zero twist both backends estimate the same overflow event —
     the full-length Hosking table is the exact process too, so the
     estimates must agree within joint confidence bands. *)
  let reps = 3000 in
  let e_h = Is.estimate (cfg `Hosking 0.0) ~replications:reps (Rng.create ~seed:14) in
  let e_d =
    Is.estimate (cfg (`Davies_harte plan) 0.0) ~replications:reps (Rng.create ~seed:15)
  in
  if e_h.Mc.hits = 0 || e_d.Mc.hits = 0 then Alcotest.fail "degenerate: no hits";
  let band e = 4.0 *. sqrt (e.Mc.variance /. float_of_int e.Mc.replications) in
  close ~eps:(band e_h +. band e_d) "DH p vs Hosking p" e_h.Mc.p e_d.Mc.p

let test_is_deterministic_given_seed () =
  let table = fgn_table 80 in
  let cfg =
    Is.make_config ~table ~arrival:identity_arrival ~service:0.5 ~buffer:4.0 ~horizon:80
      ~twist:0.5 ()
  in
  let a = Is.estimate cfg ~replications:500 (Rng.create ~seed:13) in
  let b = Is.estimate cfg ~replications:500 (Rng.create ~seed:13) in
  close "reproducible" a.Mc.p b.Mc.p

(* ------------------------------------------------------------------ *)
(* Twist profiles                                                       *)
(* ------------------------------------------------------------------ *)

let test_twist_shapes () =
  close "constant" 2.0 (Twist.shift (Twist.constant 2.0) 17);
  close "zero" 0.0 (Twist.shift Twist.zero 3);
  Alcotest.(check bool) "zero is zero" true (Twist.is_zero Twist.zero);
  Alcotest.(check bool) "constant 0 collapses to zero" true (Twist.is_zero (Twist.constant 0.0));
  let r = Twist.ramp ~until:5 ~peak:4.0 in
  close "ramp start" 0.0 (Twist.shift r 0);
  close "ramp mid" 2.0 (Twist.shift r 2);
  close "ramp peak" 4.0 (Twist.shift r 4);
  close "ramp past peak" 4.0 (Twist.shift r 100);
  let f = Twist.front ~until:3 ~level:1.5 in
  close "front on" 1.5 (Twist.shift f 2);
  close "front off" 0.0 (Twist.shift f 3);
  raises_invalid "negative slot" (fun () -> Twist.shift Twist.zero (-1));
  raises_invalid "ramp until" (fun () -> Twist.ramp ~until:0 ~peak:1.0)

let test_twist_constant_value () =
  Alcotest.(check (option (float 1e-12))) "constant" (Some 1.5)
    (Twist.constant_value (Twist.constant 1.5));
  Alcotest.(check (option (float 1e-12))) "zero" (Some 0.0) (Twist.constant_value Twist.zero);
  Alcotest.(check (option (float 1e-12))) "ramp" None
    (Twist.constant_value (Twist.ramp ~until:5 ~peak:1.0))

let test_likelihood_profile_matches_constant () =
  (* A Fn profile that happens to be constant must produce the same
     likelihood as the Constant fast path. *)
  let table = fgn_table 40 in
  let a = Likelihood.of_plan (Likelihood.plan ~table ~profile:(Twist.constant 0.9)) in
  let b = Likelihood.of_plan (Likelihood.plan ~table ~profile:(Twist.of_fun (fun _ -> 0.9))) in
  let rng = Rng.create ~seed:40 in
  for k = 0 to 39 do
    let e = Rng.gaussian rng in
    Likelihood.step a ~k ~innovation:e;
    Likelihood.step b ~k ~innovation:e
  done;
  close ~eps:1e-12 "fast path = general path" (Likelihood.log_ratio a) (Likelihood.log_ratio b)

let test_likelihood_ramp_expectation_one () =
  (* E_X'[L] = 1 must hold for any deterministic profile. *)
  let n = 30 in
  let table = fgn_table ~h:0.8 n in
  let profile = Twist.ramp ~until:n ~peak:1.2 in
  let plan = Likelihood.plan ~table ~profile in
  let rng = Rng.create ~seed:41 in
  let reps = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to reps do
    let lik = Likelihood.of_plan plan in
    let xs = Array.make n 0.0 in
    for k = 0 to n - 1 do
      let m = Ss_fractal.Hosking.Table.cond_mean table xs k in
      let innovation = Ss_fractal.Hosking.Table.innovation_std table k *. Rng.gaussian rng in
      xs.(k) <- m +. innovation;
      Likelihood.step lik ~k ~innovation
    done;
    sum := !sum +. Likelihood.ratio lik
  done;
  close ~eps:0.05 "E[L] = 1 under ramp twist" 1.0 (!sum /. float_of_int reps)

let test_is_profile_unbiased_vs_constant () =
  (* The same overflow probability estimated under a ramp profile
     must agree with the constant-twist estimate. *)
  let table = fgn_table 150 in
  let base twist profile =
    Is.make_config ~table ~arrival:identity_arrival ~service:0.45 ~buffer:6.0 ~horizon:150
      ~twist ?profile ()
  in
  let const_e = Is.estimate (base 0.5 None) ~replications:4000 (Rng.create ~seed:42) in
  let ramp_e =
    Is.estimate
      (base 0.0 (Some (Twist.ramp ~until:150 ~peak:1.0)))
      ~replications:4000 (Rng.create ~seed:43)
  in
  let band e = 4.0 *. sqrt (e.Mc.variance /. float_of_int e.Mc.replications) in
  close ~eps:(band const_e +. band ramp_e) "ramp vs constant" const_e.Mc.p ramp_e.Mc.p

(* ------------------------------------------------------------------ *)
(* Valley                                                               *)
(* ------------------------------------------------------------------ *)

let valley_config table twist =
  Is.make_config ~table ~arrival:identity_arrival ~service:0.5 ~buffer:10.0 ~horizon:200
    ~twist ()

let test_valley_sweep_shape () =
  (* The normalized variance should dip at a moderate twist and rise
     again for overly aggressive twisting; minimally, the best twist
     must beat both the weakest twist in the sweep. *)
  let table = fgn_table ~h:0.75 200 in
  let config ~twist = valley_config table twist in
  let points =
    Valley.sweep ~config ~twists:[ 0.2; 0.6; 1.0; 1.5; 2.5; 4.0 ] ~replications:800
      (Rng.create ~seed:14)
  in
  Alcotest.(check int) "six points" 6 (List.length points);
  let best = Valley.best points in
  if best.Valley.twist <= 0.2 then Alcotest.fail "valley minimum at the weakest twist";
  let nv_of t =
    (List.find (fun p -> p.Valley.twist = t) points).Valley.estimate.Mc.normalized_variance
  in
  if best.Valley.estimate.Mc.normalized_variance >= nv_of 0.2 then
    Alcotest.fail "best twist no better than near-zero twist"

let test_valley_best_prefers_hits () =
  let mk twist hits nvar =
    {
      Valley.twist;
      estimate = { Mc.p = 0.1; variance = 0.0; normalized_variance = nvar; replications = 10; hits };
    }
  in
  (* A hitless point with tiny nvar must lose to a point with hits. *)
  let best = Valley.best [ mk 1.0 0 0.001; mk 2.0 5 1.0 ] in
  close "prefers hits" 2.0 best.Valley.twist

let test_valley_refine_brackets () =
  let table = fgn_table ~h:0.75 200 in
  let config ~twist = valley_config table twist in
  let p = Valley.refine ~config ~lo:0.3 ~hi:3.0 ~replications:400 ~iterations:6 (Rng.create ~seed:15) in
  if p.Valley.twist < 0.3 || p.Valley.twist > 3.0 then
    Alcotest.failf "refined twist %.2f escaped bracket" p.Valley.twist

let test_valley_auto () =
  let table = fgn_table ~h:0.75 200 in
  let config ~twist = valley_config table twist in
  let p = Valley.auto ~config ~replications:300 (Rng.create ~seed:44) in
  if p.Valley.estimate.Mc.hits = 0 then Alcotest.fail "auto twist found no hits";
  if p.Valley.twist <= 0.25 || p.Valley.twist > 6.0 then
    Alcotest.failf "auto twist %.2f outside range" p.Valley.twist

let test_valley_invalid () =
  let table = white_table 10 in
  let config ~twist = valley_config table twist in
  raises_invalid "empty sweep" (fun () ->
      ignore (Valley.sweep ~config ~twists:[] ~replications:10 (Rng.create ~seed:1)));
  raises_invalid "empty best" (fun () -> ignore (Valley.best []));
  raises_invalid "bad bracket" (fun () ->
      ignore (Valley.refine ~config ~lo:1.0 ~hi:1.0 ~replications:10 (Rng.create ~seed:1)))

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "ss_fastsim"
    [
      ( "likelihood",
        [
          tc "zero twist" test_likelihood_zero_twist_is_one;
          tc "Eq 48 first step" test_likelihood_first_step_closed_form;
          tc "iid product" test_likelihood_white_noise_product;
          tc "reset" test_likelihood_reset;
          tc "order enforced" test_likelihood_order_enforced;
          tc "E[L] = 1" test_likelihood_expectation_is_one;
          tc "stream = plan prefix" test_likelihood_stream_matches_plan_prefix;
          tc "stream constant = fn" test_likelihood_stream_constant_equals_fn_profile;
          tc "stream E[L] = 1" test_likelihood_stream_expectation_is_one;
          tc "stream reset and order" test_likelihood_stream_reset_and_order;
        ] );
      ( "is-estimator",
        [
          tc "zero twist = plain MC" test_is_zero_twist_equals_plain_mc;
          tc "log weight consistent" test_is_log_weight_consistent;
          tc "unbiased across twists" test_is_unbiased_across_twists;
          tc "variance reduction" test_is_variance_reduction;
          tc "rare event magnitude" test_is_rare_event_magnitude;
          tc "monotone in buffer" test_is_monotone_in_buffer;
          tc "full start dominates" test_is_full_start_dominates_empty;
          tc "replication stop step" test_is_replication_stop_step;
          tc "mean stop step" test_is_mean_stop_step_bounded;
          tc "config validation" test_is_config_validation;
          tc "non-finite config refused by name" test_is_config_non_finite;
          tc "Davies-Harte backend" test_is_davies_harte_backend;
          tc "deterministic" test_is_deterministic_given_seed;
        ] );
      ( "twist",
        [
          tc "shapes" test_twist_shapes;
          tc "constant_value" test_twist_constant_value;
          tc "profile = constant fast path" test_likelihood_profile_matches_constant;
          tc "E[L]=1 under ramp" test_likelihood_ramp_expectation_one;
          tc "ramp unbiased vs constant" test_is_profile_unbiased_vs_constant;
        ] );
      ( "valley",
        [
          tc "sweep shape" test_valley_sweep_shape;
          tc "best prefers hits" test_valley_best_prefers_hits;
          tc "refine brackets" test_valley_refine_brackets;
          tc "auto" test_valley_auto;
          tc "invalid" test_valley_invalid;
        ] );
    ]
