(* Tests for the ss_stats substrate: RNG, special functions,
   descriptive statistics, histograms, empirical distributions, the
   distribution zoo, regression and quadrature. *)

module Rng = Ss_stats.Rng
module Special = Ss_stats.Special
module D = Ss_stats.Descriptive
module Histogram = Ss_stats.Histogram
module Empirical = Ss_stats.Empirical
module Dist = Ss_stats.Dist
module Reg = Ss_stats.Regression
module Quad = Ss_stats.Quadrature
module Ts = Ss_stats.Timeseries

let close ?(eps = 1e-9) msg expected actual =
  if abs_float (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g (|diff| %.3g > %.3g)" msg expected
      actual
      (abs_float (expected -. actual))
      eps

let close_rel ?(eps = 1e-9) msg expected actual =
  let scale = Stdlib.max (abs_float expected) 1e-300 in
  if abs_float (expected -. actual) /. scale > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g (rel %.3g > %.3g)" msg expected actual
      (abs_float (expected -. actual) /. scale)
      eps

let raises_invalid msg f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" msg

(* ------------------------------------------------------------------ *)
(* Rng                                                                  *)
(* ------------------------------------------------------------------ *)

let test_rng_determinism () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:1 in
  for i = 0 to 99 do
    if not (Int64.equal (Rng.bits64 a) (Rng.bits64 b)) then
      Alcotest.failf "streams diverge at step %d" i
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Rng.bits64 a) (Rng.bits64 b) then incr same
  done;
  if !same > 2 then Alcotest.failf "seeds 1 and 2 collide on %d/64 words" !same

let test_rng_copy_independent () =
  let a = Rng.create ~seed:3 in
  let b = Rng.copy a in
  let va = Rng.float a in
  (* advancing a must not affect b *)
  let vb = Rng.float b in
  close "copy preserves stream" va vb;
  ignore (Rng.float a);
  let va2 = Rng.float a and vb2 = Rng.float b in
  if va2 = vb2 then Alcotest.fail "copies stayed locked together unexpectedly"

let test_rng_float_range_bounds () =
  let rng = Rng.create ~seed:4 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng in
    if v < 0.0 || v >= 1.0 then Alcotest.failf "float out of [0,1): %g" v
  done

let test_rng_float_moments () =
  let rng = Rng.create ~seed:5 in
  let n = 100_000 in
  let xs = Array.init n (fun _ -> Rng.float rng) in
  close ~eps:0.01 "uniform mean" 0.5 (D.mean xs);
  close ~eps:0.01 "uniform variance" (1.0 /. 12.0) (D.variance xs)

let test_rng_gaussian_moments () =
  let rng = Rng.create ~seed:6 in
  let n = 200_000 in
  let xs = Array.init n (fun _ -> Rng.gaussian rng) in
  close ~eps:0.02 "gaussian mean" 0.0 (D.mean xs);
  close ~eps:0.02 "gaussian variance" 1.0 (D.variance xs);
  close ~eps:0.05 "gaussian skewness" 0.0 (D.skewness xs);
  close ~eps:0.1 "gaussian kurtosis" 0.0 (D.kurtosis xs)

let test_rng_gaussian_tail () =
  let rng = Rng.create ~seed:7 in
  let n = 200_000 in
  let beyond2 = ref 0 in
  for _ = 1 to n do
    if abs_float (Rng.gaussian rng) > 2.0 then incr beyond2
  done;
  (* P(|Z| > 2) = 0.0455 *)
  close ~eps:0.005 "two-sigma tail mass" 0.0455 (float_of_int !beyond2 /. float_of_int n)

let test_rng_fill_gaussian_matches_gaussian () =
  (* fill_gaussian is the batched form of gaussian: mixed scalar and
     batched consumption of an identically seeded generator must
     reproduce the same deviates bit for bit, including the cached
     polar deviate handed across call boundaries. *)
  let total = 257 in
  let a = Rng.create ~seed:77 in
  let expected = Array.init total (fun _ -> Rng.gaussian a) in
  let b = Rng.create ~seed:77 in
  let got = Array.make total 0.0 in
  let i = ref 0 in
  List.iter
    (fun len ->
      Rng.fill_gaussian b got ~off:!i ~len;
      i := !i + len;
      if !i < total then begin
        got.(!i) <- Rng.gaussian b;
        incr i
      end)
    [ 1; 0; 2; 3; 5; 1; 8; 13; 21; 34 ];
  Rng.fill_gaussian b got ~off:!i ~len:(total - !i);
  Array.iteri
    (fun j x ->
      if Int64.bits_of_float x <> Int64.bits_of_float expected.(j) then
        Alcotest.failf "deviate %d: %.17g <> %.17g" j expected.(j) x)
    got;
  if Int64.bits_of_float (Rng.gaussian a) <> Int64.bits_of_float (Rng.gaussian b) then
    Alcotest.fail "generator states diverged after fill_gaussian";
  raises_invalid "negative len" (fun () -> Rng.fill_gaussian b got ~off:0 ~len:(-1));
  raises_invalid "range overflow" (fun () -> Rng.fill_gaussian b got ~off:total ~len:1)

(* Every draw entry point, split/copy/copy_into, the checkpoint bytes
   and a restore, over ~4 M deviates, digested. The digest was taken
   while the state still lived in four boxed Int64 fields: the unboxed
   state must keep every stream and every snapshot byte. *)
let test_rng_golden_stream () =
  let buf = Buffer.create 4096 in
  let addf x = Buffer.add_int64_le buf (Int64.bits_of_float x) in
  let r = Rng.create ~seed:42 in
  for _ = 1 to 1000 do
    Buffer.add_int64_le buf (Rng.bits64 r)
  done;
  for _ = 1 to 1000 do
    addf (Rng.float r)
  done;
  for _ = 1 to 1001 do
    addf (Rng.gaussian r)
  done;
  let a = Array.make 4096 0.0 in
  for k = 1 to 1000 do
    Rng.fill_gaussian r a ~off:(k mod 7) ~len:(4000 + (k mod 3));
    Array.iter addf a
  done;
  let c = Rng.split r in
  let d = Rng.copy c in
  for _ = 1 to 7 do
    addf (Rng.gaussian c)
  done;
  Buffer.add_string buf (string_of_int (Rng.int_range d 3 1000));
  Buffer.add_string buf (string_of_bool (Rng.bool d));
  Rng.copy_into ~src:c ~dst:d;
  addf (Rng.gaussian d);
  let w = Ss_checkpoint.W.create () in
  Rng.save c w;
  let bytes = Ss_checkpoint.W.contents w in
  Buffer.add_string buf bytes;
  let e = Rng.create ~seed:1 in
  Rng.restore e (Ss_checkpoint.R.of_string bytes);
  addf (Rng.gaussian e);
  Array.iter (fun x -> addf (Rng.float x)) (Rng.split_n r 5);
  addf (Rng.exponential (Rng.of_state [| 1L; 2L; 3L; 4L |]) ~rate:2.0);
  Alcotest.(check string)
    "stream digest" "523bf0e0ba5f7b80bf7d17c34f577ec6"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let test_rng_fill_gaussian_no_alloc () =
  let rng = Rng.create ~seed:78 in
  let buf = Array.make 65_536 0.0 in
  Rng.fill_gaussian rng buf ~off:0 ~len:16;
  let w0 = Gc.minor_words () in
  Rng.fill_gaussian rng buf ~off:0 ~len:65_536;
  let words = Gc.minor_words () -. w0 in
  if words <> 0.0 then
    Alcotest.failf "65536 fill_gaussian draws allocated %.0f minor words" words

let test_rng_int_range () =
  let rng = Rng.create ~seed:8 in
  let counts = Array.make 7 0 in
  for _ = 1 to 70_000 do
    let v = Rng.int_range rng 3 9 in
    if v < 3 || v > 9 then Alcotest.failf "int_range out of bounds: %d" v;
    counts.(v - 3) <- counts.(v - 3) + 1
  done;
  Array.iteri
    (fun i c ->
      if c < 9_000 || c > 11_000 then
        Alcotest.failf "value %d has skewed count %d (expect ~10000)" (i + 3) c)
    counts

let test_rng_int_range_singleton () =
  let rng = Rng.create ~seed:9 in
  for _ = 1 to 100 do
    Alcotest.(check int) "singleton range" 5 (Rng.int_range rng 5 5)
  done

let test_rng_split_independence () =
  let parent = Rng.create ~seed:10 in
  let child = Rng.split parent in
  let n = 50_000 in
  let a = Array.init n (fun _ -> Rng.float parent) in
  let b = Array.init n (fun _ -> Rng.float child) in
  (* crude cross-correlation check *)
  let ma = D.mean a and mb = D.mean b in
  let num = ref 0.0 in
  for i = 0 to n - 1 do
    num := !num +. ((a.(i) -. ma) *. (b.(i) -. mb))
  done;
  let corr = !num /. float_of_int n /. (D.std a *. D.std b) in
  if abs_float corr > 0.02 then Alcotest.failf "split streams correlate: %g" corr

let test_rng_exponential_mean () =
  let rng = Rng.create ~seed:11 in
  let xs = Array.init 100_000 (fun _ -> Rng.exponential rng ~rate:2.0) in
  close ~eps:0.01 "exponential mean" 0.5 (D.mean xs)

let test_rng_pareto_support_and_median () =
  let rng = Rng.create ~seed:12 in
  let xs = Array.init 50_000 (fun _ -> Rng.pareto rng ~shape:1.5 ~scale:2.0) in
  Array.iter (fun v -> if v < 2.0 then Alcotest.failf "pareto below scale: %g" v) xs;
  (* median = scale * 2^(1/shape) *)
  close ~eps:0.05 "pareto median" (2.0 *. (2.0 ** (1.0 /. 1.5))) (D.median xs)

let test_rng_invalid_args () =
  let rng = Rng.create ~seed:13 in
  raises_invalid "empty float range" (fun () -> Rng.float_range rng 1.0 1.0);
  raises_invalid "empty int range" (fun () -> Rng.int_range rng 2 1);
  raises_invalid "bad exponential" (fun () -> Rng.exponential rng ~rate:0.0);
  raises_invalid "bad pareto" (fun () -> Rng.pareto rng ~shape:0.0 ~scale:1.0);
  raises_invalid "negative std" (fun () -> Rng.gaussian_mv rng ~mean:0.0 ~std:(-1.0));
  raises_invalid "of_state size" (fun () -> Rng.of_state [| 1L |]);
  raises_invalid "of_state zero" (fun () -> Rng.of_state [| 0L; 0L; 0L; 0L |])

(* ------------------------------------------------------------------ *)
(* Special functions                                                   *)
(* ------------------------------------------------------------------ *)

let test_erf_reference_values () =
  (* Reference values from standard tables. *)
  close ~eps:1e-12 "erf 0" 0.0 (Special.erf 0.0);
  close ~eps:1e-12 "erf 0.5" 0.5204998778130465 (Special.erf 0.5);
  close ~eps:1e-12 "erf 1" 0.8427007929497149 (Special.erf 1.0);
  close ~eps:1e-12 "erf 2" 0.9953222650189527 (Special.erf 2.0);
  close ~eps:1e-12 "erf -1" (-0.8427007929497149) (Special.erf (-1.0))

let test_erfc_reference_values () =
  close_rel ~eps:1e-11 "erfc 1" 0.15729920705028513 (Special.erfc 1.0);
  close_rel ~eps:1e-11 "erfc 3" 2.209049699858544e-05 (Special.erfc 3.0);
  close_rel ~eps:1e-10 "erfc 5" 1.5374597944280351e-12 (Special.erfc 5.0);
  close ~eps:1e-12 "erfc -2" (2.0 -. Special.erfc 2.0) (Special.erfc (-2.0))

let test_erf_erfc_complementarity () =
  List.iter
    (fun x -> close ~eps:1e-12 "erf + erfc = 1" 1.0 (Special.erf x +. Special.erfc x))
    [ -3.0; -1.0; -0.1; 0.0; 0.3; 1.7; 2.5; 4.0 ]

let test_log_gamma_factorials () =
  for n = 1 to 15 do
    let fact = ref 1.0 in
    for i = 2 to n - 1 do
      fact := !fact *. float_of_int i
    done;
    close_rel ~eps:1e-12
      (Printf.sprintf "lgamma %d" n)
      (log !fact)
      (Special.log_gamma (float_of_int n))
  done

let test_log_gamma_half () =
  (* Gamma(1/2) = sqrt(pi) *)
  close_rel ~eps:1e-12 "lgamma 0.5" (0.5 *. log Float.pi) (Special.log_gamma 0.5);
  raises_invalid "lgamma 0" (fun () -> Special.log_gamma 0.0)

let test_gamma_p_reference () =
  (* P(1, x) = 1 - e^-x *)
  List.iter
    (fun x -> close_rel ~eps:1e-10 "P(1,x)" (1.0 -. exp (-.x)) (Special.gamma_p 1.0 x))
    [ 0.1; 0.5; 1.0; 3.0; 10.0 ];
  (* P(2, 2) known value *)
  close_rel ~eps:1e-10 "P(2,2)" 0.5939941502901616 (Special.gamma_p 2.0 2.0);
  close ~eps:1e-12 "P(a,0)" 0.0 (Special.gamma_p 2.5 0.0)

let test_gamma_p_q_complementarity () =
  List.iter
    (fun (a, x) ->
      close ~eps:1e-12 "P + Q = 1" 1.0 (Special.gamma_p a x +. Special.gamma_q a x))
    [ (0.5, 0.2); (1.0, 1.0); (3.0, 2.0); (3.0, 10.0); (20.0, 15.0) ]

let test_normal_cdf_symmetry () =
  List.iter
    (fun x ->
      close ~eps:1e-13 "Phi(x) + Phi(-x) = 1" 1.0
        (Special.normal_cdf x +. Special.normal_cdf (-.x)))
    [ 0.0; 0.5; 1.0; 2.0; 4.0 ];
  close ~eps:1e-13 "Phi(0)" 0.5 (Special.normal_cdf 0.0);
  close_rel ~eps:1e-10 "Phi(1.96)" 0.9750021048517795 (Special.normal_cdf 1.96)

let test_normal_cdf_relaxed_accuracy () =
  (* A&S 26.2.17 polynomial: |Phi_relaxed - Phi| < 7.5e-8 everywhere,
     exact symmetry by construction. *)
  let x = ref (-8.0) in
  while !x <= 8.0 do
    let exact = Special.normal_cdf !x and fast = Special.normal_cdf_relaxed !x in
    if abs_float (exact -. fast) > 8e-8 then
      Alcotest.failf "relaxed cdf at %g: |%.12g - %.12g| > 8e-8" !x fast exact;
    x := !x +. 0.01
  done;
  close ~eps:8e-8 "relaxed Phi(0)" 0.5 (Special.normal_cdf_relaxed 0.0);
  List.iter
    (fun x ->
      close ~eps:1e-15 "relaxed symmetry" 1.0
        (Special.normal_cdf_relaxed x +. Special.normal_cdf_relaxed (-.x)))
    [ 0.3; 1.0; 2.5; 6.0 ]

(* Inputs for the block CDFs: a dense grid over [-8, 8], N(0,1)
   draws, and the edges — signed zeros, both sides of the series /
   continued-fraction switch at |x| = 2 sqrt 2 (|y| = 2), +-8,
   subnormals, infinities and NaN. *)
let cdf_block_inputs () =
  let grid = Array.init 16_001 (fun i -> -8.0 +. (float_of_int i /. 1000.0)) in
  let rng = Rng.create ~seed:161 in
  let draws = Array.init 4096 (fun _ -> Rng.gaussian rng) in
  let switch = 2.0 *. sqrt 2.0 in
  let edges =
    [|
      0.0; -0.0; switch; -.switch; Float.pred switch; Float.succ switch;
      -.Float.pred switch; -.Float.succ switch; 8.0; -8.0; 4e-320; -4e-320;
      Float.min_float; -.Float.min_float; infinity; neg_infinity; nan; 40.0; -40.0;
    |]
  in
  Array.concat [ edges; draws; grid ]

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* [into] over every block offset and length 0..9 of a short prefix,
   then over 2048-element blocks, must equal [scalar] element by
   element and leave everything outside the block untouched. *)
let check_block_map name ~scalar ~into xs =
  let check xs off len =
    let buf = Array.copy xs in
    into buf ~off ~len;
    Array.iteri
      (fun i y ->
        let want = if i >= off && i < off + len then scalar xs.(i) else xs.(i) in
        if not (same_bits want y) then
          Alcotest.failf "%s: off=%d len=%d x=%h: got %h, want %h" name off len xs.(i) y want)
      buf
  in
  let head = Array.sub xs 0 24 in
  for off = 0 to 9 do
    for len = 0 to 9 do
      check head off len
    done
  done;
  let off = ref 0 in
  while !off < Array.length xs do
    check xs !off (Stdlib.min 2048 (Array.length xs - !off));
    off := !off + 2048
  done

let test_normal_cdf_into_bitwise () =
  let xs = cdf_block_inputs () in
  check_block_map "normal_cdf_into" ~scalar:Special.normal_cdf ~into:Special.normal_cdf_into xs;
  check_block_map "normal_cdf_relaxed_into" ~scalar:Special.normal_cdf_relaxed
    ~into:Special.normal_cdf_relaxed_into xs;
  let b = Array.make 4 0.0 in
  raises_invalid "negative offset" (fun () -> Special.normal_cdf_into b ~off:(-1) ~len:1);
  raises_invalid "range overflow" (fun () -> Special.normal_cdf_into b ~off:2 ~len:3);
  raises_invalid "relaxed range overflow" (fun () ->
      Special.normal_cdf_relaxed_into b ~off:0 ~len:5)

let test_normal_cdf_into_no_alloc () =
  let rng = Rng.create ~seed:162 in
  let xs = Array.init 65_536 (fun _ -> 3.0 *. Rng.gaussian rng) in
  let buf = Array.copy xs in
  Special.normal_cdf_into buf ~off:0 ~len:16;
  Special.normal_cdf_relaxed_into buf ~off:0 ~len:16;
  let buf = Array.copy xs in
  let w0 = Gc.minor_words () in
  Special.normal_cdf_into buf ~off:0 ~len:65_536;
  let exact = Gc.minor_words () -. w0 in
  let buf = Array.copy xs in
  let w0 = Gc.minor_words () in
  Special.normal_cdf_relaxed_into buf ~off:0 ~len:65_536;
  let relaxed = Gc.minor_words () -. w0 in
  if exact <> 0.0 || relaxed <> 0.0 then
    Alcotest.failf "65536 block CDFs allocated %.0f (exact) and %.0f (relaxed) minor words" exact
      relaxed

let test_empirical_quantile_into () =
  let rng = Rng.create ~seed:163 in
  let e = Empirical.of_data (Array.init 501 (fun _ -> Rng.exponential rng ~rate:0.5)) in
  let ps =
    Array.append [| 0.0; 1.0; 0.5; Float.succ 0.0; Float.pred 1.0; nan |]
      (Array.init 5000 (fun _ -> Rng.float rng))
  in
  check_block_map "quantile_into" ~scalar:(Empirical.quantile e)
    ~into:(Empirical.quantile_into e) ps;
  check_block_map "quantile_into (one point)"
    ~scalar:(Empirical.quantile (Empirical.of_data [| 3.0 |]))
    ~into:(Empirical.quantile_into (Empirical.of_data [| 3.0 |]))
    ps;
  raises_invalid "p > 1" (fun () -> Empirical.quantile_into e [| 0.5; 1.5 |] ~off:0 ~len:2);
  raises_invalid "range" (fun () -> Empirical.quantile_into e [| 0.5 |] ~off:1 ~len:1)

let test_normal_quantile_roundtrip () =
  List.iter
    (fun p ->
      close ~eps:1e-9
        (Printf.sprintf "Phi(Phi^-1(%g))" p)
        p
        (Special.normal_cdf (Special.normal_quantile p)))
    [ 1e-10; 1e-6; 0.001; 0.025; 0.3; 0.5; 0.7; 0.975; 0.999; 1.0 -. 1e-6 ]

let test_normal_quantile_known () =
  close ~eps:1e-8 "z(0.975)" 1.9599639845400545 (Special.normal_quantile 0.975);
  close ~eps:1e-8 "z(0.5)" 0.0 (Special.normal_quantile 0.5);
  close ~eps:1e-7 "z(0.99)" 2.3263478740408408 (Special.normal_quantile 0.99);
  raises_invalid "quantile 0" (fun () -> Special.normal_quantile 0.0);
  raises_invalid "quantile 1" (fun () -> Special.normal_quantile 1.0)

let test_log_normal_pdf () =
  (* Matches log of the density. *)
  let check mean var x =
    let d = x -. mean in
    let expected = (-0.5 *. d *. d /. var) -. (0.5 *. log (2.0 *. Float.pi *. var)) in
    close ~eps:1e-12 "log_normal_pdf" expected (Special.log_normal_pdf ~mean ~var x)
  in
  check 0.0 1.0 0.0;
  check 2.0 0.25 1.5;
  check (-1.0) 4.0 3.0;
  raises_invalid "zero var" (fun () -> Special.log_normal_pdf ~mean:0.0 ~var:0.0 1.0)

(* ------------------------------------------------------------------ *)
(* Descriptive                                                         *)
(* ------------------------------------------------------------------ *)

let test_descriptive_basics () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  close "mean" 2.5 (D.mean xs);
  close "variance" 1.25 (D.variance xs);
  close_rel ~eps:1e-12 "sample variance" (5.0 /. 3.0) (D.sample_variance xs);
  close "min" 1.0 (D.min xs);
  close "max" 4.0 (D.max xs);
  close "median" 2.5 (D.median xs)

let test_descriptive_constant () =
  let xs = Array.make 10 3.0 in
  close "constant variance" 0.0 (D.variance xs);
  close "constant skewness" 0.0 (D.skewness xs);
  close "constant kurtosis" 0.0 (D.kurtosis xs);
  close "constant acf" 0.0 (D.autocorrelation xs 1)

let test_descriptive_empty () =
  raises_invalid "mean of empty" (fun () -> D.mean [||]);
  raises_invalid "variance of empty" (fun () -> D.variance [||]);
  raises_invalid "quantile p" (fun () -> D.quantile [| 1.0 |] 1.5)

let test_quantile_interpolation () =
  let xs = [| 10.0; 20.0; 30.0; 40.0; 50.0 |] in
  close "q0" 10.0 (D.quantile xs 0.0);
  close "q1" 50.0 (D.quantile xs 1.0);
  close "q0.5" 30.0 (D.quantile xs 0.5);
  close "q0.25" 20.0 (D.quantile xs 0.25);
  close "q0.1 interp" 14.0 (D.quantile xs 0.1)

let test_quantile_unsorted_input () =
  let xs = [| 50.0; 10.0; 40.0; 20.0; 30.0 |] in
  close "median of unsorted" 30.0 (D.median xs)

let test_autocovariance_ar1 () =
  (* An AR(1) with coefficient rho has acf rho^k. *)
  let rng = Rng.create ~seed:20 in
  let rho = 0.7 in
  let n = 200_000 in
  let xs = Array.make n 0.0 in
  xs.(0) <- Rng.gaussian rng;
  for i = 1 to n - 1 do
    xs.(i) <- (rho *. xs.(i - 1)) +. (sqrt (1.0 -. (rho *. rho)) *. Rng.gaussian rng)
  done;
  let r = D.acf xs ~max_lag:5 in
  close "r(0)" 1.0 r.(0);
  close ~eps:0.02 "r(1)" rho r.(1);
  close ~eps:0.02 "r(2)" (rho ** 2.0) r.(2);
  close ~eps:0.02 "r(5)" (rho ** 5.0) r.(5)

let test_acf_matches_pointwise () =
  let rng = Rng.create ~seed:21 in
  let xs = Array.init 500 (fun _ -> Rng.float rng) in
  let r = D.acf xs ~max_lag:10 in
  for k = 0 to 10 do
    close ~eps:1e-12 (Printf.sprintf "acf lag %d" k) (D.autocorrelation xs k) r.(k)
  done

let test_acf_bad_lag () =
  raises_invalid "acf lag too big" (fun () -> D.acf [| 1.0; 2.0 |] ~max_lag:2);
  raises_invalid "autocov negative lag" (fun () -> D.autocovariance [| 1.0; 2.0 |] (-1))

let test_skewness_exponential () =
  let rng = Rng.create ~seed:22 in
  let xs = Array.init 200_000 (fun _ -> Rng.exponential rng ~rate:1.0) in
  close ~eps:0.1 "exponential skewness 2" 2.0 (D.skewness xs);
  close ~eps:0.5 "exponential excess kurtosis 6" 6.0 (D.kurtosis xs)

(* ------------------------------------------------------------------ *)
(* Histogram                                                           *)
(* ------------------------------------------------------------------ *)

let test_histogram_counts () =
  let h = Histogram.make ~bins:4 ~range:(0.0, 4.0) [| 0.5; 1.5; 1.6; 2.5; 3.5; 3.9 |] in
  Alcotest.(check int) "total" 6 h.Histogram.total;
  Alcotest.(check (list int)) "counts" [ 1; 2; 1; 2 ] (Array.to_list h.Histogram.counts)

let test_histogram_clamping () =
  let h = Histogram.make ~bins:2 ~range:(0.0, 2.0) [| -5.0; 0.5; 1.5; 99.0 |] in
  Alcotest.(check (list int)) "clamped counts" [ 2; 2 ] (Array.to_list h.Histogram.counts)

let test_histogram_frequencies_sum () =
  let rng = Rng.create ~seed:23 in
  let data = Array.init 1000 (fun _ -> Rng.gaussian rng) in
  let h = Histogram.make ~bins:17 data in
  let sum = ref 0.0 in
  for i = 0 to 16 do
    sum := !sum +. Histogram.frequency h i
  done;
  close ~eps:1e-12 "frequencies sum to 1" 1.0 !sum

let test_histogram_cdf_monotone () =
  let rng = Rng.create ~seed:24 in
  let data = Array.init 500 (fun _ -> Rng.float rng) in
  let h = Histogram.make ~bins:10 data in
  let cdf = Histogram.cdf h in
  for i = 1 to 9 do
    if cdf.(i) < cdf.(i - 1) -. 1e-12 then Alcotest.fail "histogram cdf not monotone"
  done;
  close ~eps:1e-12 "cdf ends at 1" 1.0 cdf.(9)

let test_histogram_bin_center_roundtrip () =
  let h = Histogram.make ~bins:5 ~range:(0.0, 10.0) [| 1.0 |] in
  for i = 0 to 4 do
    Alcotest.(check int) "bin of own center" i (Histogram.bin_of h (Histogram.bin_center h i))
  done

let test_histogram_mean_approximates () =
  let rng = Rng.create ~seed:25 in
  let data = Array.init 50_000 (fun _ -> Rng.gaussian_mv rng ~mean:7.0 ~std:2.0) in
  let h = Histogram.make ~bins:100 data in
  close ~eps:0.1 "histogram mean" 7.0 (Histogram.mean h)

let test_histogram_invalid () =
  raises_invalid "no bins" (fun () -> Histogram.make ~bins:0 [| 1.0 |]);
  raises_invalid "empty data" (fun () -> Histogram.make ~bins:3 [||]);
  raises_invalid "inverted range" (fun () -> Histogram.make ~bins:3 ~range:(2.0, 1.0) [| 1.0 |]);
  let h = Histogram.make ~bins:3 [| 1.0; 2.0 |] in
  raises_invalid "bin_center range" (fun () -> Histogram.bin_center h 3)

let test_histogram_constant_data () =
  let h = Histogram.make ~bins:4 (Array.make 10 5.0) in
  Alcotest.(check int) "all points binned" 10 h.Histogram.total

(* ------------------------------------------------------------------ *)
(* Empirical                                                           *)
(* ------------------------------------------------------------------ *)

let test_empirical_cdf_step () =
  let e = Empirical.of_data [| 1.0; 2.0; 3.0 |] in
  close "cdf below" 0.0 (Empirical.cdf e 0.5);
  close_rel ~eps:1e-12 "cdf at first" (1.0 /. 3.0) (Empirical.cdf e 1.0);
  close_rel ~eps:1e-12 "cdf mid" (2.0 /. 3.0) (Empirical.cdf e 2.5);
  close "cdf above" 1.0 (Empirical.cdf e 99.0)

let test_empirical_quantile_extremes () =
  let e = Empirical.of_data [| 5.0; 1.0; 3.0 |] in
  close "q(0) = min" 1.0 (Empirical.quantile e 0.0);
  close "q(1) = max" 5.0 (Empirical.quantile e 1.0);
  close "q(0.5) = median" 3.0 (Empirical.quantile e 0.5)

let test_empirical_quantile_monotone () =
  let rng = Rng.create ~seed:26 in
  let e = Empirical.of_data (Array.init 1000 (fun _ -> Rng.gaussian rng)) in
  let prev = ref neg_infinity in
  for i = 0 to 100 do
    let q = Empirical.quantile e (float_of_int i /. 100.0) in
    if q < !prev then Alcotest.fail "empirical quantile not monotone";
    prev := q
  done

let test_empirical_qq_identity () =
  let rng = Rng.create ~seed:27 in
  let data = Array.init 1000 (fun _ -> Rng.gaussian rng) in
  let e = Empirical.of_data data in
  List.iter
    (fun (a, b) -> close ~eps:1e-12 "qq against itself on diagonal" a b)
    (Empirical.qq e e ~n:25)

let test_empirical_ks_self_zero () =
  let rng = Rng.create ~seed:28 in
  let data = Array.init 500 (fun _ -> Rng.float rng) in
  let e = Empirical.of_data data in
  close "ks against self" 0.0 (Empirical.ks_distance e e)

let test_empirical_ks_detects_shift () =
  let rng = Rng.create ~seed:29 in
  let a = Empirical.of_data (Array.init 2000 (fun _ -> Rng.gaussian rng)) in
  let b = Empirical.of_data (Array.init 2000 (fun _ -> 3.0 +. Rng.gaussian rng)) in
  if Empirical.ks_distance a b < 0.5 then Alcotest.fail "KS blind to a 3-sigma shift"

let test_empirical_same_distribution_small_ks () =
  let rng = Rng.create ~seed:30 in
  let a = Empirical.of_data (Array.init 5000 (fun _ -> Rng.gaussian rng)) in
  let b = Empirical.of_data (Array.init 5000 (fun _ -> Rng.gaussian rng)) in
  if Empirical.ks_distance a b > 0.05 then Alcotest.fail "KS too large for same distribution"

(* ------------------------------------------------------------------ *)
(* Dist                                                                *)
(* ------------------------------------------------------------------ *)

let dist_cases =
  [
    ("uniform", Dist.uniform ~lo:(-1.0) ~hi:3.0);
    ("normal", Dist.normal ~mean:2.0 ~std:1.5);
    ("lognormal", Dist.lognormal ~mu:0.3 ~sigma:0.6);
    ("exponential", Dist.exponential ~rate:0.7);
    ("gamma", Dist.gamma ~shape:2.5 ~scale:1.2);
    ("gamma<1", Dist.gamma ~shape:0.5 ~scale:2.0);
    ("pareto", Dist.pareto ~shape:2.5 ~scale:1.0);
    ("weibull", Dist.weibull ~shape:1.7 ~scale:2.0);
    ("gamma_pareto", Dist.gamma_pareto ~shape:2.0 ~scale:1.0 ~cut:0.95);
  ]

let test_dist_quantile_cdf_roundtrip () =
  List.iter
    (fun (name, d) ->
      List.iter
        (fun p ->
          let x = d.Dist.quantile p in
          close ~eps:1e-6 (Printf.sprintf "%s cdf(q(%g))" name p) p (d.Dist.cdf x))
        [ 0.01; 0.1; 0.35; 0.5; 0.75; 0.9; 0.99; 0.999 ])
    dist_cases

let test_dist_quantile_monotone () =
  List.iter
    (fun (name, d) ->
      let prev = ref neg_infinity in
      for i = 1 to 99 do
        let q = d.Dist.quantile (float_of_int i /. 100.0) in
        if q < !prev then Alcotest.failf "%s quantile not monotone at %d%%" name i;
        prev := q
      done)
    dist_cases

let test_dist_pdf_integrates_to_one () =
  List.iter
    (fun (name, d) ->
      (* Integrate the density between far quantiles; should capture
         nearly all mass. *)
      let lo = d.Dist.quantile 1e-6 and hi = d.Dist.quantile (1.0 -. 1e-4) in
      let mass = Quad.simpson ~eps:1e-9 d.Dist.pdf ~lo ~hi in
      close ~eps:5e-3 (Printf.sprintf "%s pdf mass" name) 1.0 mass)
    dist_cases

let test_dist_sample_moments () =
  let n = 100_000 in
  List.iter
    (fun (name, d) ->
      if Float.is_finite d.Dist.mean && Float.is_finite d.Dist.variance then begin
        let rng = Rng.create ~seed:31 in
        let xs = Array.init n (fun _ -> d.Dist.sample rng) in
        let tol_mean = 0.05 *. Stdlib.max 1.0 (abs_float d.Dist.mean) in
        let tol_var = 0.15 *. Stdlib.max 1.0 d.Dist.variance in
        close ~eps:tol_mean (Printf.sprintf "%s sample mean" name) d.Dist.mean (D.mean xs);
        close ~eps:tol_var
          (Printf.sprintf "%s sample variance" name)
          d.Dist.variance (D.variance xs)
      end)
    dist_cases

let test_dist_gamma_known_cdf () =
  (* Gamma(1, s) is exponential. *)
  let d = Dist.gamma ~shape:1.0 ~scale:2.0 in
  List.iter
    (fun x -> close ~eps:1e-9 "gamma(1,2) cdf" (1.0 -. exp (-.x /. 2.0)) (d.Dist.cdf x))
    [ 0.5; 1.0; 4.0 ]

let test_dist_pareto_closed_forms () =
  let d = Dist.pareto ~shape:3.0 ~scale:2.0 in
  close_rel ~eps:1e-12 "pareto mean" 3.0 d.Dist.mean;
  close_rel ~eps:1e-12 "pareto q(0.875)" 4.0 (d.Dist.quantile 0.875);
  let d15 = Dist.pareto ~shape:1.5 ~scale:1.0 in
  Alcotest.(check bool) "pareto 1.5 infinite variance" true (d15.Dist.variance = infinity);
  let d05 = Dist.pareto ~shape:0.5 ~scale:1.0 in
  Alcotest.(check bool) "pareto 0.5 infinite mean" true (d05.Dist.mean = infinity)

let test_dist_gamma_pareto_continuity () =
  let d = Dist.gamma_pareto ~shape:2.0 ~scale:1.0 ~cut:0.9 in
  let xc = (Dist.gamma ~shape:2.0 ~scale:1.0).Dist.quantile 0.9 in
  let eps = 1e-6 in
  close ~eps:1e-4 "cdf continuous at crossover" (d.Dist.cdf (xc -. eps)) (d.Dist.cdf (xc +. eps));
  close ~eps:1e-3 "pdf continuous at crossover" (d.Dist.pdf (xc -. eps)) (d.Dist.pdf (xc +. eps))

let test_dist_gamma_pareto_tail_heavier () =
  (* Beyond the cut the hybrid survival must exceed the pure gamma's. *)
  let g = Dist.gamma ~shape:2.0 ~scale:1.0 in
  let d = Dist.gamma_pareto ~shape:2.0 ~scale:1.0 ~cut:0.9 in
  let x = g.Dist.quantile 0.999 in
  if 1.0 -. d.Dist.cdf x <= 1.0 -. g.Dist.cdf x then
    Alcotest.fail "hybrid tail not heavier than gamma"

let test_dist_empirical_wraps () =
  let data = [| 1.0; 2.0; 2.0; 3.0; 10.0 |] in
  let d = Dist.of_empirical (Empirical.of_data data) in
  close "empirical mean" (D.mean data) d.Dist.mean;
  close ~eps:1e-3 "empirical q(1-)" 10.0 (d.Dist.quantile 0.999999);
  close ~eps:1e-6 "empirical q(0+) -> min-ish" 1.0 (d.Dist.quantile 1e-9)

let test_dist_of_histogram () =
  let rng = Rng.create ~seed:36 in
  let data = Array.init 50_000 (fun _ -> Rng.gaussian_mv rng ~mean:10.0 ~std:2.0) in
  let d = Dist.of_histogram (Histogram.make ~bins:100 data) in
  (* Quantile/cdf consistency. *)
  List.iter
    (fun p -> close ~eps:1e-6 (Printf.sprintf "hist cdf(q(%g))" p) p (d.Dist.cdf (d.Dist.quantile p)))
    [ 0.05; 0.3; 0.5; 0.8; 0.99 ];
  (* Matches the data's statistics through the binned summary. *)
  close ~eps:0.1 "hist mean" 10.0 d.Dist.mean;
  close ~eps:0.3 "hist median" (D.median data) (d.Dist.quantile 0.5);
  close ~eps:0.5 "hist variance" 4.0 d.Dist.variance;
  (* Sampling respects the support. *)
  for _ = 1 to 1000 do
    let v = d.Dist.sample rng in
    if v < D.min data -. 0.5 || v > D.max data +. 0.5 then
      Alcotest.failf "histogram sample %g outside support" v
  done

let test_dist_of_histogram_quantile_monotone () =
  let rng = Rng.create ~seed:37 in
  let data = Array.init 2000 (fun _ -> Rng.exponential rng ~rate:0.3) in
  let d = Dist.of_histogram (Histogram.make ~bins:17 data) in
  let prev = ref neg_infinity in
  for i = 1 to 99 do
    let q = d.Dist.quantile (float_of_int i /. 100.0) in
    if q < !prev then Alcotest.fail "histogram quantile not monotone";
    prev := q
  done

let test_dist_truncate_below () =
  let d = Dist.truncate_below (Dist.normal ~mean:0.0 ~std:1.0) ~floor:0.0 in
  let rng = Rng.create ~seed:32 in
  for _ = 1 to 1000 do
    if d.Dist.sample rng < 0.0 then Alcotest.fail "truncated sample below floor"
  done;
  close ~eps:1e-9 "quantile clamped" 0.0 (d.Dist.quantile 0.2);
  (* E[max(Z,0)] = 1/sqrt(2 pi) *)
  close ~eps:1e-3 "truncated mean" (1.0 /. sqrt (2.0 *. Float.pi)) d.Dist.mean

let test_dist_invalid_parameters () =
  raises_invalid "uniform" (fun () -> Dist.uniform ~lo:1.0 ~hi:1.0);
  raises_invalid "normal" (fun () -> Dist.normal ~mean:0.0 ~std:0.0);
  raises_invalid "gamma" (fun () -> Dist.gamma ~shape:(-1.0) ~scale:1.0);
  raises_invalid "pareto" (fun () -> Dist.pareto ~shape:1.0 ~scale:0.0);
  raises_invalid "gp cut" (fun () -> Dist.gamma_pareto ~shape:1.0 ~scale:1.0 ~cut:1.0);
  let d = Dist.normal ~mean:0.0 ~std:1.0 in
  raises_invalid "quantile 0" (fun () -> d.Dist.quantile 0.0)

(* ------------------------------------------------------------------ *)
(* Regression                                                          *)
(* ------------------------------------------------------------------ *)

let test_ols_exact_line () =
  let pts = List.init 10 (fun i -> (float_of_int i, 3.0 +. (2.0 *. float_of_int i))) in
  let f = Reg.ols pts in
  close ~eps:1e-12 "slope" 2.0 f.Reg.slope;
  close ~eps:1e-12 "intercept" 3.0 f.Reg.intercept;
  close ~eps:1e-12 "r2" 1.0 f.Reg.r2

let test_ols_noisy_line () =
  let rng = Rng.create ~seed:33 in
  let pts =
    List.init 2000 (fun i ->
        let x = float_of_int i /. 100.0 in
        (x, 1.0 -. (0.5 *. x) +. (0.1 *. Rng.gaussian rng)))
  in
  let f = Reg.ols pts in
  close ~eps:0.01 "noisy slope" (-0.5) f.Reg.slope;
  close ~eps:0.02 "noisy intercept" 1.0 f.Reg.intercept;
  if f.Reg.r2 < 0.9 then Alcotest.failf "noisy fit r2 too low: %g" f.Reg.r2

let test_wols_downweights () =
  (* A wild outlier with near-zero weight must not disturb the fit. *)
  let pts = List.init 10 (fun i -> (float_of_int i, float_of_int i, 1.0)) in
  let f = Reg.wols ((5.0, 1000.0, 1e-12) :: pts) in
  close ~eps:1e-6 "wols slope ignores weightless outlier" 1.0 f.Reg.slope

let test_ols_through_origin () =
  let pts = List.init 10 (fun i -> (float_of_int (i + 1), 4.0 *. float_of_int (i + 1))) in
  let f = Reg.ols_through_origin pts in
  close ~eps:1e-12 "origin slope" 4.0 f.Reg.slope;
  close "origin intercept" 0.0 f.Reg.intercept

let test_regression_predict () =
  let f = Reg.ols [ (0.0, 1.0); (1.0, 3.0) ] in
  close ~eps:1e-12 "predict" 5.0 (Reg.predict f 2.0)

let test_regression_invalid () =
  raises_invalid "one point" (fun () -> Reg.ols [ (1.0, 1.0) ]);
  raises_invalid "degenerate x" (fun () -> Reg.ols [ (1.0, 1.0); (1.0, 2.0) ]);
  raises_invalid "bad weight" (fun () -> Reg.wols [ (0.0, 0.0, 0.0); (1.0, 1.0, 1.0) ])

(* ------------------------------------------------------------------ *)
(* Quadrature                                                          *)
(* ------------------------------------------------------------------ *)

let test_hermite_polynomial_exactness () =
  (* n-point rule integrates monomials up to degree 2n-1 exactly:
     E[Z^k] = 0 (odd), (k-1)!! (even). *)
  let moments = [ (0, 1.0); (1, 0.0); (2, 1.0); (3, 0.0); (4, 3.0); (6, 15.0); (8, 105.0) ] in
  List.iter
    (fun (k, expected) ->
      let v = Quad.gaussian_expectation ~n:20 (fun x -> x ** float_of_int k) in
      close ~eps:1e-8 (Printf.sprintf "E[Z^%d]" k) expected v)
    moments

let test_hermite_weights_sum () =
  List.iter
    (fun n ->
      let nodes = Quad.hermite_nodes ~n in
      let sum = Array.fold_left (fun a (_, w) -> a +. w) 0.0 nodes in
      close ~eps:1e-10 (Printf.sprintf "weights sum n=%d" n) 1.0 sum)
    [ 1; 2; 5; 16; 64; 128 ]

let test_hermite_nodes_symmetric () =
  let nodes = Quad.hermite_nodes ~n:31 in
  let sum = Array.fold_left (fun a (x, w) -> a +. (w *. x)) 0.0 nodes in
  close ~eps:1e-12 "odd moment vanishes" 0.0 sum

let test_hermite_gaussian_expectation_nonpoly () =
  (* E[e^Z] = e^{1/2} *)
  close ~eps:1e-10 "E[e^Z]" (exp 0.5) (Quad.gaussian_expectation exp);
  (* E[Phi(Z)] = 1/2 by symmetry *)
  close ~eps:1e-10 "E[Phi(Z)]" 0.5 (Quad.gaussian_expectation Special.normal_cdf)

let test_hermite_nodes_domain_safe () =
  (* Node counts no other test asks for, so the four domains race cold
     inserts, and the table's resizes, on the shared cache. Each walks
     the counts from a different start. *)
  let counts = List.init 32 (fun i -> 200 + i) in
  let bits nodes =
    Array.map (fun (x, w) -> (Int64.bits_of_float x, Int64.bits_of_float w)) nodes
  in
  let walk d =
    let late, early = List.partition (fun n -> n - 200 >= 8 * d) counts in
    List.map (fun n -> (n, bits (Quad.hermite_nodes ~n))) (late @ early)
  in
  let domains = List.init 4 (fun d -> Domain.spawn (fun () -> walk d)) in
  List.iteri
    (fun d got ->
      List.iter
        (fun (n, b) ->
          if Array.length b <> n || b <> bits (Quad.hermite_nodes ~n) then
            Alcotest.failf "domain %d, n=%d: nodes differ from the sequential call" d n)
        got)
    (List.map Domain.join domains)

let test_hermite_invalid () =
  raises_invalid "n = 0" (fun () -> Quad.hermite_nodes ~n:0);
  raises_invalid "n too big" (fun () -> Quad.hermite_nodes ~n:257)

let test_simpson_polynomial () =
  let v = Quad.simpson (fun x -> x *. x) ~lo:0.0 ~hi:3.0 in
  close ~eps:1e-9 "int x^2" 9.0 v

let test_simpson_trig () =
  let v = Quad.simpson sin ~lo:0.0 ~hi:Float.pi in
  close ~eps:1e-9 "int sin" 2.0 v

let test_simpson_empty_interval () =
  close "zero-width" 0.0 (Quad.simpson exp ~lo:1.0 ~hi:1.0);
  raises_invalid "inverted" (fun () -> Quad.simpson exp ~lo:1.0 ~hi:0.0)

(* ------------------------------------------------------------------ *)
(* Timeseries                                                          *)
(* ------------------------------------------------------------------ *)

let test_aggregate_blocks () =
  let xs = [| 1.0; 3.0; 5.0; 7.0; 9.0 |] in
  Alcotest.(check (list (float 1e-12)))
    "aggregate m=2" [ 2.0; 6.0 ]
    (Array.to_list (Ts.aggregate xs ~m:2));
  Alcotest.(check (list (float 1e-12)))
    "aggregate m=5" [ 5.0 ]
    (Array.to_list (Ts.aggregate xs ~m:5));
  Alcotest.(check int) "aggregate m>n empty" 0 (Array.length (Ts.aggregate xs ~m:6))

let test_aggregate_preserves_mean () =
  let rng = Rng.create ~seed:34 in
  let xs = Array.init 10_000 (fun _ -> Rng.float rng) in
  let agg = Ts.aggregate xs ~m:10 in
  close ~eps:1e-12 "aggregation preserves mean" (D.mean xs) (D.mean agg)

let test_subsample () =
  let xs = [| 0.0; 1.0; 2.0; 3.0; 4.0; 5.0; 6.0 |] in
  Alcotest.(check (list (float 1e-12)))
    "every 3" [ 0.0; 3.0; 6.0 ]
    (Array.to_list (Ts.subsample xs ~every:3))

let test_differenced () =
  Alcotest.(check (list (float 1e-12)))
    "diffs" [ 1.0; 2.0; -3.0 ]
    (Array.to_list (Ts.differenced [| 0.0; 1.0; 3.0; 0.0 |]));
  raises_invalid "too short" (fun () -> Ts.differenced [| 1.0 |])

let test_standardize () =
  let xs = [| 2.0; 4.0; 6.0 |] in
  let z = Ts.standardize xs in
  close ~eps:1e-12 "standardized mean" 0.0 (D.mean z);
  close ~eps:1e-12 "standardized var" 1.0 (D.variance z);
  raises_invalid "constant" (fun () -> Ts.standardize (Array.make 4 1.0))

let test_acf_points_skips_lag0 () =
  let rng = Rng.create ~seed:35 in
  let xs = Array.init 200 (fun _ -> Rng.float rng) in
  let pts = Ts.acf_points xs ~max_lag:5 in
  Alcotest.(check int) "5 points" 5 (List.length pts);
  Alcotest.(check int) "first lag is 1" 1 (fst (List.hd pts))

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                   *)
(* ------------------------------------------------------------------ *)

let nonempty_floats =
  QCheck.(array_of_size Gen.(int_range 1 200) (float_range (-1000.0) 1000.0))

let prop_mean_bounded =
  QCheck.Test.make ~name:"mean lies within [min,max]" ~count:200 nonempty_floats (fun xs ->
      let m = D.mean xs in
      m >= D.min xs -. 1e-9 && m <= D.max xs +. 1e-9)

let prop_variance_nonneg =
  QCheck.Test.make ~name:"variance is nonnegative" ~count:200 nonempty_floats (fun xs ->
      D.variance xs >= -1e-9)

let prop_quantile_monotone =
  QCheck.Test.make ~name:"quantiles are monotone in p" ~count:200
    QCheck.(pair nonempty_floats (pair (float_bound_inclusive 1.0) (float_bound_inclusive 1.0)))
    (fun (xs, (p1, p2)) ->
      let lo = Stdlib.min p1 p2 and hi = Stdlib.max p1 p2 in
      D.quantile xs lo <= D.quantile xs hi +. 1e-9)

let prop_acf_bounded =
  QCheck.Test.make ~name:"autocorrelation lies in [-1,1]" ~count:200
    QCheck.(array_of_size Gen.(int_range 3 100) (float_range (-100.0) 100.0))
    (fun xs ->
      let r = D.acf xs ~max_lag:(Array.length xs - 1) in
      Array.for_all (fun v -> v >= -1.0 -. 1e-6 && v <= 1.0 +. 1e-6) r)

let prop_histogram_total =
  QCheck.Test.make ~name:"histogram bins every point" ~count:200
    QCheck.(pair nonempty_floats (int_range 1 50))
    (fun (xs, bins) ->
      let h = Histogram.make ~bins xs in
      h.Histogram.total = Array.length xs
      && Array.fold_left ( + ) 0 h.Histogram.counts = Array.length xs)

let prop_empirical_cdf_monotone =
  QCheck.Test.make ~name:"ECDF is monotone" ~count:200
    QCheck.(pair nonempty_floats (pair (float_range (-2000.0) 2000.0) (float_range (-2000.0) 2000.0)))
    (fun (xs, (a, b)) ->
      let e = Empirical.of_data xs in
      let lo = Stdlib.min a b and hi = Stdlib.max a b in
      Empirical.cdf e lo <= Empirical.cdf e hi +. 1e-12)

let prop_normal_quantile_inverse =
  QCheck.Test.make ~name:"normal quantile inverts cdf" ~count:500
    QCheck.(float_range (-5.0) 5.0)
    (fun x ->
      let p = Special.normal_cdf x in
      if p <= 0.0 || p >= 1.0 then true
      else abs_float (Special.normal_quantile p -. x) < 1e-6)

let prop_rng_split_deterministic =
  QCheck.Test.make ~name:"split is deterministic in the seed" ~count:100 QCheck.int
    (fun seed ->
      let a = Rng.split (Rng.create ~seed) in
      let b = Rng.split (Rng.create ~seed) in
      Int64.equal (Rng.bits64 a) (Rng.bits64 b))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_mean_bounded;
      prop_variance_nonneg;
      prop_quantile_monotone;
      prop_acf_bounded;
      prop_histogram_total;
      prop_empirical_cdf_monotone;
      prop_normal_quantile_inverse;
      prop_rng_split_deterministic;
    ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "ss_stats"
    [
      ( "rng",
        [
          tc "determinism" test_rng_determinism;
          tc "seed sensitivity" test_rng_seed_sensitivity;
          tc "copy independence" test_rng_copy_independent;
          tc "float bounds" test_rng_float_range_bounds;
          tc "float moments" test_rng_float_moments;
          tc "gaussian moments" test_rng_gaussian_moments;
          tc "gaussian tail" test_rng_gaussian_tail;
          tc "fill_gaussian = gaussian" test_rng_fill_gaussian_matches_gaussian;
          tc "golden stream" test_rng_golden_stream;
          tc "fill_gaussian allocates nothing" test_rng_fill_gaussian_no_alloc;
          tc "int_range uniform" test_rng_int_range;
          tc "int_range singleton" test_rng_int_range_singleton;
          tc "split independence" test_rng_split_independence;
          tc "exponential mean" test_rng_exponential_mean;
          tc "pareto support/median" test_rng_pareto_support_and_median;
          tc "invalid arguments" test_rng_invalid_args;
        ] );
      ( "special",
        [
          tc "erf reference" test_erf_reference_values;
          tc "erfc reference" test_erfc_reference_values;
          tc "erf/erfc complement" test_erf_erfc_complementarity;
          tc "log_gamma factorials" test_log_gamma_factorials;
          tc "log_gamma half" test_log_gamma_half;
          tc "gamma_p reference" test_gamma_p_reference;
          tc "gamma P+Q" test_gamma_p_q_complementarity;
          tc "normal cdf symmetry" test_normal_cdf_symmetry;
          tc "normal cdf relaxed" test_normal_cdf_relaxed_accuracy;
          tc "normal_cdf_into = normal_cdf, bitwise" test_normal_cdf_into_bitwise;
          tc "block CDFs allocate nothing" test_normal_cdf_into_no_alloc;
          tc "normal quantile roundtrip" test_normal_quantile_roundtrip;
          tc "normal quantile known" test_normal_quantile_known;
          tc "log normal pdf" test_log_normal_pdf;
        ] );
      ( "descriptive",
        [
          tc "basics" test_descriptive_basics;
          tc "constant data" test_descriptive_constant;
          tc "empty input" test_descriptive_empty;
          tc "quantile interpolation" test_quantile_interpolation;
          tc "quantile unsorted" test_quantile_unsorted_input;
          tc "AR(1) autocovariance" test_autocovariance_ar1;
          tc "acf matches pointwise" test_acf_matches_pointwise;
          tc "acf bad lag" test_acf_bad_lag;
          tc "exponential skew/kurtosis" test_skewness_exponential;
        ] );
      ( "histogram",
        [
          tc "counts" test_histogram_counts;
          tc "clamping" test_histogram_clamping;
          tc "frequencies sum" test_histogram_frequencies_sum;
          tc "cdf monotone" test_histogram_cdf_monotone;
          tc "bin center roundtrip" test_histogram_bin_center_roundtrip;
          tc "mean approximates" test_histogram_mean_approximates;
          tc "invalid" test_histogram_invalid;
          tc "constant data" test_histogram_constant_data;
        ] );
      ( "empirical",
        [
          tc "cdf step" test_empirical_cdf_step;
          tc "quantile extremes" test_empirical_quantile_extremes;
          tc "quantile monotone" test_empirical_quantile_monotone;
          tc "qq identity" test_empirical_qq_identity;
          tc "ks self" test_empirical_ks_self_zero;
          tc "ks detects shift" test_empirical_ks_detects_shift;
          tc "ks same distribution" test_empirical_same_distribution_small_ks;
          tc "quantile_into = quantile, bitwise" test_empirical_quantile_into;
        ] );
      ( "dist",
        [
          tc "quantile/cdf roundtrip" test_dist_quantile_cdf_roundtrip;
          tc "quantile monotone" test_dist_quantile_monotone;
          tc "pdf integrates to 1" test_dist_pdf_integrates_to_one;
          tc "sample moments" test_dist_sample_moments;
          tc "gamma(1,s) = exponential" test_dist_gamma_known_cdf;
          tc "pareto closed forms" test_dist_pareto_closed_forms;
          tc "gamma/pareto continuity" test_dist_gamma_pareto_continuity;
          tc "gamma/pareto heavier tail" test_dist_gamma_pareto_tail_heavier;
          tc "empirical wrapper" test_dist_empirical_wraps;
          tc "histogram inversion" test_dist_of_histogram;
          tc "histogram quantile monotone" test_dist_of_histogram_quantile_monotone;
          tc "truncate below" test_dist_truncate_below;
          tc "invalid parameters" test_dist_invalid_parameters;
        ] );
      ( "regression",
        [
          tc "exact line" test_ols_exact_line;
          tc "noisy line" test_ols_noisy_line;
          tc "weighted outlier" test_wols_downweights;
          tc "through origin" test_ols_through_origin;
          tc "predict" test_regression_predict;
          tc "invalid" test_regression_invalid;
        ] );
      ( "quadrature",
        [
          tc "hermite polynomial exactness" test_hermite_polynomial_exactness;
          tc "hermite weights sum" test_hermite_weights_sum;
          tc "hermite symmetry" test_hermite_nodes_symmetric;
          tc "non-polynomial expectations" test_hermite_gaussian_expectation_nonpoly;
          tc "hermite invalid" test_hermite_invalid;
          tc "hermite nodes across domains" test_hermite_nodes_domain_safe;
          tc "simpson polynomial" test_simpson_polynomial;
          tc "simpson trig" test_simpson_trig;
          tc "simpson empty" test_simpson_empty_interval;
        ] );
      ( "timeseries",
        [
          tc "aggregate blocks" test_aggregate_blocks;
          tc "aggregate preserves mean" test_aggregate_preserves_mean;
          tc "subsample" test_subsample;
          tc "differenced" test_differenced;
          tc "standardize" test_standardize;
          tc "acf points" test_acf_points_skips_lag0;
        ] );
      ("properties", qcheck_cases);
    ]
