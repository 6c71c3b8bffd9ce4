(* Tests for ss_fractal: autocorrelation models, Hosking and
   Davies-Harte generation, Hurst estimation, the marginal transform
   with its attenuation theory, and the composite ACF fit. *)

module Rng = Ss_stats.Rng
module D = Ss_stats.Descriptive
module Dist = Ss_stats.Dist
module Acf = Ss_fractal.Acf
module Hosking = Ss_fractal.Hosking
module DH = Ss_fractal.Davies_harte
module Hurst = Ss_fractal.Hurst
module Transform = Ss_fractal.Transform
module Acf_fit = Ss_fractal.Acf_fit

let close ?(eps = 1e-9) msg expected actual =
  if abs_float (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let raises_invalid msg f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" msg

(* ------------------------------------------------------------------ *)
(* Acf models                                                           *)
(* ------------------------------------------------------------------ *)

let test_acf_lag_zero_is_one () =
  List.iter
    (fun (name, acf) -> close (name ^ " r(0)") 1.0 (acf.Acf.r 0))
    [
      ("white", Acf.white_noise);
      ("exp", Acf.exponential ~lambda:0.1);
      ("power", Acf.power_law ~l:0.9 ~beta:0.3);
      ("fgn", Acf.fgn ~h:0.8);
      ("farima", Acf.farima ~d:0.3);
      ("composite", Acf.composite ~knee:60 ~lambda:0.005 ~l:1.5 ~beta:0.2);
    ]

let test_acf_white_noise () =
  let acf = Acf.white_noise in
  for k = 1 to 10 do
    close "white noise r(k)" 0.0 (acf.Acf.r k)
  done

let test_acf_fgn_values () =
  (* Closed form check: H = 0.5 gives white noise. *)
  let half = Acf.fgn ~h:0.5 in
  for k = 1 to 5 do
    close ~eps:1e-12 "fgn H=0.5 is white" 0.0 (half.Acf.r k)
  done;
  (* H = 0.75: r(1) = (2^1.5 - 2)/2 *)
  let acf = Acf.fgn ~h:0.75 in
  close ~eps:1e-12 "fgn r(1)" (((2.0 ** 1.5) -. 2.0) /. 2.0) (acf.Acf.r 1)

let test_acf_fgn_tail_exponent () =
  (* r(k) ~ H(2H-1) k^{2H-2}: the log-log slope between far lags must
     approach 2H - 2. *)
  let h = 0.9 in
  let acf = Acf.fgn ~h in
  let slope =
    log (acf.Acf.r 4000 /. acf.Acf.r 1000) /. log 4.0
  in
  close ~eps:1e-3 "fgn tail exponent" ((2.0 *. h) -. 2.0) slope

let test_acf_farima_recursion () =
  (* r(1) = d / (1 - d). *)
  let d = 0.3 in
  let acf = Acf.farima ~d in
  close ~eps:1e-12 "farima r(1)" (d /. (1.0 -. d)) (acf.Acf.r 1);
  (* r(2) = r(1) (1+d)/(2-d) *)
  close ~eps:1e-12 "farima r(2)" (d /. (1.0 -. d) *. (1.0 +. d) /. (2.0 -. d)) (acf.Acf.r 2)

let test_acf_farima_tail_exponent () =
  (* FARIMA(0,d,0) has H = d + 1/2, tail exponent 2H - 2 = 2d - 1. *)
  let d = 0.4 in
  let acf = Acf.farima ~d in
  let slope = log (acf.Acf.r 4000 /. acf.Acf.r 1000) /. log 4.0 in
  close ~eps:5e-3 "farima tail exponent" ((2.0 *. d) -. 1.0) slope

let test_acf_composite_pieces () =
  let acf = Acf.composite ~knee:60 ~lambda:0.00565 ~l:1.59 ~beta:0.2 in
  (* Below the knee: exponential. *)
  close ~eps:1e-12 "composite srd" (exp (-0.00565 *. 30.0)) (acf.Acf.r 30);
  (* At and beyond: power law (paper Eq 13 values). *)
  close ~eps:1e-12 "composite lrd" (1.59 *. (100.0 ** -0.2)) (acf.Acf.r 100);
  close ~eps:1e-12 "composite at knee" (1.59 *. (60.0 ** -0.2)) (acf.Acf.r 60)

let test_acf_composite_clamped () =
  (* l k^-beta > 1 for small k must clamp to 1, keeping a valid
     correlation. *)
  let acf = Acf.composite ~knee:2 ~lambda:0.1 ~l:1.59 ~beta:0.2 in
  close "clamp to 1" 1.0 (acf.Acf.r 2)

let test_acf_lag_rescale () =
  let base = Acf.exponential ~lambda:0.1 in
  let scaled = Acf.lag_rescale base ~period:12 in
  (* At multiples of the period, exact base values. *)
  close ~eps:1e-12 "rescale k=12" (base.Acf.r 1) (scaled.Acf.r 12);
  close ~eps:1e-12 "rescale k=24" (base.Acf.r 2) (scaled.Acf.r 24);
  (* In between: linear interpolation. *)
  let expected = ((base.Acf.r 0 *. 6.0) +. (base.Acf.r 1 *. 6.0)) /. 12.0 in
  close ~eps:1e-12 "rescale k=6 interpolates" expected (scaled.Acf.r 6)

let test_acf_hurst_recovery () =
  (match Acf.hurst (Acf.fgn ~h:0.85) with
  | Some h -> close ~eps:0.01 "hurst of fgn" 0.85 h
  | None -> Alcotest.fail "no hurst for fgn");
  (match Acf.hurst (Acf.power_law ~l:0.8 ~beta:0.3) with
  | Some h -> close ~eps:0.01 "hurst of power law" 0.85 h
  | None -> Alcotest.fail "no hurst for power law");
  (match Acf.hurst (Acf.exponential ~lambda:0.01) with
  | Some _ -> Alcotest.fail "exponential should have no hurst"
  | None -> ())

let test_acf_to_array () =
  let acf = Acf.exponential ~lambda:0.5 in
  let a = Acf.to_array acf ~n:4 in
  Alcotest.(check int) "length" 4 (Array.length a);
  close "a.(0)" 1.0 a.(0);
  close ~eps:1e-12 "a.(3)" (exp (-1.5)) a.(3)

let test_acf_invalid () =
  raises_invalid "fgn h=1" (fun () -> Acf.fgn ~h:1.0);
  raises_invalid "farima d=0.5" (fun () -> Acf.farima ~d:0.5);
  raises_invalid "power beta" (fun () -> Acf.power_law ~l:1.0 ~beta:1.0);
  raises_invalid "composite knee" (fun () -> Acf.composite ~knee:0 ~lambda:0.1 ~l:1.0 ~beta:0.2);
  raises_invalid "rescale period" (fun () -> Acf.lag_rescale Acf.white_noise ~period:0);
  raises_invalid "negative lag" (fun () -> (Acf.fgn ~h:0.7).Acf.r (-1))

(* ------------------------------------------------------------------ *)
(* Hosking generation                                                   *)
(* ------------------------------------------------------------------ *)

let sample_acf_of_gen gen ~n ~max_lag ~seed =
  let x = gen (Rng.create ~seed) n in
  (x, D.acf x ~max_lag)

let test_hosking_white_noise () =
  let x, r =
    sample_acf_of_gen
      (fun rng n -> Hosking.generate_stream ~acf:Acf.white_noise ~n rng)
      ~n:50_000 ~max_lag:5 ~seed:1
  in
  close ~eps:0.02 "mean" 0.0 (D.mean x);
  close ~eps:0.03 "variance" 1.0 (D.variance x);
  for k = 1 to 5 do
    close ~eps:0.02 (Printf.sprintf "white r(%d)" k) 0.0 r.(k)
  done

let test_hosking_ar1_structure () =
  (* The exponential ACF corresponds to an AR(1); Durbin-Levinson must
     find phi_{k,1} = rho and phi_{k,j} = 0 otherwise. *)
  let lambda = 0.5 in
  let rho = exp (-.lambda) in
  let table = Hosking.Table.make ~acf:(Acf.exponential ~lambda) ~n:10 in
  let xs = [| 2.0; 1.0; 0.5; -0.3; 0.2; 0.0; 0.0; 0.0; 0.0; 0.0 |] in
  for k = 1 to 5 do
    close ~eps:1e-10
      (Printf.sprintf "AR(1) cond mean at %d" k)
      (rho *. xs.(k - 1))
      (Hosking.Table.cond_mean table xs k)
  done;
  close ~eps:1e-10 "AR(1) v_1" (1.0 -. (rho *. rho)) (Hosking.Table.cond_var table 1);
  close ~eps:1e-10 "AR(1) v_5" (1.0 -. (rho *. rho)) (Hosking.Table.cond_var table 5)

let test_hosking_cond_var_decreasing () =
  let table = Hosking.Table.make ~acf:(Acf.fgn ~h:0.9) ~n:100 in
  let prev = ref 1.0 in
  for k = 1 to 99 do
    let v = Hosking.Table.cond_var table k in
    if v > !prev +. 1e-12 then Alcotest.failf "conditional variance rose at %d" k;
    if v <= 0.0 then Alcotest.failf "conditional variance nonpositive at %d" k;
    prev := v
  done

let test_hosking_fgn_sample_acf () =
  let acf = Acf.fgn ~h:0.8 in
  let _, r =
    sample_acf_of_gen
      (fun rng n -> Hosking.generate_stream ~acf ~n rng)
      ~n:16_000 ~max_lag:10 ~seed:2
  in
  close ~eps:0.03 "fgn r(1)" (acf.Acf.r 1) r.(1);
  close ~eps:0.04 "fgn r(5)" (acf.Acf.r 5) r.(5)

let test_hosking_table_vs_stream_distribution () =
  (* Table-driven and streaming generation realize the same law:
     identical conditional coefficients mean identical paths under
     the same innovations stream. *)
  let acf = Acf.fgn ~h:0.75 in
  let table = Hosking.Table.make ~acf ~n:500 in
  let a = Hosking.generate table (Rng.create ~seed:3) in
  let b = Hosking.generate_stream ~acf ~n:500 (Rng.create ~seed:3) in
  Array.iteri (fun i v -> close ~eps:1e-9 (Printf.sprintf "path[%d]" i) v a.(i)) b

let test_hosking_generate_into_reuse () =
  let table = Hosking.Table.make ~acf:(Acf.fgn ~h:0.7) ~n:100 in
  let buf = Array.make 50 nan in
  Hosking.generate_into table (Rng.create ~seed:4) buf;
  Array.iter (fun v -> if Float.is_nan v then Alcotest.fail "buffer not filled") buf;
  raises_invalid "buffer too long" (fun () ->
      Hosking.generate_into table (Rng.create ~seed:4) (Array.make 101 0.0))

let test_hosking_row_sum () =
  let table = Hosking.Table.make ~acf:(Acf.exponential ~lambda:0.5) ~n:10 in
  close "row_sum 0" 0.0 (Hosking.Table.row_sum table 0);
  (* AR(1): the only coefficient is rho. *)
  close ~eps:1e-10 "row_sum k" (exp (-0.5)) (Hosking.Table.row_sum table 5);
  (* Consistency with cond_mean on an all-ones past. *)
  let table2 = Hosking.Table.make ~acf:(Acf.fgn ~h:0.85) ~n:50 in
  let ones = Array.make 50 1.0 in
  for k = 1 to 49 do
    close ~eps:1e-10
      (Printf.sprintf "row_sum consistency %d" k)
      (Hosking.Table.cond_mean table2 ones k)
      (Hosking.Table.row_sum table2 k)
  done

let test_hosking_invalid () =
  raises_invalid "n = 0" (fun () -> Hosking.Table.make ~acf:Acf.white_noise ~n:0);
  raises_invalid "n too big" (fun () -> Hosking.Table.make ~acf:Acf.white_noise ~n:100_000);
  let table = Hosking.Table.make ~acf:Acf.white_noise ~n:5 in
  raises_invalid "cond_var out of range" (fun () -> Hosking.Table.cond_var table 5);
  (* A non-positive-definite "autocorrelation" must be rejected:
     r(1) = 0.99 with r(2) = 0 is impossible (phi_22 = -49). *)
  let bogus =
    { Acf.name = "bogus"; r = (fun k -> if k = 0 then 1.0 else if k = 1 then 0.99 else 0.0) }
  in
  raises_invalid "non-PD autocorrelation" (fun () ->
      ignore (Hosking.Table.make ~acf:bogus ~n:50))

let test_hosking_truncated_prefix_exact () =
  let acf = Acf.fgn ~h:0.8 in
  let exact = Hosking.generate_stream ~acf ~n:30 (Rng.create ~seed:5) in
  let truncated = Hosking.generate_truncated ~acf ~n:30 ~max_order:40 (Rng.create ~seed:5) in
  Array.iteri
    (fun i v -> close ~eps:1e-9 (Printf.sprintf "prefix[%d]" i) exact.(i) v)
    truncated

let test_hosking_truncated_acf_close () =
  let acf = Acf.fgn ~h:0.8 in
  let x = Hosking.generate_truncated ~acf ~n:20_000 ~max_order:50 (Rng.create ~seed:6) in
  let r = D.acf x ~max_lag:5 in
  close ~eps:0.04 "truncated r(1)" (acf.Acf.r 1) r.(1);
  close ~eps:0.02 "truncated variance" 1.0 (D.variance x)

let test_hosking_block_matches_truncated () =
  (* The cache-blocked ring kernel is the same process as
     generate_truncated with a frozen AR(order) filter: identical
     Durbin-Levinson rows, identical innovation sequence (batched
     through Rng.fill_gaussian), so the outputs are bit-identical —
     and independent of how the fills are chunked. *)
  let acf = Acf.fgn ~h:0.85 in
  let order = 32 in
  let n = 200 in
  let expect = Hosking.generate_truncated ~acf ~n ~max_order:order (Rng.create ~seed:21) in
  let table = Hosking.Table.make ~acf ~n:(order + 1) in
  let one = Array.make n 0.0 in
  let b1 = Hosking.Block.create ~table ~order () in
  Hosking.Block.fill b1 (Rng.create ~seed:21) one ~off:0 ~len:n;
  let two = Array.make n 0.0 in
  let b2 = Hosking.Block.create ~table ~order () in
  let rng = Rng.create ~seed:21 in
  let off = ref 0 in
  List.iter
    (fun len ->
      Hosking.Block.fill b2 rng two ~off:!off ~len;
      off := !off + len)
    [ 1; 7; 64; 3; 125 ];
  Alcotest.(check int) "generated count" n (Hosking.Block.generated b2);
  for i = 0 to n - 1 do
    if Int64.bits_of_float one.(i) <> Int64.bits_of_float expect.(i) then
      Alcotest.failf "slot %d: block differs from generate_truncated" i;
    if Int64.bits_of_float two.(i) <> Int64.bits_of_float expect.(i) then
      Alcotest.failf "slot %d: chunked fill differs" i
  done;
  raises_invalid "range outside buffer" (fun () ->
      Hosking.Block.fill b2 rng two ~off:(n - 1) ~len:2);
  raises_invalid "order outside table" (fun () ->
      Hosking.Block.create ~table ~order:(order + 1) ())

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let block_bytes b =
  let w = Ss_checkpoint.W.create () in
  Hosking.Block.save b w;
  Ss_checkpoint.W.contents w

let test_hosking_block_rewind () =
  (* After 1000 slots, a rewind onto substream s fills what a fresh
     generator fills on s, and leaves a fresh generator's state
     (checkpoint bytes included). [deviates] are the draws of the last
     fill. The fft kernel refuses both by name. *)
  let acf = Acf.fgn ~h:0.85 in
  let order = 32 and n = 300 in
  let table = Hosking.Table.make ~acf ~n:(order + 1) in
  let used = Hosking.Block.create ~table ~order () in
  Hosking.Block.fill used (Rng.create ~seed:22) (Array.make 1000 0.0) ~off:0 ~len:1000;
  Hosking.Block.rewind used;
  let fresh = Hosking.Block.create ~table ~order () in
  if block_bytes used <> block_bytes fresh then Alcotest.fail "rewound state is not a fresh one";
  let s = Rng.create ~seed:23 in
  let a = Array.make n 0.0 and b = Array.make n 0.0 in
  Hosking.Block.fill used (Rng.copy s) a ~off:0 ~len:n;
  Hosking.Block.fill fresh (Rng.copy s) b ~off:0 ~len:n;
  Alcotest.(check int) "position" n (Hosking.Block.generated used);
  for i = 0 to n - 1 do
    if not (Int64.equal (Int64.bits_of_float a.(i)) (Int64.bits_of_float b.(i))) then
      Alcotest.failf "slot %d: rewound generator differs from a fresh one" i
  done;
  let g = Array.make n 0.0 in
  Rng.fill_gaussian (Rng.copy s) g ~off:0 ~len:n;
  let d = Hosking.Block.deviates used in
  for i = 0 to n - 1 do
    if not (Int64.equal (Int64.bits_of_float g.(i)) (Int64.bits_of_float d.(i))) then
      Alcotest.failf "deviate %d is not the fill's draw" i
  done;
  let fft =
    Hosking.Block.create ~fft_plan:(Hosking.Fft_plan.make ~table ~order) ~table ~order ()
  in
  let refused what f =
    match f () with
    | exception Invalid_argument m ->
      let names_fft = ref false in
      for i = 0 to String.length m - 10 do
        if String.sub m i 10 = "fft kernel" then names_fft := true
      done;
      if not !names_fft then Alcotest.failf "%s: message %S does not name the fft kernel" what m
    | _ -> Alcotest.failf "%s: fft kernel accepted" what
  in
  refused "rewind" (fun () -> Hosking.Block.rewind fft);
  refused "deviates" (fun () -> ignore (Hosking.Block.deviates fft : float array))

let test_hosking_fill_many_matches_fill () =
  (* [fill_many] over n generators is [fill] on each in lane order:
     the same values, the same state (checkpoint bytes) and the same
     draws from each generator, at every split of the stream — across
     the pre-steady-state rows and the ring wrap. Lanes 0 and 1 share
     one generator, so the lane order of the draws is pinned too. *)
  let acf = Acf.fgn ~h:0.8 in
  List.iter
    (fun order ->
      let table = Hosking.Table.make ~acf ~n:(order + 1) in
      List.iter
        (fun n ->
          let mk () = Array.init n (fun _ -> Hosking.Block.create ~table ~order ()) in
          let rngs () =
            let shared = Rng.create ~seed:900 in
            Array.init n (fun l -> if l < 2 then shared else Rng.create ~seed:(900 + l))
          in
          let a = mk () and ra = rngs () and b = mk () and rb = rngs () in
          List.iter
            (fun len ->
              let stride = len + 3 in
              let bufa = Array.make (n * stride) 0.5 and bufb = Array.make (n * stride) 0.5 in
              for l = 0 to n - 1 do
                Hosking.Block.fill a.(l) ra.(l) bufa ~off:(l * stride) ~len
              done;
              Hosking.Block.fill_many b rb n bufb (Array.init n (fun l -> l * stride)) ~len;
              Array.iteri
                (fun i x ->
                  if not (same_bits x bufb.(i)) then
                    Alcotest.failf "order=%d n=%d len=%d: element %d differs" order n len i)
                bufa;
              for l = 0 to n - 1 do
                if not (String.equal (block_bytes a.(l)) (block_bytes b.(l))) then
                  Alcotest.failf "order=%d n=%d len=%d: lane %d state differs" order n len l;
                if Rng.bits64 (Rng.copy ra.(l)) <> Rng.bits64 (Rng.copy rb.(l)) then
                  Alcotest.failf "order=%d n=%d len=%d: lane %d draws differ" order n len l
              done)
            [ 1; 3; 7; 16; 600; 5; 1024; 2 ])
        [ 1; 2; 5; 8 ])
    [ 1; 2; 16; 512; 600 ]

let test_hosking_fill_many_invalid () =
  let acf = Acf.fgn ~h:0.8 in
  let table = Hosking.Table.make ~acf ~n:17 in
  let other = Hosking.Table.make ~acf ~n:17 in
  let blk ?(table = table) () = Hosking.Block.create ~table ~order:16 () in
  let rng = Rng.create ~seed:1 in
  let buf = Array.make 64 0.0 in
  let run ts ?(n = Array.length ts) ?(offs = Array.init n (fun l -> l * 8)) ?(len = 8) () =
    Hosking.Block.fill_many ts (Array.make n rng) n buf offs ~len
  in
  let a = blk () in
  raises_invalid "no lanes" (fun () -> run [| a |] ~n:0 ());
  raises_invalid "more than group" (fun () -> run (Array.init 9 (fun _ -> blk ())) ~len:1 ());
  raises_invalid "same generator twice" (fun () -> run [| a; a |] ());
  raises_invalid "different tables" (fun () -> run [| blk (); blk ~table:other () |] ());
  let ahead = blk () in
  Hosking.Block.fill ahead rng buf ~off:0 ~len:1;
  raises_invalid "different positions" (fun () -> run [| blk (); ahead |] ());
  let fft =
    Hosking.Block.create ~fft_plan:(Hosking.Fft_plan.make ~table ~order:16) ~table ~order:16 ()
  in
  raises_invalid "fft kernel" (fun () -> run [| fft |] ());
  raises_invalid "range outside the buffer" (fun () ->
      run [| blk (); blk () |] ~offs:[| 0; 60 |] ());
  Alcotest.(check bool) "groupable" true (Hosking.Block.groupable (blk ()) (blk ()));
  Alcotest.(check bool) "not with itself" false (Hosking.Block.groupable a a)

(* ------------------------------------------------------------------ *)
(* Relaxed arithmetic: the reassociated dot kernel. The FFT kernel runs
   it on its sequential lags, so at order <= Fft_plan.partition (no lag
   reaches the FFT) the FFT kernel is the exact recursion with every
   dot product relaxed — the stream the removed relaxed kernel tier
   emitted, pinned here through [fft_block].                            *)
(* ------------------------------------------------------------------ *)

let fft_block ~table ~order =
  Hosking.Block.create ~fft_plan:(Hosking.Fft_plan.make ~table ~order) ~table ~order ()

let test_ar_dot_relaxed_close () =
  (* The reassociated 4-accumulator kernel computes the same dot
     product as the exact kernel up to summation-order rounding. *)
  let rng = Rng.create ~seed:30 in
  List.iter
    (fun k ->
      let row = Array.init k (fun _ -> Rng.gaussian rng) in
      let win = Array.init (k + 8) (fun _ -> Rng.gaussian rng) in
      let top = k + 5 in
      let exact = Hosking.ar_dot row win ~top ~k in
      let relaxed = Hosking.ar_dot_relaxed row win ~top ~k in
      let scale = Stdlib.max 1.0 (abs_float exact) in
      if abs_float (exact -. relaxed) /. scale > 1e-12 then
        Alcotest.failf "k=%d: relaxed dot %.17g far from exact %.17g" k relaxed exact)
    [ 1; 2; 3; 4; 5; 7; 8; 64; 513 ]

let test_block_relaxed_close_to_exact () =
  (* Same innovations, same AR rows: the relaxed dot only
     reassociates each dot product, so the paths track the exact tier
     to float rounding (amplified mildly by the AR feedback). *)
  let acf = Acf.fgn ~h:0.85 in
  let order = 32 and n = 400 in
  let table = Hosking.Table.make ~acf ~n:(order + 1) in
  let exact = Array.make n 0.0 and relaxed = Array.make n 0.0 in
  Hosking.Block.fill (Hosking.Block.create ~table ~order ()) (Rng.create ~seed:31) exact
    ~off:0 ~len:n;
  Hosking.Block.fill (fft_block ~table ~order) (Rng.create ~seed:31) relaxed ~off:0 ~len:n;
  for i = 0 to n - 1 do
    close ~eps:1e-9 (Printf.sprintf "slot %d" i) exact.(i) relaxed.(i)
  done

let test_block_relaxed_deterministic () =
  (* Relaxed runs are seed-deterministic like exact ones — they just
     live on their own fixture set. *)
  let acf = Acf.fgn ~h:0.85 in
  let order = 32 and n = 100 in
  let table = Hosking.Table.make ~acf ~n:(order + 1) in
  let a = Array.make n 0.0 and b = Array.make n 0.0 in
  Hosking.Block.fill (fft_block ~table ~order) (Rng.create ~seed:32) a ~off:0 ~len:n;
  Hosking.Block.fill (fft_block ~table ~order) (Rng.create ~seed:32) b ~off:0 ~len:n;
  for i = 0 to n - 1 do
    if Int64.bits_of_float a.(i) <> Int64.bits_of_float b.(i) then
      Alcotest.failf "slot %d: relaxed run not reproducible" i
  done

let test_block_relaxed_statistics () =
  (* Relaxed arithmetic is gated statistically, not bitwise: a long
     path must carry the model's dependence structure. At order 256
     the FFT kernel also convolves the lags past its partition. *)
  let h = 0.8 in
  let acf = Acf.fgn ~h in
  let order = 256 and n = 16_384 in
  let table = Hosking.Table.make ~acf ~n:(order + 1) in
  let x = Array.make n 0.0 in
  Hosking.Block.fill (fft_block ~table ~order) (Rng.create ~seed:33) x ~off:0 ~len:n;
  close ~eps:0.05 "variance" 1.0 (D.variance x);
  let r = D.acf x ~max_lag:5 in
  close ~eps:0.04 "r(1)" (acf.Acf.r 1) r.(1);
  (* Variance-time Hurst: compare estimator-to-estimator against an
     exact path of the same law (cancels the estimator's own bias). *)
  let xe = Array.make n 0.0 in
  Hosking.Block.fill (Hosking.Block.create ~table ~order ()) (Rng.create ~seed:33) xe ~off:0
    ~len:n;
  let hv = (Hurst.variance_time x).Hurst.h and he = (Hurst.variance_time xe).Hurst.h in
  close ~eps:0.03 "variance-time H vs exact tier" he hv

let test_block_relaxed_fixture () =
  (* The removed relaxed tier's bitwise fixture (fixed seed, FGN
     H=0.85, order 32), reproduced by the FFT kernel below its
     partition size: head of the path plus the tail of a 64-slot fill,
     so both the pre-steady-state rows and the steady-state relaxed
     dot are pinned. These values are NOT the exact tier's — the
     kernels are seed-incompatible by design; regenerate the
     constants whenever [ar_dot_relaxed]'s summation order is changed
     on purpose. *)
  let acf = Acf.fgn ~h:0.85 in
  let order = 32 and n = 64 in
  let table = Hosking.Table.make ~acf ~n:(order + 1) in
  let x = Array.make n 0.0 in
  Hosking.Block.fill (fft_block ~table ~order) (Rng.create ~seed:34) x ~off:0 ~len:n;
  let check i want =
    if Int64.bits_of_float x.(i) <> Int64.bits_of_float want then
      Alcotest.failf "relaxed fixture slot %d: got %.17g, want %.17g" i x.(i) want
  in
  List.iter
    (fun (i, v) -> check i v)
    [
      (0, -0.28642766337665915);
      (1, -1.3558264563091447);
      (2, -0.79517431890815637);
      (3, -2.4189329787314655);
      (60, 0.42151655300344537);
      (61, 0.55077089703725468);
      (62, 0.66193624721298905);
      (63, 0.5743725973464674);
    ]

(* ------------------------------------------------------------------ *)
(* FFT overlap-save tier                                                *)
(* ------------------------------------------------------------------ *)

let test_block_fft_close_to_exact () =
  (* The FFT kernel consumes the same innovation per sample as the
     exact kernel and computes the same conditional means, merely
     reassociated (partition sums via the frequency domain), so the
     paths track the exact tier to float rounding. Orders straddle
     the partition size: 64 never leaves the sequential path, 192 and
     300 pad their last partition. *)
  let acf = Acf.fgn ~h:0.85 in
  let n = 1024 in
  List.iter
    (fun order ->
      let table = Hosking.Table.make ~acf ~n:(order + 1) in
      let exact = Array.make n 0.0 and fft = Array.make n 0.0 in
      Hosking.Block.fill (Hosking.Block.create ~table ~order ()) (Rng.create ~seed:41) exact
        ~off:0 ~len:n;
      Hosking.Block.fill (fft_block ~table ~order) (Rng.create ~seed:41) fft ~off:0 ~len:n;
      for i = 0 to n - 1 do
        close ~eps:1e-6 (Printf.sprintf "order %d slot %d" order i) exact.(i) fft.(i)
      done)
    [ 64; 192; 300 ]

let test_block_fft_pull_pattern () =
  (* The kernel produces in fixed blocks internally, so the stream
     for a given seed must be bitwise independent of how callers
     batch their pulls — including pulls smaller and larger than the
     partition size. *)
  let acf = Acf.fgn ~h:0.85 in
  let order = 192 and n = 700 in
  let table = Hosking.Table.make ~acf ~n:(order + 1) in
  let one = Array.make n 0.0 in
  Hosking.Block.fill (fft_block ~table ~order) (Rng.create ~seed:42) one ~off:0 ~len:n;
  let two = Array.make n 0.0 in
  let b = fft_block ~table ~order in
  let rng = Rng.create ~seed:42 in
  let off = ref 0 in
  List.iter
    (fun len ->
      Hosking.Block.fill b rng two ~off:!off ~len;
      off := !off + len)
    [ 1; 7; 120; 130; 3; 439 ];
  Alcotest.(check int) "generated count" n (Hosking.Block.generated b);
  for i = 0 to n - 1 do
    if Int64.bits_of_float one.(i) <> Int64.bits_of_float two.(i) then
      Alcotest.failf "slot %d: chunked fft fill differs" i
  done;
  raises_invalid "plan order mismatch" (fun () ->
      Hosking.Block.create
        ~fft_plan:(Hosking.Fft_plan.make ~table ~order:100)
        ~table ~order ())

let test_block_fft_deterministic () =
  let acf = Acf.fgn ~h:0.85 in
  let order = 192 and n = 400 in
  let table = Hosking.Table.make ~acf ~n:(order + 1) in
  let a = Array.make n 0.0 and b = Array.make n 0.0 in
  Hosking.Block.fill (fft_block ~table ~order) (Rng.create ~seed:43) a ~off:0 ~len:n;
  Hosking.Block.fill (fft_block ~table ~order) (Rng.create ~seed:43) b ~off:0 ~len:n;
  for i = 0 to n - 1 do
    if Int64.bits_of_float a.(i) <> Int64.bits_of_float b.(i) then
      Alcotest.failf "slot %d: fft run not reproducible" i
  done

let test_block_fft_statistics () =
  (* Statistical gate at the bench's headline order: sample ACF close
     to the model at small lags, variance-time H within 0.03 of the
     exact tier (estimator-to-estimator cancels the estimator's own
     bias on LRD data). *)
  let h = 0.8 in
  let acf = Acf.fgn ~h in
  let order = 512 and n = 16_384 in
  let table = Hosking.Table.make ~acf ~n:(order + 1) in
  let x = Array.make n 0.0 in
  Hosking.Block.fill (fft_block ~table ~order) (Rng.create ~seed:44) x ~off:0 ~len:n;
  close ~eps:0.05 "variance" 1.0 (D.variance x);
  let r = D.acf x ~max_lag:5 in
  close ~eps:0.04 "r(1)" (acf.Acf.r 1) r.(1);
  let xe = Array.make n 0.0 in
  Hosking.Block.fill (Hosking.Block.create ~table ~order ()) (Rng.create ~seed:44) xe ~off:0
    ~len:n;
  let hv = (Hurst.variance_time x).Hurst.h and he = (Hurst.variance_time xe).Hurst.h in
  close ~eps:0.03 "variance-time H vs exact tier" he hv

let test_block_fft_fixture () =
  (* The FFT tier's own bitwise fixture (fixed seed, FGN H=0.85,
     order 192 so the overlap-save path and last-partition padding
     are both live): head of the path plus the tail of a 640-slot
     fill, pinning warmup, the kernel's steady state, and the
     block/serve cursor plumbing. These values are NOT the exact
     tier's — the kernels are seed-incompatible by design;
     regenerate the constants whenever the FFT kernel's summation
     structure is changed on purpose. *)
  let acf = Acf.fgn ~h:0.85 in
  let order = 192 and n = 640 in
  let table = Hosking.Table.make ~acf ~n:(order + 1) in
  let x = Array.make n 0.0 in
  Hosking.Block.fill (fft_block ~table ~order) (Rng.create ~seed:45) x ~off:0 ~len:n;
  let check i want =
    if Int64.bits_of_float x.(i) <> Int64.bits_of_float want then
      Alcotest.failf "fft fixture slot %d: got %.17g, want %.17g" i x.(i) want
  in
  List.iter
    (fun (i, v) -> check i v)
    [
      (0, -2.5099203528341731);
      (1, 0.50172666867697902);
      (2, -1.9362616015051939);
      (3, -0.16560987821145523);
      (636, -0.038709940223494943);
      (637, 0.42349516585264624);
      (638, -0.46794519559736059);
      (639, -1.2905582610788886);
    ]

(* ------------------------------------------------------------------ *)
(* Davies-Harte                                                         *)
(* ------------------------------------------------------------------ *)

let test_dh_fgn_sample_stats () =
  let acf = Acf.fgn ~h:0.8 in
  let plan = DH.plan ~acf ~n:32_768 () in
  let x = DH.generate plan (Rng.create ~seed:7) in
  Alcotest.(check int) "length" 32_768 (Array.length x);
  (* LRD sample means wander: sd ~ n^{H-1} = 0.125 here. *)
  close ~eps:0.3 "mean" 0.0 (D.mean x);
  close ~eps:0.08 "variance" 1.0 (D.variance x);
  let r = D.acf x ~max_lag:5 in
  close ~eps:0.03 "r(1)" (acf.Acf.r 1) r.(1);
  close ~eps:0.04 "r(3)" (acf.Acf.r 3) r.(3)

let test_dh_white_noise () =
  let plan = DH.plan ~acf:Acf.white_noise ~n:10_000 () in
  let x = DH.generate plan (Rng.create ~seed:8) in
  let r = D.acf x ~max_lag:3 in
  close ~eps:0.03 "white r(1)" 0.0 r.(1);
  close ~eps:0.03 "white variance" 1.0 (D.variance x)

let test_dh_matches_hosking_statistically () =
  (* Same model, two generators: sample ACFs must agree within Monte
     Carlo noise. *)
  (* A knee model continuous at the knee (jump-free, hence positive
     definite in practice). *)
  let l = exp (-0.05 *. 20.0) *. (20.0 ** 0.3) in
  let acf = Acf.composite ~knee:20 ~lambda:0.05 ~l ~beta:0.3 in
  let xh = Hosking.generate_stream ~acf ~n:10_000 (Rng.create ~seed:9) in
  let plan = DH.plan ~acf ~n:10_000 () in
  let xd = DH.generate plan (Rng.create ~seed:10) in
  let rh = D.acf xh ~max_lag:10 and rd = D.acf xd ~max_lag:10 in
  for k = 1 to 10 do
    if abs_float (rh.(k) -. rd.(k)) > 0.1 then
      Alcotest.failf "generators disagree at lag %d: %.3f vs %.3f" k rh.(k) rd.(k)
  done

let test_dh_deterministic_given_seed () =
  let plan = DH.plan ~acf:(Acf.fgn ~h:0.7) ~n:100 () in
  let a = DH.generate plan (Rng.create ~seed:11) in
  let b = DH.generate plan (Rng.create ~seed:11) in
  Array.iteri (fun i v -> close "reproducible" v b.(i)) a

let test_dh_fgn_embeddable () =
  (* FGN embeddings are provably nonnegative for all H. *)
  List.iter
    (fun h ->
      let plan = DH.plan ~acf:(Acf.fgn ~h) ~n:4096 () in
      if DH.min_eigenvalue plan < -1e-9 then
        Alcotest.failf "FGN H=%g embedding negative: %g" h (DH.min_eigenvalue plan))
    [ 0.55; 0.7; 0.9; 0.95 ]

let test_dh_invalid () =
  raises_invalid "n = 0" (fun () -> DH.plan ~acf:Acf.white_noise ~n:0 ())

let test_dh_generate_into_matches_generate () =
  let plan = DH.plan ~acf:(Acf.fgn ~h:0.8) ~n:256 () in
  let a = DH.generate plan (Rng.create ~seed:9) in
  let buf = Array.make 300 nan in
  DH.generate_into plan (Rng.create ~seed:9) buf;
  for i = 0 to 255 do
    if Int64.bits_of_float a.(i) <> Int64.bits_of_float buf.(i) then
      Alcotest.failf "slot %d: generate_into differs from generate" i
  done;
  if not (Float.is_nan buf.(256)) then Alcotest.fail "wrote past plan_length";
  raises_invalid "short buffer" (fun () ->
      DH.generate_into plan (Rng.create ~seed:9) (Array.make 255 0.0))

(* ------------------------------------------------------------------ *)
(* Clipped Davies-Harte embedding (~allow_clipping:true) — the former
   Paxson backend, which ran Davies-Harte's circulant and sampler with
   clipping instead of refusal.                                         *)
(* ------------------------------------------------------------------ *)

let clipping_plan ~acf ~n = DH.plan ~allow_clipping:true ~acf ~n ()

let test_paxson_plan_basics () =
  let plan = clipping_plan ~acf:(Acf.fgn ~h:0.8) ~n:4096 in
  Alcotest.(check int) "plan length" 4096 (DH.plan_length plan);
  let cr = DH.clipped_ratio plan in
  if cr < 0.0 || cr > 0.05 then
    Alcotest.failf "FGN folded circulant should be (near-)PSD, clipped ratio %g" cr;
  (* Non-power-of-two lengths fold onto the next power of two. *)
  let p2 = clipping_plan ~acf:(Acf.fgn ~h:0.8) ~n:3000 in
  Alcotest.(check int) "non-pow2 length" 3000 (DH.plan_length p2)

let test_paxson_deterministic () =
  (* The path [Paxson.generate] drew for this plan and seed before the
     backend was folded into Davies-Harte: the clipping plan must
     reproduce it bit for bit. *)
  let plan = clipping_plan ~acf:(Acf.fgn ~h:0.7) ~n:100 in
  let a = DH.generate plan (Rng.create ~seed:40) in
  let b = DH.generate plan (Rng.create ~seed:40) in
  Array.iteri (fun i v -> close "reproducible" v b.(i)) a;
  List.iter
    (fun (i, want) ->
      if Int64.bits_of_float a.(i) <> Int64.bits_of_float want then
        Alcotest.failf "paxson fixture slot %d: got %.17g, want %.17g" i a.(i) want)
    [
      (0, -0.017946555550417909);
      (1, -0.63094432957275559);
      (2, -0.83961963509597748);
      (3, -1.9804782573513153);
      (50, -1.0664135742481886);
      (96, -1.8685761901648794);
      (97, -0.68160251306448671);
      (98, -0.18548383720898443);
      (99, 0.081036234347694858);
    ]

let test_paxson_sample_stats () =
  let acf = Acf.fgn ~h:0.8 in
  let plan = clipping_plan ~acf ~n:32_768 in
  let x = DH.generate plan (Rng.create ~seed:41) in
  Alcotest.(check int) "length" 32_768 (Array.length x);
  close ~eps:0.3 "mean" 0.0 (D.mean x);
  close ~eps:0.08 "variance" 1.0 (D.variance x);
  let r = D.acf x ~max_lag:5 in
  close ~eps:0.03 "r(1)" (acf.Acf.r 1) r.(1);
  close ~eps:0.04 "r(3)" (acf.Acf.r 3) r.(3)

let test_paxson_white_noise () =
  let plan = clipping_plan ~acf:Acf.white_noise ~n:10_000 in
  let x = DH.generate plan (Rng.create ~seed:42) in
  let r = D.acf x ~max_lag:3 in
  close ~eps:0.03 "white r(1)" 0.0 r.(1);
  close ~eps:0.03 "white variance" 1.0 (D.variance x)

let test_paxson_statistical_gates () =
  (* The gates that define clipped synthesis: averaged sample ACF
     within 0.05 of the model at every lag <= 100, and variance-time
     Hurst within 0.03 of the same estimator on strict Davies-Harte
     paths. *)
  let h = 0.8 in
  let acf = Acf.fgn ~h in
  let n = 16_384 and paths = 6 in
  let plan = clipping_plan ~acf ~n in
  let dh_plan = DH.plan ~acf ~n () in
  let rng = Rng.create ~seed:43 in
  let acf_avg = Array.make 101 0.0 in
  let h_px = ref 0.0 and h_dh = ref 0.0 in
  for _ = 1 to paths do
    let xp = DH.generate plan (Rng.split rng) in
    let xd = DH.generate dh_plan (Rng.split rng) in
    let r = D.acf xp ~max_lag:100 in
    for k = 1 to 100 do
      acf_avg.(k) <- acf_avg.(k) +. r.(k)
    done;
    h_px := !h_px +. (Hurst.variance_time xp).Hurst.h;
    h_dh := !h_dh +. (Hurst.variance_time xd).Hurst.h
  done;
  let fp = float_of_int paths in
  for k = 1 to 100 do
    let e = abs_float ((acf_avg.(k) /. fp) -. acf.Acf.r k) in
    if e > 0.05 then
      Alcotest.failf "sample ACF off by %.4f at lag %d (tolerance 0.05)" e k
  done;
  close ~eps:0.03 "variance-time H vs exact backend" (!h_dh /. fp) (!h_px /. fp)

let test_paxson_generate_into_matches_generate () =
  (* On a plan that really clips: a short rectangular ACF. *)
  let rect =
    Acf.of_fun ~name:"rect-acf" (fun k -> if k = 0 then 1.0 else if k <= 8 then 0.95 else 0.0)
  in
  let plan = clipping_plan ~acf:rect ~n:256 in
  if DH.clipped_ratio plan <= 0.0 then Alcotest.fail "rect-acf plan did not clip";
  let a = DH.generate plan (Rng.create ~seed:44) in
  let buf = Array.make 300 nan in
  DH.generate_into plan (Rng.create ~seed:44) buf;
  for i = 0 to 255 do
    if Int64.bits_of_float a.(i) <> Int64.bits_of_float buf.(i) then
      Alcotest.failf "slot %d: generate_into differs from generate" i
  done;
  if not (Float.is_nan buf.(256)) then Alcotest.fail "wrote past plan_length";
  raises_invalid "short buffer" (fun () ->
      DH.generate_into plan (Rng.create ~seed:44) (Array.make 255 0.0))

let test_paxson_invalid () =
  raises_invalid "n = 0" (fun () -> clipping_plan ~acf:Acf.white_noise ~n:0);
  raises_invalid "n < 0" (fun () -> clipping_plan ~acf:Acf.white_noise ~n:(-3));
  (* Clipping never rescues a spectrum with no positive mass. *)
  raises_invalid "degenerate spectrum" (fun () ->
      clipping_plan ~acf:(Acf.of_fun ~name:"nan" (fun _ -> nan)) ~n:16)

(* ------------------------------------------------------------------ *)
(* Cholesky oracle: for small n, sample the Gaussian vector directly
   from the covariance matrix and compare distributional statistics
   against Hosking and Davies-Harte.                                   *)
(* ------------------------------------------------------------------ *)

let cholesky_sample ~acf ~n rng =
  let cov = Array.init n (fun i -> Array.init n (fun j -> acf.Acf.r (abs (i - j)))) in
  let l = Ss_stats.Linalg.cholesky cov in
  let z = Array.init n (fun _ -> Rng.gaussian rng) in
  Array.init n (fun i ->
      let s = ref 0.0 in
      for k = 0 to i do
        s := !s +. (l.(i).(k) *. z.(k))
      done;
      !s)

let test_generators_match_cholesky_oracle () =
  (* Average lag-1 product and last-coordinate variance over many
     short vectors from all three exact samplers must agree. *)
  let acf = Acf.fgn ~h:0.85 in
  let n = 32 in
  let reps = 4_000 in
  let stats gen seed =
    let rng = Rng.create ~seed in
    let lag1 = ref 0.0 and last_var = ref 0.0 in
    for _ = 1 to reps do
      let x = gen rng in
      for i = 0 to n - 2 do
        lag1 := !lag1 +. (x.(i) *. x.(i + 1))
      done;
      last_var := !last_var +. (x.(n - 1) *. x.(n - 1))
    done;
    ( !lag1 /. float_of_int (reps * (n - 1)),
      !last_var /. float_of_int reps )
  in
  let table = Hosking.Table.make ~acf ~n in
  let plan = DH.plan ~acf ~n () in
  let c1, cv = stats (cholesky_sample ~acf ~n) 50 in
  let h1, hv = stats (Hosking.generate table) 51 in
  let d1, dv = stats (DH.generate plan) 52 in
  (* The truth: E[x_i x_{i+1}] = r(1), Var x = 1. *)
  close ~eps:0.03 "cholesky lag1" (acf.Acf.r 1) c1;
  close ~eps:0.03 "hosking lag1" (acf.Acf.r 1) h1;
  close ~eps:0.03 "dh lag1" (acf.Acf.r 1) d1;
  close ~eps:0.05 "cholesky var" 1.0 cv;
  close ~eps:0.05 "hosking var" 1.0 hv;
  close ~eps:0.05 "dh var" 1.0 dv

(* ------------------------------------------------------------------ *)
(* Hurst estimation                                                     *)
(* ------------------------------------------------------------------ *)

let fgn_path ~h ~n ~seed = DH.generate (DH.plan ~acf:(Acf.fgn ~h) ~n ()) (Rng.create ~seed)

let test_hurst_white_noise () =
  let rng = Rng.create ~seed:12 in
  let x = Array.init 60_000 (fun _ -> Rng.gaussian rng) in
  let vt = Hurst.variance_time x in
  let rs = Hurst.rs x in
  close ~eps:0.08 "VT on white noise" 0.5 vt.Hurst.h;
  close ~eps:0.1 "R/S on white noise" 0.5 rs.Hurst.h

let test_hurst_fgn_high () =
  let x = fgn_path ~h:0.9 ~n:100_000 ~seed:13 in
  let vt = Hurst.variance_time x in
  let rs = Hurst.rs x in
  let pg = Hurst.periodogram x in
  close ~eps:0.1 "VT on FGN 0.9" 0.9 vt.Hurst.h;
  close ~eps:0.12 "R/S on FGN 0.9" 0.9 rs.Hurst.h;
  close ~eps:0.1 "periodogram on FGN 0.9" 0.9 pg.Hurst.h

let test_hurst_fgn_ordering () =
  (* Estimates must order correctly across H values even if biased. *)
  let est h = (Hurst.variance_time (fgn_path ~h ~n:60_000 ~seed:14)).Hurst.h in
  let h6 = est 0.6 and h9 = est 0.9 in
  if h9 <= h6 then Alcotest.failf "VT cannot order H=0.6 (%.3f) vs H=0.9 (%.3f)" h6 h9

let test_hurst_points_and_fit_exposed () =
  let x = fgn_path ~h:0.8 ~n:50_000 ~seed:15 in
  let vt = Hurst.variance_time x in
  if List.length vt.Hurst.points < 5 then Alcotest.fail "too few VT points";
  (* slope must be negative (variance decays with m) *)
  if vt.Hurst.fit.Ss_stats.Regression.slope >= 0.0 then Alcotest.fail "VT slope not negative";
  let rs = Hurst.rs x in
  if List.length rs.Hurst.points < 10 then Alcotest.fail "too few R/S points";
  if rs.Hurst.fit.Ss_stats.Regression.slope <= 0.0 then Alcotest.fail "R/S slope not positive"

let test_hurst_invalid () =
  raises_invalid "VT too short" (fun () -> Hurst.variance_time (Array.make 50 0.0));
  raises_invalid "RS too short" (fun () -> Hurst.rs (Array.make 10 0.0));
  raises_invalid "VT bad max_m" (fun () ->
      Hurst.variance_time ~min_m:10 ~max_m:5 (Array.make 1000 0.0))

(* ------------------------------------------------------------------ *)
(* Transform + attenuation                                              *)
(* ------------------------------------------------------------------ *)

let test_transform_identity_on_gaussian () =
  (* h for a standard normal marginal is the identity (up to clamping). *)
  let t = Transform.make (Dist.normal ~mean:0.0 ~std:1.0) in
  List.iter
    (fun x -> close ~eps:1e-7 (Printf.sprintf "identity at %g" x) x (Transform.apply1 t x))
    [ -3.0; -1.0; 0.0; 0.5; 2.0 ]

let test_transform_marginal_match () =
  (* Transformed Gaussian samples must follow the target marginal. *)
  let target = Dist.lognormal ~mu:1.0 ~sigma:0.7 in
  let t = Transform.make target in
  let rng = Rng.create ~seed:16 in
  let ys = Array.init 50_000 (fun _ -> Transform.apply1 t (Rng.gaussian rng)) in
  close ~eps:0.05 "transformed mean" target.Dist.mean (D.mean ys);
  let e = Ss_stats.Empirical.of_data ys in
  (* Compare quantiles against the target. *)
  List.iter
    (fun p ->
      let want = target.Dist.quantile p in
      let got = Ss_stats.Empirical.quantile e p in
      if abs_float (want -. got) /. want > 0.05 then
        Alcotest.failf "quantile %g mismatch: want %.3f got %.3f" p want got)
    [ 0.1; 0.25; 0.5; 0.75; 0.9 ]

let test_transform_monotone () =
  let t = Transform.make (Dist.gamma ~shape:2.0 ~scale:3.0) in
  let prev = ref neg_infinity in
  for i = -60 to 60 do
    let y = Transform.apply1 t (float_of_int i /. 10.0) in
    if y < !prev then Alcotest.fail "transform not monotone";
    prev := y
  done

let test_transform_clamps_extremes () =
  let t = Transform.make (Dist.exponential ~rate:1.0) in
  let a = Transform.apply1 t 100.0 in
  let b = Transform.apply1 t 8.0 in
  close "extreme inputs clamp" b a;
  if Float.is_nan a || a = infinity then Alcotest.fail "clamping failed"

let test_transform_relax_close () =
  (* The relaxed transform swaps the erf-backed CDF for the
     polynomial approximation (|err| < 7.5e-8): outputs track the
     exact transform everywhere, scaled by the quantile slope. *)
  let dist = Dist.lognormal ~mu:1.0 ~sigma:0.7 in
  let exact = Transform.make dist in
  let relaxed = Transform.relax exact in
  for i = -40 to 40 do
    let x = float_of_int i /. 10.0 in
    let ye = Transform.apply1 exact x and yr = Transform.apply1 relaxed x in
    let scale = Stdlib.max 1.0 (abs_float ye) in
    if abs_float (ye -. yr) /. scale > 1e-4 then
      Alcotest.failf "relax at %g: %.9g vs exact %.9g" x yr ye
  done;
  (* Same marginal object: only the CDF changes. *)
  if not (Transform.dist relaxed == Transform.dist exact) then
    Alcotest.fail "relax must keep the marginal distribution"

(* Inputs for the block transform: a dense grid over [-8, 8], N(0,1)
   draws, and the edges (signed zeros, both sides of the CDF's series
   switch at |x| = 2 sqrt 2, +-8 and beyond, subnormals, NaN). *)
let transform_inputs () =
  let rng = Rng.create ~seed:171 in
  let switch = 2.0 *. sqrt 2.0 in
  Array.concat
    [
      [|
        0.0; -0.0; switch; -.switch; Float.pred switch; Float.succ switch; 8.0; -8.0; 9.5;
        -9.5; 4e-320; -4e-320; nan;
      |];
      Array.init 4096 (fun _ -> Rng.gaussian rng);
      Array.init 8001 (fun i -> -8.0 +. (float_of_int i /. 500.0));
    ]

let test_transform_apply_into_bitwise () =
  (* [apply_into] is [apply1] element by element, bitwise: exact and
     relaxed CDFs, over the inlined empirical quantile and over a
     closure quantile; every offset and length 0..9, then 2048-element
     blocks; nothing outside the block is touched. *)
  let rng = Rng.create ~seed:172 in
  let emp = Ss_stats.Empirical.of_data (Array.init 777 (fun _ -> Rng.exponential rng ~rate:0.1)) in
  let xs = transform_inputs () in
  let check name t =
    let run xs off len =
      let buf = Array.copy xs in
      Transform.apply_into t buf ~off ~len;
      Array.iteri
        (fun i y ->
          let want = if i >= off && i < off + len then Transform.apply1 t xs.(i) else xs.(i) in
          if not (same_bits want y) then
            Alcotest.failf "%s: off=%d len=%d x=%h: got %h, want %h" name off len xs.(i) y want)
        buf
    in
    let head = Array.sub xs 0 24 in
    for off = 0 to 9 do
      for len = 0 to 9 do
        run head off len
      done
    done;
    let off = ref 0 in
    while !off < Array.length xs do
      run xs !off (Stdlib.min 2048 (Array.length xs - !off));
      off := !off + 2048
    done;
    let ys = Transform.apply t xs in
    Array.iteri
      (fun i y ->
        if not (same_bits (Transform.apply1 t xs.(i)) y) then
          Alcotest.failf "%s: apply differs at %d" name i)
      ys
  in
  let empirical = Transform.of_empirical emp in
  let gamma = Transform.make (Dist.gamma ~shape:2.0 ~scale:3.0) in
  check "empirical exact" empirical;
  check "empirical relaxed" (Transform.relax empirical);
  check "gamma exact" gamma;
  check "gamma relaxed" (Transform.relax gamma);
  (* [of_empirical] is [make] over the same sample. *)
  let made = Transform.make (Dist.of_empirical emp) in
  Array.iter
    (fun x ->
      if not (same_bits (Transform.apply1 made x) (Transform.apply1 empirical x)) then
        Alcotest.failf "of_empirical differs from make at %h" x)
    xs;
  raises_invalid "range" (fun () -> Transform.apply_into empirical [| 0.0 |] ~off:1 ~len:1)

let test_fill_many_apply_into_no_alloc () =
  (* The grouped exact slot — eight lanes of the AR kernel, then the
     block transform over an empirical marginal — allocates nothing
     once the per-domain and per-generator scratch exists. *)
  let rng = Rng.create ~seed:173 in
  let t =
    Transform.of_empirical (Ss_stats.Empirical.of_data (Array.init 4096 (fun _ -> Rng.float rng)))
  in
  let order = 512 and n = Hosking.Block.group and len = 2048 in
  let table = Hosking.Table.make ~acf:(Acf.fgn ~h:0.8) ~n:(order + 1) in
  let ts = Array.init n (fun _ -> Hosking.Block.create ~table ~order ()) in
  let rngs = Array.init n (fun l -> Rng.create ~seed:(174 + l)) in
  let buf = Array.make (n * len) 0.0 in
  let offs = Array.init n (fun l -> l * len) in
  let step () =
    Hosking.Block.fill_many ts rngs n buf offs ~len;
    for l = 0 to n - 1 do
      Transform.apply_into t buf ~off:offs.(l) ~len
    done
  in
  step ();
  let w0 = Gc.minor_words () in
  step ();
  step ();
  let words = Gc.minor_words () -. w0 in
  if words <> 0.0 then
    Alcotest.failf "%d grouped slots allocated %.0f minor words" (2 * n * len) words

let test_block_fill_no_alloc () =
  (* The per-source exact kernel, which fault-wrapped and twisted
     sources run, allocates nothing per slot: its AR dot product is
     inlined, so no float result is boxed. *)
  let order = 16 and len = 2048 in
  let table = Hosking.Table.make ~acf:(Acf.fgn ~h:0.8) ~n:(order + 1) in
  let b = Hosking.Block.create ~table ~order () in
  let rng = Rng.create ~seed:175 in
  let buf = Array.make len 0.0 in
  Hosking.Block.fill b rng buf ~off:0 ~len;
  let w0 = Gc.minor_words () in
  Hosking.Block.fill b rng buf ~off:0 ~len;
  Hosking.Block.fill b rng buf ~off:0 ~len;
  let words = Gc.minor_words () -. w0 in
  if words <> 0.0 then
    Alcotest.failf "%d per-source slots allocated %.0f minor words" (2 * len) words

let test_attenuation_identity_is_one () =
  (* A linear transform attenuates nothing. *)
  let t = Transform.make (Dist.normal ~mean:5.0 ~std:3.0) in
  close ~eps:1e-6 "linear transform a=1" 1.0 (Transform.attenuation t)

let test_transform_moments () =
  (* The memo holds exactly the two 128-node passes, E h and E h^2,
     and the variance clamp: same nodes, same summation order. *)
  let t = Transform.make (Dist.gamma ~shape:2.0 ~scale:3.0) in
  let mu = Ss_stats.Quadrature.gaussian_expectation ~n:128 (Transform.apply1 t) in
  let m2 =
    Ss_stats.Quadrature.gaussian_expectation ~n:128 (fun x ->
        let y = Transform.apply1 t x in
        y *. y)
  in
  let same msg a b =
    if Int64.bits_of_float a <> Int64.bits_of_float b then
      Alcotest.failf "%s: %.17g <> %.17g" msg a b
  in
  let mu', var' = Transform.moments t in
  same "mean" mu mu';
  same "variance" (Stdlib.max 0.0 (m2 -. (mu *. mu))) var';
  let mu'', var'' = Transform.moments t in
  same "memoized mean" mu' mu'';
  same "memoized variance" var' var'';
  close ~eps:1e-3 "gamma mean" 6.0 mu';
  close ~eps:0.05 "gamma variance" 18.0 var'

let test_attenuation_in_unit_interval () =
  List.iter
    (fun (name, d) ->
      let a = Transform.attenuation (Transform.make d) in
      if a <= 0.0 || a > 1.0 then Alcotest.failf "%s attenuation %g outside (0,1]" name a)
    [
      ("lognormal", Dist.lognormal ~mu:0.0 ~sigma:1.0);
      ("exponential", Dist.exponential ~rate:1.0);
      ("gamma", Dist.gamma ~shape:0.5 ~scale:1.0);
      ("pareto", Dist.pareto ~shape:3.0 ~scale:1.0);
    ]

let test_attenuation_exponential_closed_form () =
  (* For h(x) = e^{sigma x} (lognormal marginal), a =
     (E h X)^2 / Var h = sigma^2 e^{sigma^2} / (e^{2 sigma^2} - e^{sigma^2})
     since E[h X] = sigma e^{sigma^2/2}. *)
  let sigma = 0.5 in
  let t = Transform.make (Dist.lognormal ~mu:0.0 ~sigma) in
  let s2 = sigma *. sigma in
  let expected = s2 *. exp s2 /. (exp (2.0 *. s2) -. exp s2) in
  close ~eps:1e-4 "lognormal attenuation closed form" expected (Transform.attenuation t)

let test_attenuation_measured_close_to_theory () =
  (* The ratio estimator is noisy at long lags (the background ACF is
     small there); average many lags and accept a loose band. *)
  let t = Transform.make (Dist.lognormal ~mu:0.0 ~sigma:0.5) in
  let theory = Transform.attenuation t in
  let lags = List.init 12 (fun i -> 30 + (10 * i)) in
  let measured =
    Transform.attenuation_measured ~acf:(Acf.fgn ~h:0.85) ~n:16_000 ~lags
      (Rng.create ~seed:17) t
  in
  close ~eps:0.15 "measured vs theory" theory measured

let test_hermite_coefficients () =
  let t = Transform.make (Dist.lognormal ~mu:0.0 ~sigma:0.5) in
  (* For h = e^{sigma x}: c_k = sigma^k e^{sigma^2/2} / sqrt(k!). *)
  let sigma = 0.5 in
  let factor = exp (sigma *. sigma /. 2.0) in
  close ~eps:1e-6 "c_0 = E h" factor (Transform.hermite_coefficient t ~k:0);
  close ~eps:1e-6 "c_1" (sigma *. factor) (Transform.hermite_coefficient t ~k:1);
  close ~eps:1e-6 "c_2" (sigma *. sigma *. factor /. sqrt 2.0) (Transform.hermite_coefficient t ~k:2)

let test_predicted_rh_limits () =
  let t = Transform.make (Dist.gamma ~shape:2.0 ~scale:1.0) in
  (* r = 0 predicts 0; r = 1 with many terms predicts ~1. *)
  close "predict at r=0" 0.0 (Transform.predicted_rh t ~r:0.0 ~terms:10);
  let at_one = Transform.predicted_rh t ~r:1.0 ~terms:40 in
  close ~eps:0.02 "predict at r=1" 1.0 at_one;
  (* Small r: linear regime rh = a r. *)
  let a = Transform.attenuation t in
  close ~eps:1e-3 "predict small r" (a *. 0.05) (Transform.predicted_rh t ~r:0.05 ~terms:10)

let test_predicted_rh_matches_simulation () =
  (* Full Hermite prediction vs an actual transformed AR(1). *)
  let rho = 0.8 in
  let t = Transform.make (Dist.lognormal ~mu:0.0 ~sigma:0.8) in
  let rng = Rng.create ~seed:18 in
  let n = 200_000 in
  let x = Array.make n 0.0 in
  x.(0) <- Rng.gaussian rng;
  for i = 1 to n - 1 do
    x.(i) <- (rho *. x.(i - 1)) +. (sqrt (1.0 -. (rho *. rho)) *. Rng.gaussian rng)
  done;
  let y = Transform.apply t x in
  let ry = D.acf y ~max_lag:1 in
  let predicted = Transform.predicted_rh t ~r:rho ~terms:20 in
  close ~eps:0.05 "Hermite prediction vs simulation" predicted ry.(1)

let test_transform_invalid () =
  let t = Transform.make (Dist.normal ~mean:0.0 ~std:1.0) in
  raises_invalid "no lags" (fun () ->
      Transform.attenuation_measured ~acf:Acf.white_noise ~n:100 ~lags:[]
        (Rng.create ~seed:1) t);
  raises_invalid "lag out of range" (fun () ->
      Transform.attenuation_measured ~acf:Acf.white_noise ~n:100 ~lags:[ 100 ]
        (Rng.create ~seed:1) t);
  raises_invalid "hermite k" (fun () -> Transform.hermite_coefficient t ~k:65);
  raises_invalid "predicted terms" (fun () -> Transform.predicted_rh t ~r:0.5 ~terms:0)

(* ------------------------------------------------------------------ *)
(* Acf_fit                                                              *)
(* ------------------------------------------------------------------ *)

let test_acf_fit_eval_matches_model () =
  let p = { Acf_fit.knee = 60; lambda = 0.00565; l = 1.59; beta = 0.2 } in
  let acf = Acf_fit.to_acf p in
  for k = 0 to 200 do
    close ~eps:1e-12 (Printf.sprintf "eval %d" k) (acf.Acf.r k) (Acf_fit.eval p k)
  done

(* A composite model continuous at the knee (as the fitter enforces,
   per the paper's Eq 12): l derived from (knee, lambda, beta). *)
let continuous_truth ~knee ~lambda ~beta =
  let l = exp (-.lambda *. float_of_int knee) *. (float_of_int knee ** beta) in
  { Acf_fit.knee; lambda; l; beta }

let test_acf_fit_recovers_exact_model () =
  (* Fit noise-free points generated by a known (continuous)
     composite model. *)
  let truth = continuous_truth ~knee:60 ~lambda:0.008 ~beta:0.25 in
  let points = List.init 400 (fun i -> (i + 1, Acf_fit.eval truth (i + 1))) in
  let fitted = Acf_fit.fit ~knee_candidates:[ 40; 50; 60; 70; 80 ] points in
  Alcotest.(check int) "knee recovered" 60 fitted.Acf_fit.knee;
  close ~eps:1e-3 "lambda recovered" truth.Acf_fit.lambda fitted.Acf_fit.lambda;
  close ~eps:0.02 "l recovered" truth.Acf_fit.l fitted.Acf_fit.l;
  close ~eps:1e-3 "beta recovered" truth.Acf_fit.beta fitted.Acf_fit.beta

let test_acf_fit_fixed_beta () =
  let truth = continuous_truth ~knee:50 ~lambda:0.01 ~beta:0.2 in
  let points = List.init 300 (fun i -> (i + 1, Acf_fit.eval truth (i + 1))) in
  let fitted = Acf_fit.fit ~knee_candidates:[ 50 ] ~fixed_beta:0.2 points in
  close "beta pinned" 0.2 fitted.Acf_fit.beta;
  close ~eps:0.02 "l with pinned beta" truth.Acf_fit.l fitted.Acf_fit.l;
  close ~eps:1e-3 "lambda via continuity" truth.Acf_fit.lambda fitted.Acf_fit.lambda

let test_acf_fit_noisy_recovery () =
  let truth = continuous_truth ~knee:60 ~lambda:0.006 ~beta:0.2 in
  let rng = Rng.create ~seed:19 in
  let points =
    List.init 490 (fun i ->
        (i + 1, Acf_fit.eval truth (i + 1) +. (0.01 *. Rng.gaussian rng)))
  in
  let fitted = Acf_fit.fit ~fixed_beta:0.2 points in
  if abs (fitted.Acf_fit.knee - 60) > 30 then
    Alcotest.failf "knee too far off: %d" fitted.Acf_fit.knee;
  close ~eps:0.15 "noisy l" truth.Acf_fit.l fitted.Acf_fit.l;
  close ~eps:0.003 "noisy lambda" 0.006 fitted.Acf_fit.lambda

let test_acf_fit_sse () =
  let p = { Acf_fit.knee = 10; lambda = 0.1; l = 1.0; beta = 0.3 } in
  let exact = List.init 50 (fun i -> (i + 1, Acf_fit.eval p (i + 1))) in
  close ~eps:1e-15 "sse on exact points" 0.0 (Acf_fit.sse p exact);
  let off = List.map (fun (k, r) -> (k, r +. 0.1)) exact in
  close ~eps:1e-9 "sse on offset points" 0.5 (Acf_fit.sse p off)

let test_acf_fit_compensate () =
  (* Paper Eq 14: after compensation, the LRD level is boosted by 1/a
     and the SRD rate re-solved so exp(-lambda' knee) = r(knee)/a. *)
  let p = { Acf_fit.knee = 60; lambda = 0.00565; l = 1.59; beta = 0.2 } in
  let a = 0.94 in
  let c = Acf_fit.compensate p ~a in
  close ~eps:1e-12 "compensated l" (p.Acf_fit.l /. a) c.Acf_fit.l;
  let boosted_knee_value = Acf_fit.eval p 60 /. a in
  close ~eps:1e-9 "compensated continuity" boosted_knee_value (exp (-.c.Acf_fit.lambda *. 60.0));
  Alcotest.(check int) "knee unchanged" p.Acf_fit.knee c.Acf_fit.knee;
  close "beta unchanged" p.Acf_fit.beta c.Acf_fit.beta

let test_acf_fit_compensate_identity () =
  (* For a model continuous at the knee, a = 1 must be a no-op: pick
     l so that l knee^-beta = exp(-lambda knee). *)
  let knee = 40 and lambda = 0.01 and beta = 0.3 in
  let l = exp (-.lambda *. float_of_int knee) *. (float_of_int knee ** beta) in
  let p = { Acf_fit.knee; lambda; l; beta } in
  let c = Acf_fit.compensate p ~a:1.0 in
  close ~eps:1e-12 "a=1 keeps l" p.Acf_fit.l c.Acf_fit.l;
  close ~eps:1e-9 "a=1 keeps lambda" p.Acf_fit.lambda c.Acf_fit.lambda

let test_acf_fit_eval_real () =
  let p = { Acf_fit.knee = 60; lambda = 0.00565; l = 1.59; beta = 0.2 } in
  (* Agrees with eval at integer lags. *)
  for k = 0 to 120 do
    close ~eps:1e-12
      (Printf.sprintf "integer lag %d" k)
      (Acf_fit.eval p k)
      (Acf_fit.eval_real p (float_of_int k))
  done;
  (* Fractional lags interpolate the analytic curves, not linearly. *)
  close ~eps:1e-12 "fractional srd" (exp (-0.00565 *. 10.5)) (Acf_fit.eval_real p 10.5);
  close ~eps:1e-12 "fractional lrd" (1.59 *. (80.5 ** -0.2)) (Acf_fit.eval_real p 80.5);
  raises_invalid "negative real lag" (fun () -> ignore (Acf_fit.eval_real p (-0.1)))

let test_acf_fit_rescaled () =
  let p = { Acf_fit.knee = 60; lambda = 0.00565; l = 1.59; beta = 0.2 } in
  let acf = Acf_fit.rescaled_acf p ~period:12 in
  close "rescaled r(0)" 1.0 (acf.Acf.r 0);
  (* Multiples of the period hit the base model exactly (Eq 15). *)
  close ~eps:1e-12 "r(12) = base r(1)" (Acf_fit.eval p 1) (acf.Acf.r 12);
  close ~eps:1e-12 "r(720) = base r(60)" (Acf_fit.eval p 60) (acf.Acf.r 720);
  (* Fractional arguments follow the analytic pieces. *)
  close ~eps:1e-12 "r(6) = exp srd at 0.5" (exp (-0.00565 *. 0.5)) (acf.Acf.r 6);
  (* Monotone non-increasing for this model. *)
  let prev = ref 2.0 in
  for k = 0 to 1000 do
    let r = acf.Acf.r k in
    if r > !prev +. 1e-12 then Alcotest.failf "rescaled not monotone at %d" k;
    prev := r
  done;
  raises_invalid "period 0" (fun () -> ignore (Acf_fit.rescaled_acf p ~period:0))

let test_acf_memoize_consistent () =
  let calls = ref 0 in
  let base =
    Acf.of_fun ~name:"counted" (fun k ->
        incr calls;
        exp (-0.1 *. float_of_int k))
  in
  let memo = Acf.memoize base in
  let a = memo.Acf.r 5 in
  let b = memo.Acf.r 5 in
  close "memo stable" a b;
  Alcotest.(check int) "computed once" 1 !calls;
  close ~eps:1e-12 "memo correct" (exp (-0.5)) a;
  raises_invalid "negative" (fun () -> ignore (memo.Acf.r (-1)))

let test_acf_fit_invalid () =
  raises_invalid "too few points" (fun () -> Acf_fit.fit [ (1, 0.9); (2, 0.8) ]);
  let p = { Acf_fit.knee = 10; lambda = 0.1; l = 1.0; beta = 0.3 } in
  raises_invalid "bad a" (fun () -> Acf_fit.compensate p ~a:0.0);
  raises_invalid "a > 1" (fun () -> Acf_fit.compensate p ~a:1.5)

(* ------------------------------------------------------------------ *)
(* End-to-end invariance: H preserved under transformation (Appendix A) *)
(* ------------------------------------------------------------------ *)

let test_hurst_invariance_under_transform () =
  (* The theorem: Y = h(X) keeps X's Hurst parameter. Estimate H on
     both sides of a heavy transform of an FGN path. *)
  let h = 0.85 in
  let x = fgn_path ~h ~n:100_000 ~seed:20 in
  let t = Transform.make (Dist.lognormal ~mu:0.0 ~sigma:1.0) in
  let y = Transform.apply t x in
  let hx = (Hurst.variance_time x).Hurst.h in
  let hy = (Hurst.variance_time y).Hurst.h in
  if abs_float (hx -. hy) > 0.08 then
    Alcotest.failf "H not preserved: X %.3f vs Y %.3f" hx hy

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                    *)
(* ------------------------------------------------------------------ *)

let prop_fgn_acf_bounded =
  QCheck.Test.make ~name:"FGN autocorrelation lies in (-1,1]" ~count:100
    QCheck.(pair (float_range 0.01 0.99) (int_range 0 10_000))
    (fun (h, k) ->
      let r = (Acf.fgn ~h).Acf.r k in
      r <= 1.0 +. 1e-12 && r > -1.0)

let prop_fgn_acf_decreasing_for_lrd =
  QCheck.Test.make ~name:"FGN ACF decreasing for H > 0.5" ~count:100
    QCheck.(pair (float_range 0.55 0.95) (int_range 1 1000))
    (fun (h, k) ->
      let acf = Acf.fgn ~h in
      acf.Acf.r k >= acf.Acf.r (k + 1) -. 1e-12)

let prop_composite_eval_bounded =
  QCheck.Test.make ~name:"composite model stays in [-1,1]" ~count:200
    QCheck.(
      quad (int_range 1 200) (float_range 0.0001 0.5) (float_range 0.1 3.0)
        (float_range 0.05 0.95))
    (fun (knee, lambda, l, beta) ->
      let p = { Acf_fit.knee; lambda; l; beta } in
      List.for_all
        (fun k ->
          let r = Acf_fit.eval p k in
          r <= 1.0 && r >= -1.0)
        [ 0; 1; knee - 1; knee; knee + 1; 10 * knee ])

let prop_compensate_levels_up =
  QCheck.Test.make ~name:"compensation never lowers the LRD level" ~count:200
    QCheck.(pair (float_range 0.3 1.0) (float_range 0.1 2.0))
    (fun (a, l) ->
      let p = { Acf_fit.knee = 50; lambda = 0.01; l; beta = 0.2 } in
      (Acf_fit.compensate p ~a).Acf_fit.l >= p.Acf_fit.l -. 1e-12)

let prop_transform_monotone =
  QCheck.Test.make ~name:"transform is monotone for any gamma marginal" ~count:50
    QCheck.(
      triple (float_range 0.3 5.0) (float_range 0.2 4.0)
        (pair (float_range (-6.0) 6.0) (float_range (-6.0) 6.0)))
    (fun (shape, scale, (x1, x2)) ->
      let t = Transform.make (Dist.gamma ~shape ~scale) in
      let lo = Stdlib.min x1 x2 and hi = Stdlib.max x1 x2 in
      Transform.apply1 t lo <= Transform.apply1 t hi +. 1e-9)

let prop_fft_statistical_gate =
  (* The FFT tier's gate, across random Hurst exponents and every
     headline order: the sample ACF at all lags <= 100 within 0.05 of
     the exact tier's on the same seed, and variance-time H within
     0.03 of the exact tier's. Estimator-to-estimator bounds — the
     estimators' own LRD bias cancels, so the thresholds hold over
     the whole H range (the CI smoke gate additionally pins the
     averaged ACF to the *model* at its fixed operating point). Any
     partition misalignment or aliasing bug produces O(1) path
     divergence, so the margins here are enormous when the kernel is
     right. *)
  QCheck.Test.make ~name:"fft kernel within statistical gates of exact tier" ~count:4
    QCheck.(pair (float_range 0.55 0.9) (oneofl [ 64; 512; 2048 ]))
    (fun (h, order) ->
      let acf = Acf.fgn ~h in
      let n = 16_384 in
      let table = Hosking.Table.make ~acf ~n:(order + 1) in
      let seed = 46 + int_of_float (h *. 1000.0) in
      let xe = Array.make n 0.0 and xf = Array.make n 0.0 in
      Hosking.Block.fill (Hosking.Block.create ~table ~order ()) (Rng.create ~seed) xe
        ~off:0 ~len:n;
      Hosking.Block.fill
        (Hosking.Block.create ~fft_plan:(Hosking.Fft_plan.make ~table ~order) ~table ~order
           ())
        (Rng.create ~seed) xf ~off:0 ~len:n;
      let re = D.acf xe ~max_lag:100 and rf = D.acf xf ~max_lag:100 in
      let acf_ok = ref true in
      for k = 0 to 100 do
        if abs_float (re.(k) -. rf.(k)) > 0.05 then acf_ok := false
      done;
      let he = (Hurst.variance_time xe).Hurst.h
      and hf = (Hurst.variance_time xf).Hurst.h in
      !acf_ok && abs_float (he -. hf) <= 0.03)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_fgn_acf_bounded;
      prop_fgn_acf_decreasing_for_lrd;
      prop_composite_eval_bounded;
      prop_compensate_levels_up;
      prop_transform_monotone;
      prop_fft_statistical_gate;
    ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "ss_fractal"
    [
      ( "acf",
        [
          tc "lag 0 is 1" test_acf_lag_zero_is_one;
          tc "white noise" test_acf_white_noise;
          tc "fgn values" test_acf_fgn_values;
          tc "fgn tail exponent" test_acf_fgn_tail_exponent;
          tc "farima recursion" test_acf_farima_recursion;
          tc "farima tail exponent" test_acf_farima_tail_exponent;
          tc "composite pieces" test_acf_composite_pieces;
          tc "composite clamps" test_acf_composite_clamped;
          tc "lag rescale" test_acf_lag_rescale;
          tc "hurst recovery" test_acf_hurst_recovery;
          tc "to_array" test_acf_to_array;
          tc "invalid" test_acf_invalid;
        ] );
      ( "hosking",
        [
          tc "white noise" test_hosking_white_noise;
          tc "AR(1) structure" test_hosking_ar1_structure;
          tc "conditional variance decreasing" test_hosking_cond_var_decreasing;
          tc "FGN sample acf" test_hosking_fgn_sample_acf;
          tc "table = stream" test_hosking_table_vs_stream_distribution;
          tc "generate_into" test_hosking_generate_into_reuse;
          tc "row sums" test_hosking_row_sum;
          tc "invalid" test_hosking_invalid;
          tc "truncated prefix exact" test_hosking_truncated_prefix_exact;
          tc "truncated acf close" test_hosking_truncated_acf_close;
          tc "block kernel = truncated" test_hosking_block_matches_truncated;
          tc "block rewind = fresh generator" test_hosking_block_rewind;
          tc "fill_many = fill, bitwise" test_hosking_fill_many_matches_fill;
          tc "fill_many invalid" test_hosking_fill_many_invalid;
        ] );
      ( "relaxed-tier",
        [
          tc "ar_dot_relaxed close" test_ar_dot_relaxed_close;
          tc "block relaxed close to exact" test_block_relaxed_close_to_exact;
          tc "block relaxed deterministic" test_block_relaxed_deterministic;
          tc "block relaxed statistics" test_block_relaxed_statistics;
          tc "block relaxed fixture" test_block_relaxed_fixture;
        ] );
      ( "fft-tier",
        [
          tc "block fft close to exact" test_block_fft_close_to_exact;
          tc "block fft pull pattern" test_block_fft_pull_pattern;
          tc "block fft deterministic" test_block_fft_deterministic;
          tc "block fft statistics" test_block_fft_statistics;
          tc "block fft fixture" test_block_fft_fixture;
        ] );
      ( "davies-harte",
        [
          tc "FGN sample stats" test_dh_fgn_sample_stats;
          tc "white noise" test_dh_white_noise;
          tc "matches Hosking" test_dh_matches_hosking_statistically;
          tc "deterministic" test_dh_deterministic_given_seed;
          tc "FGN embeddable" test_dh_fgn_embeddable;
          tc "invalid" test_dh_invalid;
          tc "generate_into = generate" test_dh_generate_into_matches_generate;
          tc "cholesky oracle" test_generators_match_cholesky_oracle;
        ] );
      ( "paxson",
        [
          tc "plan basics" test_paxson_plan_basics;
          tc "deterministic" test_paxson_deterministic;
          tc "FGN sample stats" test_paxson_sample_stats;
          tc "white noise" test_paxson_white_noise;
          tc "statistical gates" test_paxson_statistical_gates;
          tc "generate_into = generate" test_paxson_generate_into_matches_generate;
          tc "invalid" test_paxson_invalid;
        ] );
      ( "hurst",
        [
          tc "white noise" test_hurst_white_noise;
          tc "FGN 0.9" test_hurst_fgn_high;
          tc "ordering" test_hurst_fgn_ordering;
          tc "points and fits" test_hurst_points_and_fit_exposed;
          tc "invalid" test_hurst_invalid;
        ] );
      ( "transform",
        [
          tc "identity on gaussian" test_transform_identity_on_gaussian;
          tc "marginal match" test_transform_marginal_match;
          tc "monotone" test_transform_monotone;
          tc "clamps extremes" test_transform_clamps_extremes;
          tc "relax close to exact" test_transform_relax_close;
          tc "apply_into = apply1, bitwise" test_transform_apply_into_bitwise;
          tc "fill_many + apply_into allocate nothing" test_fill_many_apply_into_no_alloc;
          tc "per-source block fill allocates nothing" test_block_fill_no_alloc;
          tc "attenuation of linear is 1" test_attenuation_identity_is_one;
          tc "moments memo" test_transform_moments;
          tc "attenuation in (0,1]" test_attenuation_in_unit_interval;
          tc "attenuation closed form" test_attenuation_exponential_closed_form;
          tc "measured vs theory" test_attenuation_measured_close_to_theory;
          tc "hermite coefficients" test_hermite_coefficients;
          tc "predicted rh limits" test_predicted_rh_limits;
          tc "predicted rh vs simulation" test_predicted_rh_matches_simulation;
          tc "invalid" test_transform_invalid;
        ] );
      ( "acf-fit",
        [
          tc "eval matches model" test_acf_fit_eval_matches_model;
          tc "recovers exact model" test_acf_fit_recovers_exact_model;
          tc "fixed beta" test_acf_fit_fixed_beta;
          tc "noisy recovery" test_acf_fit_noisy_recovery;
          tc "sse" test_acf_fit_sse;
          tc "compensate (Eq 14)" test_acf_fit_compensate;
          tc "compensate identity" test_acf_fit_compensate_identity;
          tc "eval_real" test_acf_fit_eval_real;
          tc "rescaled (Eq 15)" test_acf_fit_rescaled;
          tc "memoize" test_acf_memoize_consistent;
          tc "invalid" test_acf_fit_invalid;
        ] );
      ("invariance", [ tc "H preserved under h (Appendix A)" test_hurst_invariance_under_transform ]);
      ("properties", qcheck_cases);
    ]
