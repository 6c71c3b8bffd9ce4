(* Tests for the streaming multiplexer subsystem: Online_stats
   (Welford + P2), streaming sources, the shared-buffer multiplexer
   (including exact equivalence with Trace_sim), and Norros
   effective-bandwidth admission control. *)

module Rng = Ss_stats.Rng
module D = Ss_stats.Descriptive
module Online = Ss_stats.Online_stats
module Acf = Ss_fractal.Acf
module Hosking = Ss_fractal.Hosking
module Trace_sim = Ss_queueing.Trace_sim
module Lindley = Ss_queueing.Lindley
module Mc = Ss_queueing.Mc
module Source = Ss_mux.Source
module Mux = Ss_mux.Mux
module Mux_is = Ss_mux.Mux_is
module Admission = Ss_mux.Admission
module Fault = Ss_mux.Fault
module Police = Ss_mux.Police
module Pool = Ss_parallel.Pool
module Scene = Ss_video.Scene_source
module Gop = Ss_video.Gop
module Frame = Ss_video.Frame

let close ?(eps = 1e-9) msg expected actual =
  if abs_float (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let raises_invalid ?(prefix = "") msg f =
  match f () with
  | exception Invalid_argument m when String.starts_with ~prefix m -> ()
  | exception Invalid_argument m -> Alcotest.failf "%s: message %S lacks %S" msg m prefix
  | _ -> Alcotest.failf "%s: expected Invalid_argument" msg

(* Small fitted model shared by the source/mux tests (lazy: only paid
   when first needed). *)
let small_model =
  lazy
    (let trace =
       Scene.generate
         { Scene.default with frames = 8192; gop = Gop.of_string "I" }
         (Rng.create ~seed:11)
     in
     fst (Ss_core.Fit.fit ~max_lag:100 trace.Ss_video.Trace.sizes))

let small_mpeg =
  lazy
    (let trace =
       Scene.generate { Scene.default with frames = 6144 } (Rng.create ~seed:12)
     in
     Ss_core.Mpeg.fit ~i_max_lag:20 trace)

(* ------------------------------------------------------------------ *)
(* Online_stats: Welford accumulator                                    *)
(* ------------------------------------------------------------------ *)

let test_online_empty_raises () =
  let t = Online.create () in
  raises_invalid "mean of empty" (fun () -> Online.mean t);
  raises_invalid "variance of empty" (fun () -> Online.variance t);
  raises_invalid "min of empty" (fun () -> Online.min t);
  Online.add t 1.0;
  raises_invalid "sample variance of one" (fun () -> Online.sample_variance t)

let test_online_matches_descriptive () =
  let rng = Rng.create ~seed:21 in
  let xs = Array.init 5000 (fun _ -> Rng.exponential rng ~rate:0.01) in
  let t = Online.create () in
  Array.iter (Online.add t) xs;
  Alcotest.(check int) "count" 5000 (Online.count t);
  close ~eps:1e-7 "mean" (D.mean xs) (Online.mean t);
  close ~eps:1e-4 "variance" (D.variance xs) (Online.variance t);
  close ~eps:1e-4 "sample variance" (D.sample_variance xs) (Online.sample_variance t);
  close "min" (D.min xs) (Online.min t);
  close "max" (D.max xs) (Online.max t)

let prop_online_matches_descriptive =
  QCheck.Test.make ~name:"online mean/variance match Descriptive" ~count:100
    QCheck.(array_of_size Gen.(int_range 2 500) (float_range (-1000.0) 1000.0))
    (fun xs ->
      let t = Online.create () in
      Array.iter (Online.add t) xs;
      let scale = 1.0 +. abs_float (D.mean xs) +. D.variance xs in
      abs_float (Online.mean t -. D.mean xs) < 1e-9 *. scale
      && abs_float (Online.variance t -. D.variance xs) < 1e-7 *. scale
      && Online.min t = D.min xs
      && Online.max t = D.max xs)

let prop_online_merge =
  QCheck.Test.make ~name:"merged accumulators = accumulator of concatenation" ~count:100
    QCheck.(
      pair
        (array_of_size Gen.(int_range 1 200) (float_range (-100.0) 100.0))
        (array_of_size Gen.(int_range 1 200) (float_range (-100.0) 100.0)))
    (fun (a, b) ->
      let ta = Online.create () and tb = Online.create () and tall = Online.create () in
      Array.iter (Online.add ta) a;
      Array.iter (Online.add tb) b;
      Array.iter (Online.add tall) (Array.append a b);
      let m = Online.merge ta tb in
      Online.count m = Online.count tall
      && abs_float (Online.mean m -. Online.mean tall) < 1e-9
      && abs_float (Online.variance m -. Online.variance tall) < 1e-6
      && Online.min m = Online.min tall
      && Online.max m = Online.max tall)

(* ------------------------------------------------------------------ *)
(* Online_stats: P2 quantile estimator                                  *)
(* ------------------------------------------------------------------ *)

let test_p2_invalid () =
  raises_invalid "p = 0" (fun () -> Online.P2.create ~p:0.0);
  raises_invalid "p = 1" (fun () -> Online.P2.create ~p:1.0);
  raises_invalid "empty quantile" (fun () -> Online.P2.quantile (Online.P2.create ~p:0.5))

let test_p2_small_n_exact () =
  let t = Online.P2.create ~p:0.5 in
  List.iter (Online.P2.add t) [ 3.0; 1.0; 2.0 ];
  close "exact small-n median" 2.0 (Online.P2.quantile t);
  let t9 = Online.P2.create ~p:0.9 in
  List.iter (Online.P2.add t9) [ 10.0; 20.0 ];
  (* type-7 0.9-quantile of {10,20} = 19 *)
  close "exact small-n 0.9" 19.0 (Online.P2.quantile t9)

let test_p2_small_n_order_statistics () =
  (* With fewer than five observations the estimate must be the exact
     type-7 empirical quantile for every p — identical to
     Descriptive.quantile on the sorted prefix. *)
  let xs = [| 7.0; -2.0; 11.0; 4.0 |] in
  for n = 1 to 4 do
    let prefix = Array.sub xs 0 n in
    List.iter
      (fun p ->
        let t = Online.P2.create ~p in
        Array.iter (Online.P2.add t) prefix;
        close ~eps:1e-12
          (Printf.sprintf "n=%d p=%g" n p)
          (D.quantile prefix p) (Online.P2.quantile t))
      [ 0.1; 0.25; 0.5; 0.75; 0.9 ]
  done

let test_p2_small_n_infinity_regression () =
  (* Regression: an infinite sample among the first five used to turn
     a small-n quantile into NaN via 0 * infinity in the type-7
     interpolation. At an integral rank the estimate must clamp to
     the order statistic itself. *)
  let t = Online.P2.create ~p:0.5 in
  List.iter (Online.P2.add t) [ 1.0; 2.0; infinity ];
  let q = Online.P2.quantile t in
  if Float.is_nan q then Alcotest.fail "median of {1,2,inf} is NaN";
  close "exact median despite infinity" 2.0 q;
  (* A rank that genuinely interpolates toward the infinite order
     statistic is infinite, not NaN. *)
  let t9 = Online.P2.create ~p:0.9 in
  List.iter (Online.P2.add t9) [ 1.0; 2.0; infinity ];
  let q9 = Online.P2.quantile t9 in
  if Float.is_nan q9 then Alcotest.fail "0.9-quantile is NaN";
  close "interpolated toward infinity" infinity q9;
  (* And a fully finite interpolation around the infinity stays
     finite. *)
  let t4 = Online.P2.create ~p:0.5 in
  List.iter (Online.P2.add t4) [ 1.0; 2.0; 3.0; infinity ];
  close "finite interior interpolation" 2.5 (Online.P2.quantile t4)

let p2_vs_exact ~seed ~n ~p sample tolerance =
  let rng = Rng.create ~seed in
  let xs = Array.init n (fun _ -> sample rng) in
  let t = Online.P2.create ~p in
  Array.iter (Online.P2.add t) xs;
  let exact = D.quantile xs p in
  let err = abs_float (Online.P2.quantile t -. exact) in
  if err > tolerance then
    Alcotest.failf "P2(%g) off by %g (exact %g, est %g)" p err exact (Online.P2.quantile t)

let test_p2_uniform () =
  (* Uniform(0,1): quantile = p; generous i.i.d. tolerances. *)
  List.iter
    (fun p -> p2_vs_exact ~seed:31 ~n:20_000 ~p (fun rng -> Rng.float rng) 0.01)
    [ 0.1; 0.5; 0.9; 0.99 ]

let test_p2_exponential () =
  List.iter
    (fun (p, tol) ->
      p2_vs_exact ~seed:32 ~n:20_000 ~p (fun rng -> Rng.exponential rng ~rate:1.0) tol)
    [ (0.5, 0.05); (0.9, 0.1); (0.99, 0.5) ]

let prop_p2_within_range =
  QCheck.Test.make ~name:"P2 estimate stays within observed range" ~count:100
    QCheck.(
      pair (float_range 0.05 0.95)
        (array_of_size Gen.(int_range 6 500) (float_range (-50.0) 50.0)))
    (fun (p, xs) ->
      let t = Online.P2.create ~p in
      Array.iter (Online.P2.add t) xs;
      let q = Online.P2.quantile t in
      q >= D.min xs && q <= D.max xs)

(* ------------------------------------------------------------------ *)
(* Online_stats.Vt: streaming variance-time H estimation               *)
(* ------------------------------------------------------------------ *)

let test_vt_estimates_fgn_hurst () =
  (* On an H = 0.9 FGN path the streaming estimate must land near the
     true H; variance-time is a biased-low estimator on finite paths,
     hence the asymmetric-looking but absolute band. *)
  let acf = Acf.fgn ~h:0.9 in
  let xs = Hosking.generate_truncated ~acf ~n:16384 ~max_order:64 (Rng.create ~seed:21) in
  let vt = Online.Vt.create () in
  Array.iter (Online.Vt.add vt) xs;
  Alcotest.(check int) "count" 16384 (Online.Vt.count vt);
  match Online.Vt.estimate vt with
  | None -> Alcotest.fail "estimate must be available after 16384 samples"
  | Some h -> if abs_float (h -. 0.9) > 0.12 then Alcotest.failf "H estimate %g far from 0.9" h

let test_vt_white_noise_is_half () =
  let rng = Rng.create ~seed:22 in
  let vt = Online.Vt.create () in
  for _ = 1 to 16384 do
    Online.Vt.add vt (Rng.gaussian rng)
  done;
  match Online.Vt.estimate vt with
  | None -> Alcotest.fail "estimate must be available"
  | Some h -> if abs_float (h -. 0.5) > 0.1 then Alcotest.failf "H estimate %g far from 0.5" h

let test_vt_warmup_and_invalid () =
  raises_invalid "levels < 3" (fun () -> ignore (Online.Vt.create ~levels:2 ()));
  let vt = Online.Vt.create () in
  (* Too few samples: no estimate rather than a garbage fit. *)
  for _ = 1 to 16 do
    Online.Vt.add vt 1.0
  done;
  (match Online.Vt.estimate vt with
  | None -> ()
  | Some h -> Alcotest.failf "estimate %g from 16 constant samples" h);
  (* A constant stream never has positive block variance. *)
  for _ = 1 to 4096 do
    Online.Vt.add vt 1.0
  done;
  match Online.Vt.estimate vt with
  | None -> ()
  | Some h -> Alcotest.failf "estimate %g from a constant stream" h

(* ------------------------------------------------------------------ *)
(* Source                                                               *)
(* ------------------------------------------------------------------ *)

let test_source_of_array () =
  let s = Source.of_array [| 1.0; 2.0; 3.0 |] in
  close "mean" 2.0 s.Source.mean;
  Alcotest.(check (list (float 1e-12)))
    "replays in order" [ 1.0; 2.0; 3.0 ]
    (List.init 3 (fun _ -> fst (Source.next s)));
  (match Source.next s with
  | exception Source.End_of_stream -> ()
  | _ -> Alcotest.fail "exhausted: expected End_of_stream");
  let c = Source.of_array ~cycle:true [| 5.0; 6.0 |] in
  Alcotest.(check (list (float 1e-12)))
    "cycles" [ 5.0; 6.0; 5.0 ]
    (List.init 3 (fun _ -> fst (Source.next c)))

let test_source_invalid () =
  raises_invalid "empty array" (fun () -> Source.of_array [||]);
  raises_invalid "bad hurst" (fun () ->
      Source.make ~name:"x" ~mean:1.0 ~sigma2:1.0 ~hurst:1.5 (fun () -> (0.0, 0)));
  raises_invalid "bad order" (fun () ->
      ignore
        (Source.background_stream ~acf:(Acf.fgn ~h:0.9) ~order:0 (Rng.create ~seed:1)
          : unit -> float))

let test_background_stream_matches_truncated_hosking () =
  (* The streaming generator is the truncated-Hosking path, slot by
     slot: same RNG seed, bit-identical output. *)
  let acf = Acf.fgn ~h:0.9 in
  let order = 32 and n = 200 in
  let reference =
    Hosking.generate_truncated ~acf ~n ~max_order:order (Rng.create ~seed:42)
  in
  let stream = Source.background_stream ~acf ~order (Rng.create ~seed:42) in
  Array.iteri (fun i x -> close ~eps:0.0 (Printf.sprintf "slot %d" i) x (stream ())) reference

let test_source_of_model_streams () =
  let m = Lazy.force small_model in
  let s = Source.of_model ~order:64 m (Rng.create ~seed:5) in
  close "mean bookkeeping" m.Ss_core.Model.mean s.Source.mean;
  if s.Source.sigma2 <= 0.0 then Alcotest.fail "sigma2 must be positive";
  for _ = 1 to 500 do
    let w, c = Source.next s in
    if w < 0.0 then Alcotest.fail "negative arrival";
    Alcotest.(check int) "class 0" 0 c
  done

let test_source_of_model_clamps_negatives () =
  (* Regression: a marginal whose inverse CDF dips below zero (plain
     normal) used to emit negative work, which Mux.run rejects with
     Invalid_argument mid-simulation. of_model must clamp at zero. *)
  let transform = Ss_fractal.Transform.make (Ss_stats.Dist.normal ~mean:0.5 ~std:2.0) in
  let m =
    {
      Ss_core.Model.transform;
      dependence = Ss_core.Model.Lrd_only 0.8;
      background = Acf.fgn ~h:0.8;
      hurst = 0.8;
      attenuation = Ss_fractal.Transform.attenuation transform;
      mean = 0.5;
    }
  in
  let s = Source.of_model ~order:32 m (Rng.create ~seed:7) in
  let saw_zero = ref false in
  for _ = 1 to 2000 do
    let w, _ = Source.next s in
    if w < 0.0 then Alcotest.fail "negative work escaped the clamp";
    if w = 0.0 then saw_zero := true
  done;
  if not !saw_zero then Alcotest.fail "marginal never dipped negative; test is vacuous";
  (* The twisted scalar pull clamps the same way, slot for slot. *)
  let plain = Source.of_model ~order:32 m (Rng.create ~seed:7) in
  let twisted = Source.of_model_twisted ~order:32 ~shift:(fun _ -> 0.0) m (Rng.create ~seed:7) in
  for k = 1 to 2000 do
    let w, _ = Source.next plain and w', _ = Source.next twisted in
    if Int64.bits_of_float w <> Int64.bits_of_float w' then
      Alcotest.failf "slot %d: twisted clamp %.17g <> plain %.17g" k w' w
  done;
  let s2 = Source.of_model ~order:32 m (Rng.create ~seed:7) in
  let (_ : Mux.report) = Mux.run ~service:1.0 ~slots:2000 [| s2 |] in
  ()

let test_source_table_for_error_prefix () =
  match Source.table_for ~acf:Acf.white_noise ~order:0 with
  | exception Invalid_argument msg ->
    let prefix = "Source.table_for" in
    let n = String.length prefix in
    if String.length msg < n || String.sub msg 0 n <> prefix then
      Alcotest.failf "wrong error prefix: %s" msg
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_source_twisted_zero_shift_identity () =
  (* With a zero shift the twisted generator performs the same float
     operations as the plain one: bit-identical output, and the probe
     reports every innovation. *)
  let m = Lazy.force small_model in
  let plain = Source.of_model ~order:48 m (Rng.create ~seed:8) in
  let probed = ref 0 in
  let twisted =
    Source.of_model_twisted ~order:48
      ~shift:(fun _ -> 0.0)
      ~probe:(fun ~k:_ ~innovation:_ -> incr probed)
      m (Rng.create ~seed:8)
  in
  for t = 0 to 299 do
    let w, _ = Source.next plain in
    let w', _ = Source.next twisted in
    if w <> w' then Alcotest.failf "slot %d: %h <> %h" t w w'
  done;
  Alcotest.(check int) "probe saw every innovation" 300 !probed

let test_source_twisted_fixture () =
  (* Captured as [Int64.bits_of_float] from the per-slot scalar
     recursion that twisted sources ran before they moved onto the
     block kernel: a non-constant shift, pulled in ragged blocks. *)
  let m = Lazy.force small_model in
  let inn = ref 0.0 and calls = ref 0 in
  let s =
    Source.of_model_twisted ~order:48
      ~shift:(fun k -> 0.25 +. (0.05 *. float_of_int (k mod 7)))
      ~probe:(fun ~k ~innovation ->
        if k <> !calls then Alcotest.failf "innovation %d reported as %d" !calls k;
        incr calls;
        inn := !inn +. innovation)
      m (Rng.create ~seed:17)
  in
  let n = 300 in
  let w = Array.make n nan and c = Array.make n (-1) in
  let got = ref 0 in
  while !got < n do
    got := !got + Source.next_block s w c ~off:!got ~len:(Stdlib.min 37 (n - !got))
  done;
  let check name want x =
    if Int64.bits_of_float x <> want then
      Alcotest.failf "%s: got %.17g (0x%LxL), want %.17g" name x (Int64.bits_of_float x)
        (Int64.float_of_bits want)
  in
  Alcotest.(check int) "one innovation per slot" n !calls;
  check "sum of arrivals" 0x414377bea35c4953L (Array.fold_left ( +. ) 0.0 w);
  check "sum of innovations" 0xbfe400dd758c6934L !inn;
  check "slot 0" 0x40b9720000000000L w.(0);
  check "slot 47" 0x40b7f10000000000L w.(47);
  check "slot 48" 0x40b93d0000000000L w.(48);
  check "slot 299" 0x40c3ceb28756e50eL w.(299)

let test_source_of_mpeg_classes () =
  let m = Lazy.force small_mpeg in
  let gop = m.Ss_core.Mpeg.gop in
  let phase = 3 in
  let s = Source.of_mpeg ~order:32 ~phase ~priority:true m (Rng.create ~seed:6) in
  for t = 0 to (2 * Gop.length gop) - 1 do
    let _, c = Source.next s in
    let expect =
      match Gop.kind_at gop (phase + t) with Frame.I -> 0 | Frame.P -> 1 | Frame.B -> 2
    in
    Alcotest.(check int) (Printf.sprintf "class at slot %d" t) expect c
  done

(* Drain [n] slots of [s] through [next_block] at block size [bs],
   writing works/classes from offset 0. Fails on a short fill. *)
let drain_blocks s bs wbuf cbuf n =
  let got = ref 0 in
  while !got < n do
    let len = Stdlib.min bs (n - !got) in
    let f = Source.next_block s wbuf cbuf ~off:!got ~len in
    if f <> len then Alcotest.failf "short fill (%d of %d at slot %d)" f len !got;
    got := !got + f
  done

let bits = Int64.bits_of_float
let same_floats a b = Array.for_all2 (fun x y -> bits x = bits y) a b

(* An exact model source's first [n] slots computed independently of
   the block kernel: the truncated-Hosking recursion the kernel is
   pinned against in [test_fractal], then the scalar marginal
   transform and the zero clamp. *)
let reference_slots m ~order ~n seed =
  let bg =
    Hosking.generate_truncated ~acf:(Ss_core.Model.background_acf m) ~n ~max_order:order
      (Rng.create ~seed)
  in
  Array.map
    (fun x ->
      let w = Ss_fractal.Transform.apply1 m.Ss_core.Model.transform x in
      if 0.0 >= w then 0.0 else w)
    bg

let test_source_block_scalar_bit_identity () =
  (* The tentpole contract: for every order and block size, the block
     pull, the scalar pull on the block-backed source, and an
     independent reference (truncated Hosking, scalar transform,
     clamp) produce the same slots bit for bit. *)
  let m = Lazy.force small_model in
  List.iter
    (fun order ->
      let n = order + 300 in
      let expect = reference_slots m ~order ~n 4311 in
      let scalar = Source.of_model ~order m (Rng.create ~seed:4311) in
      Array.iteri
        (fun i x ->
          let w, c = Source.next scalar in
          if c <> 0 then Alcotest.failf "order %d scalar slot %d: class %d" order i c;
          if bits w <> bits x then
            Alcotest.failf "order %d scalar slot %d: %h <> %h" order i x w)
        expect;
      List.iter
        (fun bs ->
          let s = Source.of_model ~order m (Rng.create ~seed:4311) in
          let wbuf = Array.make n nan and cbuf = Array.make n (-1) in
          drain_blocks s bs wbuf cbuf n;
          for i = 0 to n - 1 do
            if bits wbuf.(i) <> bits expect.(i) then
              Alcotest.failf "order %d block %d slot %d: %h <> %h" order bs i expect.(i)
                wbuf.(i);
            if cbuf.(i) <> 0 then
              Alcotest.failf "order %d block %d slot %d: class %d" order bs i cbuf.(i)
          done)
        [ 1; 7; 256 ])
    [ 64; 512 ]

let test_source_mpeg_block_scalar_bit_identity () =
  (* Same contract for MPEG sources, including the I/P/B class labels
     riding along with the work. *)
  let m = Lazy.force small_mpeg in
  let n = 400 in
  let mk () = Source.of_mpeg ~order:32 ~phase:2 ~priority:true m (Rng.create ~seed:4312) in
  let scalar = mk () in
  let expect = Array.init n (fun _ -> Source.next scalar) in
  List.iter
    (fun bs ->
      let s = mk () in
      let wbuf = Array.make n nan and cbuf = Array.make n (-1) in
      drain_blocks s bs wbuf cbuf n;
      Array.iteri
        (fun i (w, c) ->
          if bits wbuf.(i) <> bits w then
            Alcotest.failf "block %d slot %d: %h <> %h" bs i w wbuf.(i);
          if cbuf.(i) <> c then
            Alcotest.failf "block %d slot %d: class %d <> %d" bs i c cbuf.(i))
        expect)
    [ 1; 7; 256 ]

let test_source_block_scalar_interleave_coherent () =
  (* Scalar and block pulls on one source must consume the same
     underlying stream: mixing them at ragged boundaries still yields
     the independent reference's slots in order. *)
  let m = Lazy.force small_model in
  let order = 64 in
  let n = 257 in
  let expect = reference_slots m ~order ~n 4313 in
  let s = Source.of_model ~order m (Rng.create ~seed:4313) in
  let wbuf = Array.make n nan and cbuf = Array.make n 0 in
  let i = ref 0 and step = ref 0 in
  while !i < n do
    if !step land 1 = 0 then begin
      let w, _ = Source.next s in
      wbuf.(!i) <- w;
      incr i
    end
    else begin
      let len = Stdlib.min (1 + (!step mod 5)) (n - !i) in
      i := !i + Source.next_block s wbuf cbuf ~off:!i ~len
    end;
    incr step
  done;
  for j = 0 to n - 1 do
    if bits wbuf.(j) <> bits expect.(j) then
      Alcotest.failf "slot %d differs under interleaved consumption" j
  done

let test_source_dh_backend_contract () =
  let m = Lazy.force small_model in
  raises_invalid "DH without horizon" (fun () ->
      Source.of_model ~backend:`Davies_harte m (Rng.create ~seed:1));
  raises_invalid "bad horizon" (fun () ->
      Source.of_model ~backend:`Davies_harte ~horizon:0 m (Rng.create ~seed:1));
  let horizon = 200 in
  let mk () =
    Source.of_model ~order:64 ~backend:`Davies_harte ~horizon m (Rng.create ~seed:4314)
  in
  (* Scalar and block consumption agree bit for bit, and the source
     departs cleanly once the fixed-length path is exhausted. *)
  let scalar = mk () in
  let expect = Array.init horizon (fun _ -> fst (Source.next scalar)) in
  (match Source.next scalar with
  | exception Source.End_of_stream -> ()
  | _ -> Alcotest.fail "DH source did not depart at its horizon");
  List.iter
    (fun bs ->
      let s = mk () in
      let wbuf = Array.make (horizon + bs) nan and cbuf = Array.make (horizon + bs) 0 in
      let got = ref 0 and short = ref false in
      while not !short do
        let f = Source.next_block s wbuf cbuf ~off:!got ~len:bs in
        got := !got + f;
        if f < bs then short := true
      done;
      Alcotest.(check int) "horizon slots" horizon !got;
      Alcotest.(check int) "drained source fills 0" 0
        (Source.next_block s wbuf cbuf ~off:0 ~len:bs);
      for i = 0 to horizon - 1 do
        if bits wbuf.(i) <> bits expect.(i) then
          Alcotest.failf "DH block %d slot %d differs from scalar" bs i
      done)
    [ 1; 7; 64 ];
  (* A finite horizon under the default Hosking backend departs the
     same way, short-filling at the boundary. *)
  let s = Source.of_model ~order:16 ~horizon:50 m (Rng.create ~seed:7) in
  let wbuf = Array.make 64 0.0 and cbuf = Array.make 64 0 in
  Alcotest.(check int) "Hosking horizon short fill" 50
    (Source.next_block s wbuf cbuf ~off:0 ~len:64)

let test_source_dh_backend_statistics () =
  (* The Davies-Harte backend must synthesize a background whose
     sample ACF tracks the composite-knee target across the knee and
     whose variance-time Hurst estimate recovers H. Single LRD paths
     carry O(n^{H-1}) statistical error, so both statistics are
     averaged over independent paths from one split stream. *)
  let hurst = 0.9 in
  let knee = 60 and lambda = 0.005 in
  let beta = 2.0 -. (2.0 *. hurst) in
  (* Jump-free at the knee so the circulant embedding stays positive:
     l chosen so the exponential and power pieces meet at k = knee. *)
  let l = exp (-.lambda *. float_of_int knee) *. (float_of_int knee ** beta) in
  let acf = Acf.composite ~knee ~lambda ~l ~beta in
  let n = 1 lsl 17 in
  let plan = Source.plan_for ~acf ~n () in
  (* The background is exactly zero-mean by construction, so the
     uncentered estimator avoids the O(n^{2H-2}) wandering-mean bias
     of the centered sample ACF. *)
  let raw_acf xs lag =
    let num = ref 0.0 and den = ref 0.0 in
    for i = 0 to n - 1 - lag do
      num := !num +. (xs.(i) *. xs.(i + lag))
    done;
    for i = 0 to n - 1 do
      den := !den +. (xs.(i) *. xs.(i))
    done;
    !num /. float_of_int (n - lag) /. (!den /. float_of_int n)
  in
  let lags = [ 1; 10; 30; 59; 60; 61; 120; 240 ] in
  let reps = 16 in
  let rng = Rng.create ~seed:424242 in
  let acf_acc = Array.make (List.length lags) 0.0 in
  let h_acc = ref 0.0 in
  for _ = 1 to reps do
    let xs = Ss_fractal.Davies_harte.generate plan (Rng.split rng) in
    List.iteri (fun i lag -> acf_acc.(i) <- acf_acc.(i) +. raw_acf xs lag) lags;
    (* Aggregation window straddling the knee: below max_m = 1000
       every cell still averages >= 131 blocks, keeping the classic
       few-correlated-blocks downward bias of the VT plot small. *)
    let vt = Ss_fractal.Hurst.variance_time ~min_m:30 ~max_m:1000 xs in
    h_acc := !h_acc +. vt.Ss_fractal.Hurst.h
  done;
  List.iteri
    (fun i lag ->
      close ~eps:0.05
        (Printf.sprintf "sample ACF at lag %d" lag)
        (acf.Acf.r lag)
        (acf_acc.(i) /. float_of_int reps))
    lags;
  close ~eps:0.03 "variance-time H" hurst (!h_acc /. float_of_int reps)

let test_source_paxson_backend_contract () =
  (* The former Paxson backend is Davies-Harte with clipping. On a
     background that is not embeddable at the horizon, the default
     source refuses and [~allow_clipping:true] synthesizes it. *)
  let rect =
    Acf.of_fun ~name:"rect-acf" (fun k -> if k = 0 then 1.0 else if k <= 8 then 0.95 else 0.0)
  in
  let m = Ss_core.Model.with_background (Lazy.force small_model) rect in
  let horizon = 200 in
  raises_invalid "strict Davies-Harte refuses" (fun () ->
      Source.of_model ~backend:`Davies_harte ~horizon m (Rng.create ~seed:1));
  raises_invalid "clipping without horizon" (fun () ->
      Source.of_model ~backend:`Davies_harte ~allow_clipping:true m (Rng.create ~seed:1));
  raises_invalid "bad horizon" (fun () ->
      Source.of_model ~backend:`Davies_harte ~allow_clipping:true ~horizon:0 m
        (Rng.create ~seed:1));
  let mk () =
    Source.of_model ~order:64 ~backend:`Davies_harte ~allow_clipping:true ~horizon m
      (Rng.create ~seed:4316)
  in
  (* The materialized-backend contract holds on a clipped path too:
     scalar and block consumption agree bit for bit and the source
     departs cleanly at its horizon. *)
  let scalar = mk () in
  let expect = Array.init horizon (fun _ -> fst (Source.next scalar)) in
  (match Source.next scalar with
  | exception Source.End_of_stream -> ()
  | _ -> Alcotest.fail "clipping source did not depart at its horizon");
  List.iter
    (fun bs ->
      let s = mk () in
      let wbuf = Array.make (horizon + bs) nan and cbuf = Array.make (horizon + bs) 0 in
      let got = ref 0 and short = ref false in
      while not !short do
        let f = Source.next_block s wbuf cbuf ~off:!got ~len:bs in
        got := !got + f;
        if f < bs then short := true
      done;
      Alcotest.(check int) "horizon slots" horizon !got;
      Alcotest.(check int) "drained source fills 0" 0
        (Source.next_block s wbuf cbuf ~off:0 ~len:bs);
      for i = 0 to horizon - 1 do
        if bits wbuf.(i) <> bits expect.(i) then
          Alcotest.failf "clipping block %d slot %d differs from scalar" bs i
      done)
    [ 1; 7; 64 ];
  (* All arrivals are marginal workloads: finite and non-negative. *)
  Array.iteri
    (fun i w ->
      if not (Float.is_finite w) || w < 0.0 then
        Alcotest.failf "clipping arrival %d invalid: %g" i w)
    expect

let test_source_relaxed_precision () =
  (* Relaxed arithmetic is a different arithmetic, not a different
     process. At order 32 the fft kernel never reaches its FFT and
     runs the removed relaxed tier's stream: the reassociated dot and
     the erf-free CDF. Same seed must give the same marginals up to
     their rounding drift, and the stream must be deterministic. *)
  let m = Lazy.force small_model in
  let n = 256 in
  let take s = Array.init n (fun _ -> fst (Source.next s)) in
  let mk kernel = Source.of_model ~order:32 ~kernel m (Rng.create ~seed:4317) in
  let exact = take (mk `Exact) and relaxed = take (mk `Fft) in
  let relaxed' = take (mk `Fft) in
  for i = 0 to n - 1 do
    if bits relaxed.(i) <> bits relaxed'.(i) then
      Alcotest.failf "relaxed tier not deterministic at slot %d" i;
    let tol = 1e-5 *. (1.0 +. abs_float exact.(i)) in
    if abs_float (exact.(i) -. relaxed.(i)) > tol then
      Alcotest.failf "slot %d: exact %.17g vs relaxed %.17g" i exact.(i) relaxed.(i)
  done;
  (* `Exact` is the default: an explicit request is bit-identical to
     omitting the argument (this is the committed-fixture guarantee). *)
  let default = take (Source.of_model ~order:32 m (Rng.create ~seed:4317)) in
  let explicit = take (mk `Exact) in
  for i = 0 to n - 1 do
    if bits default.(i) <> bits explicit.(i) then
      Alcotest.failf "explicit `Exact differs from default at slot %d" i
  done;
  (* The relaxed transform composes with MPEG sources and with a
     clipped Davies-Harte background. *)
  let mp = Lazy.force small_mpeg in
  let s = Source.of_mpeg ~order:16 ~kernel:`Fft mp (Rng.create ~seed:4318) in
  for _ = 1 to 64 do
    let w, _ = Source.next s in
    if not (Float.is_finite w) || w < 0.0 then Alcotest.fail "relaxed mpeg arrival invalid"
  done;
  let s =
    Source.of_model ~backend:`Davies_harte ~allow_clipping:true ~kernel:`Fft ~horizon:32 m
      (Rng.create ~seed:4319)
  in
  for _ = 1 to 32 do
    let w, _ = Source.next s in
    if not (Float.is_finite w) || w < 0.0 then Alcotest.fail "relaxed clipping arrival invalid"
  done

let test_source_fft_kernel () =
  (* The FFT tier is a different arithmetic over the same innovation
     stream: same seed must track the exact tier up to the rounding
     drift of the spectral reassociation (plus the relaxed marginal
     transform it rides), and must itself be deterministic. Order 160 > one partition, n spanning several
     blocks, so the overlap-save path (not just the sequential
     warmup) is exercised. *)
  let m = Lazy.force small_model in
  let n = 1024 in
  let take s = Array.init n (fun _ -> fst (Source.next s)) in
  let mk kernel = Source.of_model ~order:160 ~kernel m (Rng.create ~seed:4321) in
  let exact = take (mk `Exact) and fft = take (mk `Fft) in
  let fft' = take (mk `Fft) in
  for i = 0 to n - 1 do
    if bits fft.(i) <> bits fft'.(i) then
      Alcotest.failf "fft tier not deterministic at slot %d" i;
    let tol = 1e-5 *. (1.0 +. abs_float exact.(i)) in
    if abs_float (exact.(i) -. fft.(i)) > tol then
      Alcotest.failf "slot %d: exact %.17g vs fft %.17g" i exact.(i) fft.(i)
  done;
  (* Composes with MPEG sources. *)
  let mp = Lazy.force small_mpeg in
  let s = Source.of_mpeg ~order:16 ~kernel:`Fft mp (Rng.create ~seed:4322) in
  for _ = 1 to 300 do
    let w, _ = Source.next s in
    if not (Float.is_finite w) || w < 0.0 then Alcotest.fail "fft mpeg arrival invalid"
  done

let test_source_cache_stats_counters () =
  (* Counter contract on a capacity-1 cache: a repeated lookup is one
     hit, a fresh key is one miss, and inserting past the bound is
     exactly one eviction. Deltas, not absolutes — the caches are
     process-wide and other tests have already used them. *)
  let acf = Acf.fgn ~h:0.6634 in
  Source.set_table_cache_capacity 1;
  Fun.protect
    ~finally:(fun () -> Source.set_table_cache_capacity 16)
    (fun () ->
      let (_ : Hosking.Table.t) = Source.table_for ~acf ~order:21 in
      let s0 = List.assoc "hosking-table" (Source.cache_stats ()) in
      let (_ : Hosking.Table.t) = Source.table_for ~acf ~order:21 in
      let (_ : Hosking.Table.t) = Source.table_for ~acf ~order:22 in
      let s1 = List.assoc "hosking-table" (Source.cache_stats ()) in
      Alcotest.(check int) "one hit" 1 (s1.Source.hits - s0.Source.hits);
      Alcotest.(check int) "one miss" 1 (s1.Source.misses - s0.Source.misses);
      Alcotest.(check int) "one eviction" 1 (s1.Source.evictions - s0.Source.evictions));
  (* The FFT-plan cache reports through the same getter. *)
  let f0 = List.assoc "hosking-fft-plan" (Source.cache_stats ()) in
  let (_ : Hosking.Fft_plan.t) = Source.fft_plan_for ~acf ~order:21 in
  let (_ : Hosking.Fft_plan.t) = Source.fft_plan_for ~acf ~order:21 in
  let f1 = List.assoc "hosking-fft-plan" (Source.cache_stats ()) in
  Alcotest.(check int) "fft-plan miss then hit: one miss" 1 (f1.Source.misses - f0.Source.misses);
  Alcotest.(check int) "fft-plan miss then hit: one hit" 1 (f1.Source.hits - f0.Source.hits)

let test_source_table_cache_lru_eviction () =
  (* Eviction is invisible except for rebuild cost: a re-fit after the
     LRU bound forces a table out is bit-identical. *)
  let m = Lazy.force small_model in
  let acf = Ss_core.Model.background_acf m in
  let take n s = Array.init n (fun _ -> fst (Source.next s)) in
  let before = take 64 (Source.of_model ~order:24 m (Rng.create ~seed:4315)) in
  Source.set_table_cache_capacity 1;
  Fun.protect
    ~finally:(fun () -> Source.set_table_cache_capacity 16)
    (fun () ->
      Alcotest.(check int) "lowering evicts immediately" 1 (Source.table_cache_length ());
      (* Bring in a different (acf, order) key, evicting order 24. *)
      let (_ : Hosking.Table.t) = Source.table_for ~acf ~order:48 in
      Alcotest.(check int) "capacity bound respected" 1 (Source.table_cache_length ());
      let after = take 64 (Source.of_model ~order:24 m (Rng.create ~seed:4315)) in
      Array.iteri
        (fun i x ->
          if bits x <> bits before.(i) then
            Alcotest.failf "slot %d differs after eviction + re-fit" i)
        after);
  raises_invalid "capacity < 1" (fun () -> Source.set_table_cache_capacity 0)

let test_source_table_cache_concurrent_lookups () =
  (* Cold-start contention: the Durbin-Levinson fit happens outside
     the cache mutex, and same-key racers wait for the first fit
     instead of duplicating it — so simultaneous lookups of one key
     from many domains must all return the one physically-shared
     table and grow the cache by exactly one entry, while distinct
     keys fit concurrently into distinct entries. *)
  Source.set_table_cache_capacity 64;
  Fun.protect
    ~finally:(fun () -> Source.set_table_cache_capacity 16)
    (fun () ->
      let acf = Acf.fgn ~h:0.7123 in
      let order = 96 in
      let len0 = Source.table_cache_length () in
      let started = Atomic.make 0 in
      let lookup () =
        Atomic.incr started;
        (* Line the domains up on the key so the pending-build window
           is actually contested. *)
        while Atomic.get started < 4 do
          Domain.cpu_relax ()
        done;
        Source.table_for ~acf ~order
      in
      let workers = Array.init 3 (fun _ -> Domain.spawn lookup) in
      let mine = lookup () in
      let all = Array.append [| mine |] (Array.map Domain.join workers) in
      Array.iteri
        (fun i t ->
          if not (t == all.(0)) then Alcotest.failf "lookup %d returned a distinct table" i)
        all;
      Alcotest.(check int) "one entry added" (len0 + 1) (Source.table_cache_length ());
      let d1 = Domain.spawn (fun () -> Source.table_for ~acf:(Acf.fgn ~h:0.81) ~order:64) in
      let t2 = Source.table_for ~acf:(Acf.fgn ~h:0.63) ~order:64 in
      let t1 = Domain.join d1 in
      if t1 == t2 then Alcotest.fail "distinct keys shared a table";
      Alcotest.(check int) "two more entries" (len0 + 3) (Source.table_cache_length ()))

(* ------------------------------------------------------------------ *)
(* Mux                                                                  *)
(* ------------------------------------------------------------------ *)

let test_mux_matches_trace_sim () =
  (* Infinite buffer, one source: the streaming multiplexer IS the
     Lindley recursion of Trace_sim.queue_path, exactly. *)
  let rng = Rng.create ~seed:51 in
  let arrivals = Array.init 5000 (fun _ -> Rng.exponential rng ~rate:0.001) in
  let utilization = 0.8 in
  let expected = Trace_sim.queue_path ~arrivals ~utilization in
  let service =
    Lindley.utilization_service ~mean_arrival:(D.mean arrivals) ~utilization
  in
  let slots = Array.length arrivals in
  let got = Array.make slots nan in
  let oracle =
    Mux_oracle.run
      ~observe:(fun t q -> got.(t) <- q)
      ~service ~slots [| Source.of_array arrivals |]
  in
  Array.iteri (fun i q -> close ~eps:0.0 (Printf.sprintf "slot %d" i) q got.(i)) expected;
  if not (Mux.equal_report oracle (Mux.run ~service ~slots [| Source.of_array arrivals |])) then
    Alcotest.fail "engine differs from the oracle"

let two_constant_sources ~w0 ~w1 ~c0 ~c1 =
  [|
    Source.make ~name:"hi" ~mean:w0 ~sigma2:0.0 ~hurst:0.5 (fun () -> (w0, c0));
    Source.make ~name:"lo" ~mean:w1 ~sigma2:0.0 ~hurst:0.5 (fun () -> (w1, c1));
  |]

let test_mux_conservation () =
  let rng = Rng.create ~seed:52 in
  let mk () =
    Source.make ~name:"exp" ~mean:1.0 ~sigma2:1.0 ~hurst:0.5 (fun () ->
        (Rng.exponential rng ~rate:1.0, 0))
  in
  let r = Mux.run ~buffer:2.0 ~service:1.1 ~slots:2000 [| mk (); mk () |] in
  (* offered = admitted + lost, per source and in aggregate *)
  Array.iter
    (fun s ->
      close ~eps:1e-6 ("conservation " ^ s.Mux.name) s.Mux.offered
        (s.Mux.admitted +. s.Mux.lost))
    r.Mux.per_source;
  if r.Mux.loss_fraction <= 0.0 then Alcotest.fail "overloaded finite buffer must lose work";
  if r.Mux.carried_utilization > 1.0 +. 1e-9 then Alcotest.fail "carried load above capacity"

let test_mux_buffer_bounds_queue () =
  let src () =
    let rng = Rng.create ~seed:53 in
    Source.make ~name:"exp" ~mean:1.0 ~sigma2:1.0 ~hurst:0.5 (fun () ->
        (Rng.exponential rng ~rate:0.5, 0))
  in
  let buffer = 3.0 in
  let oracle =
    Mux_oracle.run ~buffer
      ~observe:(fun t q ->
        if q > buffer +. 1e-9 then Alcotest.failf "queue %g above buffer at slot %d" q t)
      ~service:1.0 ~slots:2000 [| src () |]
  in
  let r = Mux.run ~buffer ~service:1.0 ~slots:2000 [| src () |] in
  if not (Mux.equal_report oracle r) then Alcotest.fail "engine differs from the oracle";
  close ~eps:1e-9 "max queue bounded" (Stdlib.min r.Mux.max_queue buffer) r.Mux.max_queue

let test_mux_no_loss_when_underloaded () =
  let r =
    Mux.run ~buffer:10.0 ~service:3.0 ~slots:100 (two_constant_sources ~w0:1.0 ~w1:1.0 ~c0:0 ~c1:0)
  in
  close "no loss" 0.0 r.Mux.loss_fraction;
  close "offered utilization" (2.0 /. 3.0) r.Mux.offered_utilization;
  close "carried = offered" r.Mux.offered_utilization r.Mux.carried_utilization

let test_mux_priority_shields_high_class () =
  (* Two constant sources at double the capacity: the low class bears
     all the loss the high class avoids. *)
  let r =
    Mux.run ~buffer:0.5 ~service:1.0
      ~slots:500
      (two_constant_sources ~w0:1.0 ~w1:1.0 ~c0:0 ~c1:1)
  in
  let hi = r.Mux.per_source.(0) and lo = r.Mux.per_source.(1) in
  close ~eps:1e-9 "high class lossless" 0.0 hi.Mux.loss_fraction;
  if lo.Mux.loss_fraction < 0.4 then
    Alcotest.failf "low class should bear the loss, got %g" lo.Mux.loss_fraction

let test_mux_fifo_shares_loss () =
  (* Same overload without classes: the fluid model splits loss
     equally between identical sources. *)
  let r =
    Mux.run ~buffer:0.5 ~service:1.0 ~slots:500
      (two_constant_sources ~w0:1.0 ~w1:1.0 ~c0:0 ~c1:0)
  in
  let a = r.Mux.per_source.(0) and b = r.Mux.per_source.(1) in
  close ~eps:1e-9 "equal sharing" a.Mux.loss_fraction b.Mux.loss_fraction;
  if a.Mux.loss_fraction <= 0.0 then Alcotest.fail "expected loss under overload"

let test_mux_zero_buffer_semantics () =
  (* buffer = 0.0 is the bufferless-statistical-multiplexing limit,
     not a degenerate case: the admission room of a slot is
     [buffer + service - q] = [service] (q can never build up), so
     every slot loses exactly [max 0 (offered - service)], the queue
     stays pinned at zero, and per-source loss follows the fluid
     proportional split. Pinned against hand-computed totals and the
     naive oracle so the engine cannot drift. *)
  let a0 = [| 1.0; 3.0; 0.5; 2.0; 0.0; 4.0 |] in
  let a1 = [| 0.5; 1.0; 2.5; 0.0; 1.0; 2.0 |] in
  let slots = Array.length a0 in
  let service = 2.0 in
  let mk () = [| Source.of_array ~name:"s0" a0; Source.of_array ~name:"s1" a1 |] in
  let r = Mux.run ~buffer:0.0 ~service ~slots (mk ()) in
  (* Queue never builds: q' = max 0 (admitted - service) <= 0. *)
  close ~eps:0.0 "mean queue" 0.0 r.Mux.mean_queue;
  close ~eps:0.0 "max queue" 0.0 r.Mux.max_queue;
  (* Hand-computed per-slot loss: max 0 (offered - service), split
     proportionally to each source's offered work. *)
  let lost0 = ref 0.0 and lost1 = ref 0.0 in
  for t = 0 to slots - 1 do
    let o = a0.(t) +. a1.(t) in
    if o > service then begin
      let drop_frac = (o -. service) /. o in
      lost0 := !lost0 +. (a0.(t) *. drop_frac);
      lost1 := !lost1 +. (a1.(t) *. drop_frac)
    end
  done;
  let s0 = r.Mux.per_source.(0) and s1 = r.Mux.per_source.(1) in
  close ~eps:1e-12 "source 0 loss" !lost0 s0.Mux.lost;
  close ~eps:1e-12 "source 1 loss" !lost1 s1.Mux.lost;
  let offered = Array.fold_left ( +. ) 0.0 a0 +. Array.fold_left ( +. ) 0.0 a1 in
  close ~eps:1e-12 "aggregate loss fraction" ((!lost0 +. !lost1) /. offered)
    r.Mux.loss_fraction;
  (* Work conservation survives the boundary. *)
  close ~eps:1e-12 "conservation s0" s0.Mux.offered (s0.Mux.admitted +. s0.Mux.lost);
  close ~eps:1e-12 "conservation s1" s1.Mux.offered (s1.Mux.admitted +. s1.Mux.lost);
  (* The engine and the oracle agree bitwise at the boundary, at every
     shard count. *)
  let oracle = Mux_oracle.run ~buffer:0.0 ~service ~slots (mk ()) in
  if not (Mux.equal_report oracle r) then
    Alcotest.fail "zero-buffer: default run differs from the oracle";
  List.iter
    (fun shards ->
      let sharded = Mux.run ~shards ~buffer:0.0 ~service ~slots (mk ()) in
      if not (Mux.equal_report oracle sharded) then
        Alcotest.failf "zero-buffer: %d-shard run differs from the oracle" shards)
    [ 1; 2; 3 ]

let test_mux_overflow_curve_monotone () =
  let rng = Rng.create ~seed:54 in
  let src =
    Source.make ~name:"exp" ~mean:1.0 ~sigma2:1.0 ~hurst:0.5 (fun () ->
        (Rng.exponential rng ~rate:1.0, 0))
  in
  let r =
    Mux.run ~thresholds:[ 0.0; 1.0; 2.0; 4.0; 8.0 ] ~service:1.25 ~slots:20_000 [| src |]
  in
  let rec check = function
    | (_, p1) :: ((_, p2) :: _ as rest) ->
      if p2 > p1 +. 1e-12 then Alcotest.fail "overflow curve not decreasing";
      check rest
    | _ -> ()
  in
  check r.Mux.overflow;
  (* threshold 0 exceedance = fraction of busy slots, must be positive here *)
  if snd (List.hd r.Mux.overflow) <= 0.0 then Alcotest.fail "empty overflow statistics"

let test_mux_queue_quantiles_ordered () =
  let rng = Rng.create ~seed:55 in
  let src =
    Source.make ~name:"exp" ~mean:1.0 ~sigma2:1.0 ~hurst:0.5 (fun () ->
        (Rng.exponential rng ~rate:1.0, 0))
  in
  let r = Mux.run ~quantiles:[ 0.5; 0.9; 0.99 ] ~service:1.25 ~slots:10_000 [| src |] in
  (match r.Mux.queue_quantiles with
  | [ (_, q50); (_, q90); (_, q99) ] ->
    if not (q50 <= q90 && q90 <= q99) then
      Alcotest.failf "queue quantiles not ordered: %g %g %g" q50 q90 q99
  | _ -> Alcotest.fail "expected three quantiles");
  (* delay quantiles are queue quantiles over service *)
  List.iter2
    (fun (_, q) (_, d) -> close ~eps:1e-6 "delay = queue/service" (q /. 1.25) d)
    r.Mux.queue_quantiles r.Mux.delay_quantiles

let test_mux_p2_quantiles_vs_exact_on_lrd_stream () =
  (* The P2 estimates reported by Mux.run must track the exact sorted
     quantiles of the very queue-length stream they were fed — here a
     long-range-dependent one, collected by the oracle's observer from
     a run the engine reproduces bitwise. *)
  let src () =
    let bg = Source.background_stream ~acf:(Acf.fgn ~h:0.75) ~order:64 (Rng.create ~seed:77) in
    Source.make ~name:"lrd" ~mean:1.0 ~sigma2:1.0 ~hurst:0.75 (fun () ->
        (Stdlib.max 0.0 (1.0 +. bg ()), 0))
  in
  let slots = 30_000 in
  let qs = Array.make slots 0.0 in
  let oracle =
    Mux_oracle.run
      ~quantiles:[ 0.5; 0.9; 0.99 ]
      ~service:1.5 ~slots
      ~observe:(fun t q -> qs.(t) <- q)
      [| src () |]
  in
  let r = Mux.run ~quantiles:[ 0.5; 0.9; 0.99 ] ~service:1.5 ~slots [| src () |] in
  if not (Mux.equal_report oracle r) then Alcotest.fail "engine differs from the oracle";
  List.iter
    (fun (p, est) ->
      let exact = D.quantile qs p in
      (* P2 is an approximation and LRD streams converge slowly: the
         tail quantile gets a wider band than the median. *)
      let tol = if p > 0.95 then 0.25 else 0.15 in
      let scale = Stdlib.max 1.0 exact in
      if abs_float (est -. exact) /. scale > tol then
        Alcotest.failf "P2 q(%.2f) = %g vs exact %g" p est exact)
    r.Mux.queue_quantiles

let test_mux_invalid () =
  let src = Source.of_array ~cycle:true [| 1.0 |] in
  raises_invalid "no sources" (fun () -> Mux.run ~service:1.0 ~slots:10 [||]);
  raises_invalid "bad slots" (fun () -> Mux.run ~service:1.0 ~slots:0 [| src |]);
  raises_invalid "bad service" (fun () -> Mux.run ~service:0.0 ~slots:10 [| src |]);
  raises_invalid "negative buffer" (fun () ->
      Mux.run ~buffer:(-1.0) ~service:1.0 ~slots:10 [| src |]);
  raises_invalid "negative threshold" (fun () ->
      Mux.run ~thresholds:[ -1.0 ] ~service:1.0 ~slots:10 [| src |]);
  (* NaN fails every ordered comparison, so each link parameter has its
     own NaN test; [infinity] stays the unbounded-buffer default. *)
  let named p = "Mux.run: " ^ p in
  raises_invalid ~prefix:(named "service") "nan service" (fun () ->
      Mux.run ~service:nan ~slots:10 [| src |]);
  raises_invalid ~prefix:(named "service") "infinite service" (fun () ->
      Mux.run ~service:infinity ~slots:10 [| src |]);
  raises_invalid ~prefix:(named "buffer") "nan buffer" (fun () ->
      Mux.run ~buffer:nan ~service:1.0 ~slots:10 [| src |]);
  raises_invalid ~prefix:(named "threshold") "nan threshold" (fun () ->
      Mux.run ~thresholds:[ 1.0; nan ] ~service:1.0 ~slots:10 [| src |]);
  ignore (Mux.run ~buffer:infinity ~service:1.0 ~slots:10 [| src |]);
  raises_invalid "bad class" (fun () ->
      Mux.run ~service:1.0 ~slots:10
        [| Source.make ~name:"bad" ~mean:0.0 ~sigma2:0.0 ~hurst:0.5 (fun () -> (1.0, 64)) |])

(* ------------------------------------------------------------------ *)
(* Mux: graceful degradation                                            *)
(* ------------------------------------------------------------------ *)

let test_mux_source_departure () =
  (* A finite source departs cleanly mid-run: the run continues, the
     departure slot is recorded, and the departed source offers
     nothing afterwards. *)
  let finite = Source.of_array ~name:"finite" (Array.make 50 1.0) in
  let steady = Source.of_array ~name:"steady" ~cycle:true [| 1.0 |] in
  let r = Mux.run ~service:4.0 ~slots:200 [| finite; steady |] in
  Alcotest.(check (option int)) "departure slot" (Some 50) r.Mux.per_source.(0).Mux.departed_at;
  Alcotest.(check (option int)) "steady stays" None r.Mux.per_source.(1).Mux.departed_at;
  close "finite offered its 50 slots" 50.0 r.Mux.per_source.(0).Mux.offered;
  close "steady offered all 200" 200.0 r.Mux.per_source.(1).Mux.offered

let test_mux_corrupt_work_is_isolated () =
  (* NaN / negative / infinite work must not crash the run or poison
     the Lindley recursion: each corrupt slot is zeroed and counted. *)
  let t = ref 0 in
  let dirty =
    Source.make ~name:"dirty" ~mean:1.0 ~sigma2:0.0 ~hurst:0.5 (fun () ->
        incr t;
        match !t mod 4 with
        | 1 -> (Float.nan, 0)
        | 2 -> (-3.0, 0)
        | 3 -> (infinity, 0)
        | _ -> (1.0, 0))
  in
  let clean = Source.of_array ~name:"clean" ~cycle:true [| 2.0 |] in
  let r = Mux.run ~service:2.0 ~slots:100 [| dirty; clean |] in
  Alcotest.(check int) "corrupt slots" 75 r.Mux.per_source.(0).Mux.corrupt_slots;
  Alcotest.(check int) "clean source untouched" 0 r.Mux.per_source.(1).Mux.corrupt_slots;
  if Float.is_nan r.Mux.mean_queue then Alcotest.fail "mean queue poisoned by NaN";
  if Float.is_nan r.Mux.max_queue then Alcotest.fail "max queue poisoned by NaN";
  (* 25 good slots of 1.0: only the sane work reaches the buffer. *)
  close "dirty offered" 25.0 r.Mux.per_source.(0).Mux.offered;
  close "clean offered" 200.0 r.Mux.per_source.(1).Mux.offered

let test_mux_class_delay_single_class_exact () =
  (* With a single class and an infinite buffer the class-0 backlog
     replays the Lindley recursion bit for bit, so the class-0 delay
     quantiles equal the global ones exactly. *)
  let m = Lazy.force small_model in
  let src = Source.of_model ~order:32 m (Rng.create ~seed:31) in
  let r = Mux.run ~service:(1.05 *. m.Ss_core.Model.mean) ~slots:4000 [| src |] in
  match r.Mux.class_delay_quantiles with
  | [ (0, qs) ] ->
    List.iter2
      (fun (p, d) (p', d') ->
        close ~eps:0.0 (Printf.sprintf "p level %g" p) p p';
        close ~eps:0.0 (Printf.sprintf "class-0 delay q(%g)" p) d d')
      r.Mux.delay_quantiles qs
  | l -> Alcotest.failf "expected exactly class 0, got %d classes" (List.length l)

let test_mux_class_delay_priority_ordering () =
  (* Under overload, a strict-priority high class must see no larger
     virtual delay than the low class at every tracked quantile. *)
  let hi = Source.of_array ~name:"hi" ~cycle:true [| 1.0 |] in
  let t = ref 0 in
  let lo =
    Source.make ~name:"lo" ~mean:1.5 ~sigma2:0.25 ~hurst:0.5 (fun () ->
        incr t;
        ((if !t mod 3 = 0 then 3.0 else 1.0), 1))
  in
  let r = Mux.run ~buffer:20.0 ~service:2.2 ~slots:5000 [| hi; lo |] in
  match r.Mux.class_delay_quantiles with
  | [ (0, q0); (1, q1) ] ->
    List.iter2
      (fun (p, d0) (_, d1) ->
        if d0 > d1 +. 1e-9 then
          Alcotest.failf "class 0 delay q(%g) = %g exceeds class 1 = %g" p d0 d1)
      q0 q1
  | l -> Alcotest.failf "expected classes 0 and 1, got %d classes" (List.length l)

(* ------------------------------------------------------------------ *)
(* Mux: per-source service/delay trajectory (?trajectory hook)          *)
(* ------------------------------------------------------------------ *)

(* Capture the hook's (reused) per-slot arrays into slot-major copies. *)
let capture_trajectory ~slots ~n =
  let served = Array.make_matrix slots n 0.0 in
  let delays = Array.make_matrix slots n 0.0 in
  let sink ~slot ~served:s ~delays:d =
    Array.blit s 0 served.(slot) 0 n;
    Array.blit d 0 delays.(slot) 0 n
  in
  (served, delays, sink)

(* The engine against the oracle's run on identically built sources,
   trajectory rows included, bitwise. *)
let engine_matches_oracle_trajectory oracle ~served ~delays ~service ~slots ~n sources =
  let served', delays', sink = capture_trajectory ~slots ~n in
  let r = Mux.run ~trajectory:sink ~service ~slots sources in
  if not (Mux.equal_report oracle r) then Alcotest.fail "engine differs from the oracle";
  let same_rows a b = Array.for_all2 same_floats a b in
  if not (same_rows served served' && same_rows delays delays') then
    Alcotest.fail "engine trajectory rows differ from the oracle's"

let test_mux_trajectory_conservation () =
  (* Two finite sources, one per priority class; once both depart the
     queue drains, so each source's captured served work must sum to
     exactly what it offered, and every slot's served total must
     match the Lindley bookkeeping (q_{t-1} + arrivals - q_t). *)
  let n0 = 60 in
  let a0 = Array.init n0 (fun t -> float_of_int (1 + (t mod 5))) in
  let a1 = Array.init n0 (fun t -> if t mod 3 = 0 then 4.0 else 0.5) in
  let sources () =
    let k1 = ref 0 in
    [|
      Source.of_array ~name:"s0" a0;
      Source.make ~name:"s1" ~mean:1.7 ~sigma2:0.5 ~hurst:0.5 (fun () ->
          if !k1 >= n0 then raise Source.End_of_stream
          else begin
            let w = a1.(!k1) in
            incr k1;
            (w, 1)
          end);
    |]
  in
  let slots = 200 and service = 3.0 in
  let served, delays, sink = capture_trajectory ~slots ~n:2 in
  let q_path = Array.make slots 0.0 in
  let r =
    Mux_oracle.run ~trajectory:sink ~observe:(fun t q -> q_path.(t) <- q) ~service ~slots
      (sources ())
  in
  engine_matches_oracle_trajectory r ~served ~delays ~service ~slots ~n:2 (sources ());
  for i = 0 to 1 do
    let total = ref 0.0 in
    for t = 0 to slots - 1 do
      total := !total +. served.(t).(i)
    done;
    close ~eps:1e-6
      (Printf.sprintf "source %d served = admitted" i)
      r.Mux.per_source.(i).Mux.admitted !total
  done;
  for t = 0 to slots - 1 do
    let arrivals =
      (if t < n0 then a0.(t) else 0.0) +. if t < n0 then a1.(t) else 0.0
    in
    let prev = if t = 0 then 0.0 else q_path.(t - 1) in
    close ~eps:1e-9
      (Printf.sprintf "slot %d conservation" t)
      (prev +. arrivals -. q_path.(t))
      (served.(t).(0) +. served.(t).(1))
  done

let test_mux_trajectory_does_not_perturb_report () =
  (* The hook is strictly observational: a run with a sink attached
     must produce the bit-identical report of a run without one. *)
  let m = Lazy.force small_model in
  let mk seed = Source.of_model ~order:32 m (Rng.create ~seed) in
  let service = 2.1 *. m.Ss_core.Model.mean and slots = 3000 in
  let plain = Mux.run ~service ~slots [| mk 41; mk 42 |] in
  let _, _, sink = capture_trajectory ~slots ~n:2 in
  let hooked = Mux.run ~trajectory:sink ~service ~slots [| mk 41; mk 42 |] in
  let same l x y =
    if Int64.bits_of_float x <> Int64.bits_of_float y then
      Alcotest.failf "%s perturbed by trajectory hook: %.17g vs %.17g" l x y
  in
  same "mean queue" plain.Mux.mean_queue hooked.Mux.mean_queue;
  same "max queue" plain.Mux.max_queue hooked.Mux.max_queue;
  same "utilization" plain.Mux.carried_utilization hooked.Mux.carried_utilization;
  List.iter2
    (fun (p, d) (_, d') -> same (Printf.sprintf "delay q(%g)" p) d d')
    plain.Mux.delay_quantiles hooked.Mux.delay_quantiles

let test_mux_trajectory_single_source_delay_exact () =
  (* With one class-0 source the virtual delay is the Lindley queue
     over service, bit for bit. *)
  let src () = Source.of_array ~cycle:true (Array.init 37 (fun t -> float_of_int (t mod 7))) in
  let slots = 500 and service = 3.1 in
  let served, delays, sink = capture_trajectory ~slots ~n:1 in
  let q_path = Array.make slots 0.0 in
  let oracle =
    Mux_oracle.run ~trajectory:sink ~observe:(fun t q -> q_path.(t) <- q) ~service ~slots
      [| src () |]
  in
  engine_matches_oracle_trajectory oracle ~served ~delays ~service ~slots ~n:1 [| src () |];
  for t = 0 to slots - 1 do
    if Int64.bits_of_float delays.(t).(0)
       <> Int64.bits_of_float (q_path.(t) /. service)
    then
      Alcotest.failf "slot %d: delay %.17g <> q/service %.17g" t
        delays.(t).(0)
        (q_path.(t) /. service)
  done

let test_mux_trajectory_golden () =
  (* Fixed-seed golden values for the per-source trajectory — the
     same numbers `vbrsim mux --csv` emits as `slot,source,served,
     delay_slots` rows. Guards the serialization contract against
     silent drift in the replay or the processor-sharing split. *)
  let mk seed cls =
    let rng = Rng.create ~seed in
    Source.make ~name:"g" ~mean:1.0 ~sigma2:1.0 ~hurst:0.5 (fun () ->
        (Rng.exponential rng ~rate:1.0, cls))
  in
  let slots = 48 in
  let served, delays, sink = capture_trajectory ~slots ~n:2 in
  let _ = Mux.run ~trajectory:sink ~service:1.9 ~slots [| mk 77 0; mk 78 1 |] in
  let got =
    List.concat_map
      (fun t ->
        List.concat_map
          (fun i ->
            [ Printf.sprintf "%d,%d,%g,%g" t i served.(t).(i) delays.(t).(i) ])
          [ 0; 1 ])
      [ 20; 21; 22; 23 ]
  in
  let expected =
    [
      "20,0,0.218989,0";
      "20,1,1.68101,1.23982";
      "21,0,1.9,0.111152";
      "21,1,0,2.17226";
      "22,0,0.531302,0";
      "22,1,1.3687,1.69794";
      "23,0,0.990778,0";
      "23,1,0.909222,1.90169";
    ]
  in
  List.iteri
    (fun j g ->
      let e = try List.nth expected j with _ -> "<missing>" in
      if not (String.equal e g) then
        Alcotest.failf "trajectory row %d: expected %s, got %s" j e g)
    got

let test_mux_class_delay_bruteforce_3class () =
  (* Cross-check the streaming class-delay quantiles against a
     brute-force O(slots^2) reference that recomputes the strict-
     priority backlog recursion from slot 0 for every slot, on a
     fixed-seed 3-class stream. The reference mirrors the multiplexer
     float for float, so the comparison is exact. *)
  let slots = 260 and service = 3.0 in
  let rng = Rng.create ~seed:123 in
  let w =
    Array.init 3 (fun c ->
        let mean = [| 0.9; 1.0; 1.3 |].(c) in
        Array.init slots (fun _ -> Rng.exponential rng ~rate:(1.0 /. mean)))
  in
  let mk c =
    let k = ref 0 in
    Source.make
      ~name:(Printf.sprintf "c%d" c)
      ~mean:1.0 ~sigma2:1.0 ~hurst:0.5
      (fun () ->
        let j = !k in
        incr k;
        ((if j < slots then w.(c).(j) else 0.0), c))
  in
  let quantiles = [ 0.5; 0.9; 0.99 ] in
  let r = Mux.run ~quantiles ~service ~slots [| mk 0; mk 1; mk 2 |] in
  (* Reference estimators, fed in the same order the mux feeds its
     own: per slot, classes 0..2, quantile levels in list order. *)
  let fmin (a : float) b = if a <= b then a else b in
  let est =
    Array.init 3 (fun _ ->
        Array.of_list (List.map (fun p -> Online.P2.create ~p) quantiles))
  in
  let backlog = Array.make 3 0.0 in
  for t = 0 to slots - 1 do
    (* Recompute the whole backlog state from scratch: O(slots^2). *)
    Array.fill backlog 0 3 0.0;
    for j = 0 to t do
      let rem = ref service in
      for c = 0 to 2 do
        let b = backlog.(c) +. (0.0 +. w.(c).(j)) in
        let take = fmin !rem b in
        backlog.(c) <- b -. take;
        rem := !rem -. take
      done
    done;
    let prefix = ref 0.0 in
    for c = 0 to 2 do
      prefix := !prefix +. backlog.(c);
      Array.iter (fun e -> Online.P2.add e (!prefix /. service)) est.(c)
    done
  done;
  List.iter
    (fun (c, qs) ->
      List.iteri
        (fun j (p, d) ->
          close ~eps:0.0
            (Printf.sprintf "class %d q(%g)" c p)
            (Online.P2.quantile est.(c).(j))
            d)
        qs)
    r.Mux.class_delay_quantiles;
  Alcotest.(check int) "three classes tracked" 3
    (List.length r.Mux.class_delay_quantiles)

let test_mux_hot_loop_allocation () =
  (* This PR hoisted the per-slot closures and tuples out of the
     sequential admission loop; everything that still allocates is
     per-block or per-report. Guard the budget so a regression that
     reintroduces per-slot boxing fails loudly. The bound is minor
     words per slot, with generous headroom over the measured value
     (well under 1 on a non-flambda build). *)
  let arr = Array.init 96 (fun i -> float_of_int (1 + (i mod 7))) in
  let mk () = Source.of_array ~cycle:true arr in
  let measure ?shards sources =
    let run slots =
      Mux.run ?shards ~quantiles:[] ~service:(3.0 *. float_of_int (Array.length sources))
        ~slots sources
    in
    let (_ : Mux.report) = run 1024 in
    let slots = 65536 in
    let w0 = Gc.minor_words () in
    let (_ : Mux.report) = run slots in
    (Gc.minor_words () -. w0) /. float_of_int slots
  in
  let one = measure [| mk () |] in
  let three = measure [| mk (); mk (); mk () |] in
  let sharded = measure ~shards:4 [| mk (); mk (); mk () |] in
  (* ~6 words/slot of per-slot module-boundary float boxing remain on
     a non-flambda build (queue/delay accumulators); bound it with
     headroom. *)
  if one > 8.0 then Alcotest.failf "Mux.run allocates %.2f minor words per slot" one;
  (* The admission loop must be allocation-free per source: tripling
     the sources may not add per-slot allocation beyond noise. *)
  if three -. one > 1.0 then
    Alcotest.failf "admission loop allocates per source: %.2f vs %.2f words/slot" three one;
  (* Splitting the staging across shards may not reintroduce per-slot
     allocation either: shard state is per-run, blocks amortize. *)
  if sharded -. three > 1.0 then
    Alcotest.failf "sharding allocates per slot: %.2f vs %.2f words/slot" sharded three

(* ------------------------------------------------------------------ *)
(* Sharded engine: bit-identity across shard counts                     *)
(* ------------------------------------------------------------------ *)

(* Mixed source population, one source per kind, every kind
   checkpointable: 0 cycling replay, 1 finite replay (departs after
   40-64 slots), 2 multi-class pull, 3 corrupt-emitting pull, 4/5
   order-8 model source on the exact and fft kernels, 6/7 fault-wrapped
   cycling and finite replays. Sources are stateful, so every run
   rebuilds them from the seed. *)
let mixed_sources ~seed kinds =
  let rng = Rng.create ~seed in
  Array.of_list
    (List.mapi
       (fun i kind ->
         let name = Printf.sprintf "s%d" i in
         let len = Rng.int_range rng 40 64 in
         let mean = 0.5 +. float_of_int (i mod 3) in
         let arr = Array.init len (fun _ -> Rng.exponential rng ~rate:(1.0 /. mean)) in
         let cls = Array.init len (fun _ -> Rng.int_range rng 0 3) in
         let counted pull =
           let k = ref 0 in
           let ckpt =
             {
               Source.ck_save = (fun w -> Ss_checkpoint.W.int w !k);
               ck_restore = (fun r -> k := Ss_checkpoint.R.int r);
             }
           in
           Source.make ~ckpt ~name ~mean:1.0 ~sigma2:1.0 ~hurst:0.5 (fun () ->
               incr k;
               pull ((!k - 1) mod len))
         in
         let faulty cycle =
           let ev =
             match Rng.int_range rng 0 3 with
             | 0 -> Fault.Drift { start = 20; ramp = 10; factor = 3.0 }
             | 1 -> Fault.Stall { start = 5; len = 30 }
             | 2 -> Fault.Corrupt { rate = 0.05 }
             | _ -> Fault.Burst { rate = 0.05; mean_len = 4.0; amplitude = 4.0 }
           in
           Fault.wrap ~rng:(Rng.split rng) [ ev ] (Source.of_array ~name ~cycle arr)
         in
         match kind with
         | 0 -> Source.of_array ~name ~cycle:true arr
         | 1 -> Source.of_array ~name arr
         | 2 -> counted (fun j -> (arr.(j), cls.(j)))
         | 3 ->
           counted (fun j ->
               ( (if j mod 7 = 3 then nan
                  else if j mod 11 = 5 then -1.0
                  else if j mod 13 = 6 then infinity
                  else arr.(j)),
                 0 ))
         | 4 -> Source.of_model ~name ~order:8 (Lazy.force small_model) (Rng.split rng)
         | 5 ->
           Source.of_model ~name ~order:8 ~kernel:`Fft (Lazy.force small_model) (Rng.split rng)
         | 6 -> faulty true
         | _ -> faulty false)
       kinds)

(* The sharded-engine tests' population: replays, departures,
   multi-class pulls and corrupt slots — every per-source staging path
   the engine must reproduce. *)
let shard_sources ~n ~seed = mixed_sources ~seed (List.init n (fun i -> i mod 4))

let test_mux_sharded_bit_identity () =
  (* The engine must reproduce the naive oracle bitwise at every shard
     count — including counts that do not divide the source count —
     on a finite buffer with thresholds, departures, corrupt slots and
     several priority classes in play. *)
  List.iter
    (fun n ->
      let slots = 300 in
      let service = 1.1 *. float_of_int n in
      let buffer = 4.0 *. float_of_int n in
      let thresholds = [ 0.0; 1.0; 0.5 *. float_of_int n ] in
      let oracle =
        Mux_oracle.run ~buffer ~thresholds ~service ~slots (shard_sources ~n ~seed:(1000 + n))
      in
      List.iter
        (fun shards ->
          let r =
            Mux.run ~shards ~buffer ~thresholds ~service ~slots
              (shard_sources ~n ~seed:(1000 + n))
          in
          if not (Mux.equal_report oracle r) then
            Alcotest.failf "n=%d shards=%d differs from the oracle" n shards)
        [ 1; 2; 4; 7 ])
    [ 5; 64; 513 ]

let test_mux_sharded_pool_bit_identity () =
  (* Shards dispatched over a real domain pool: still bitwise equal to
     the oracle, at divisible and non-divisible shard counts and at the
     default shard count (the pool size). *)
  let n = 64 and slots = 400 in
  let service = 1.05 *. float_of_int n and buffer = 5.0 *. float_of_int n in
  let mk () = shard_sources ~n ~seed:7064 in
  let oracle = Mux_oracle.run ~buffer ~service ~slots (mk ()) in
  let pool = Pool.create ~domains:4 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      List.iter
        (fun shards ->
          let r = Mux.run ~pool ?shards ~buffer ~service ~slots (mk ()) in
          if not (Mux.equal_report oracle r) then
            Alcotest.failf "pooled shards=%s differs from the oracle"
              (match shards with Some s -> string_of_int s | None -> "default"))
        [ None; Some 2; Some 7 ])

let test_mux_sharded_police_fault_identity () =
  (* Policing and fault injection run on the central sequential loop,
     so they compose with sharding bit-identically: the whole report
     of a policed, fault-injected run is shard-count-invariant and
     equal to the oracle's. *)
  let n = 64 and slots = 2048 in
  let service = 1.02 *. float_of_int n and buffer = 3.0 *. float_of_int n in
  let spec =
    [
      (Some 0, [ Fault.Drift { start = 256; ramp = 0; factor = 6.0 } ]);
      (Some 9, [ Fault.Stall { start = 100; len = 40 } ]);
      (None, [ Fault.Corrupt { rate = 0.01 } ]);
    ]
  in
  let config = { Police.default with Police.window = 64; warmup_windows = 1 } in
  let run shards =
    let srcs =
      Fault.wrap_all ~rng:(Rng.create ~seed:6501) spec (shard_sources ~n ~seed:6500)
    in
    let p = Police.create ~config (Array.map Admission.descr_of_source srcs) in
    match shards with
    | None -> Mux_oracle.run ~police:p ~buffer ~service ~slots srcs
    | Some s -> Mux.run ~shards:s ~police:p ~buffer ~service ~slots srcs
  in
  let oracle = run None in
  List.iter
    (fun s ->
      if not (Mux.equal_report oracle (run (Some s))) then
        Alcotest.failf "policed faulted run differs at shards=%d" s)
    [ 1; 4; 7 ]

let test_mux_sharded_trajectory_identity () =
  (* The trajectory export runs on the central loop over the staged
     rows: identical per-slot served/delay vectors at any shard
     count. *)
  let n = 9 and slots = 500 in
  let service = 1.2 *. float_of_int n in
  let capture shards =
    let rows = ref [] in
    let sink ~slot ~served ~delays =
      rows := (slot, Array.copy served, Array.copy delays) :: !rows
    in
    let r = Mux.run ~shards ~trajectory:sink ~service ~slots (shard_sources ~n ~seed:900) in
    (r, List.rev !rows)
  in
  let r1, t1 = capture 1 in
  let r4, t4 = capture 4 in
  if not (Mux.equal_report r1 r4) then Alcotest.fail "trajectory run reports differ";
  Alcotest.(check int) "every slot exported" slots (List.length t1);
  List.iter2
    (fun (s1, w1, d1) (s4, w4, d4) ->
      Alcotest.(check int) "slot order" s1 s4;
      Array.iteri
        (fun i v ->
          if bits v <> bits w4.(i) then Alcotest.failf "served differs, slot %d source %d" s1 i)
        w1;
      Array.iteri
        (fun i v ->
          if bits v <> bits d4.(i) then Alcotest.failf "delay differs, slot %d source %d" s1 i)
        d1)
    t1 t4

let test_mux_sharded_stop_dispatch () =
  (* A run stopped by [stop_above] stages 8 slots per block, at any
     shard count and with or without a pool: its report, first
     passage included, equals the oracle's bitwise, and every source
     has produced exactly the slots of the stopping slot's block (or
     up to its departure, if that comes first). The level is the
     highest queue before the first new record from slot 33 on, so
     the run stops at that record; 33 mod 8 = 1, so the block
     overshoots the stop by up to 6 slots. *)
  let n = 6 and slots = 200 and service = 5.0 in
  let path = Array.make slots nan in
  ignore
    (Mux_oracle.run ~observe:(fun t q -> path.(t) <- q) ~service ~slots
       (shard_sources ~n ~seed:800)
      : Mux.report);
  let rec record t best =
    if t = slots then Alcotest.fail "no new queue record after slot 33: vacuous"
    else if t >= 33 && path.(t) > best then (best, t)
    else record (t + 1) (Float.max best path.(t))
  in
  let level, tau = record 0 neg_infinity in
  let oracle = Mux_oracle.run ~stop_above:level ~service ~slots (shard_sources ~n ~seed:800) in
  if oracle.Mux.first_passage <> Some tau then
    Alcotest.failf "oracle stopped at %s, expected slot %d"
      (Option.fold ~none:"none" ~some:string_of_int oracle.Mux.first_passage) tau;
  Alcotest.(check int) "oracle covers 0..tau" (tau + 1) oracle.Mux.slots;
  let produced = Stdlib.min slots (8 * ((tau / 8) + 1)) in
  let available =
    Array.map
      (fun s -> Source.next_block s (Array.make slots 0.0) (Array.make slots 0) ~off:0 ~len:slots)
      (shard_sources ~n ~seed:800)
  in
  let pool = Pool.create ~domains:2 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  List.iter
    (fun (pool, shards) ->
      let label =
        Printf.sprintf "shards=%s pool=%b"
          (Option.fold ~none:"default" ~some:string_of_int shards) (pool <> None)
      in
      let pulls = Array.make n 0 in
      let srcs =
        Array.mapi
          (fun i (s : Source.t) ->
            let pull_block w c off len =
              let f = s.Source.pull_block w c off len in
              pulls.(i) <- pulls.(i) + f;
              f
            in
            { s with Source.pull_block })
          (shard_sources ~n ~seed:800)
      in
      let r = Mux.run ?pool ?shards ~stop_above:level ~service ~slots srcs in
      if not (Mux.equal_report oracle r) then
        Alcotest.failf "%s: stopped run differs from the oracle" label;
      Array.iteri
        (fun i k ->
          let want = Stdlib.min produced available.(i) in
          if k <> want then
            Alcotest.failf "%s: source %d produced %d slots, expected %d" label i k want)
        pulls;
      let full =
        Mux.run ?pool ?shards ~stop_above:infinity ~service ~slots (shard_sources ~n ~seed:800)
      in
      if full.Mux.first_passage <> None || full.Mux.slots <> slots then
        Alcotest.failf "%s: stop_above = infinity stopped the run" label)
    (List.concat_map
       (fun pool -> List.map (fun s -> (pool, s)) [ None; Some 1; Some 2; Some 4; Some 7 ])
       [ None; Some pool ]);
  raises_invalid "shards < 1" (fun () ->
      ignore (Mux.run ~shards:0 ~service ~slots (shard_sources ~n ~seed:800)));
  raises_invalid "stop_above NaN" (fun () ->
      ignore (Mux.run ~stop_above:nan ~service ~slots (shard_sources ~n ~seed:800)));
  raises_invalid "stop_above < 0" (fun () ->
      ignore (Mux.run ~stop_above:(-1.0) ~service ~slots (shard_sources ~n ~seed:800)))

(* ------------------------------------------------------------------ *)
(* Grouped exact synthesis: same-model sources advanced side by side     *)
(* ------------------------------------------------------------------ *)

(* The same source behind a fresh [Source.make] record: same pulls,
   same state, but no lane, so [Source.next_blocks] never groups it.
   The per-source reference for every grouped run. *)
let per_source (s : Source.t) =
  Source.make ~pull_block:s.Source.pull_block ?ckpt:s.Source.ckpt ~name:s.Source.name
    ~mean:s.Source.mean ~sigma2:s.Source.sigma2 ~hurst:s.Source.hurst s.Source.pull

let second_model =
  lazy (Ss_core.Model.with_background (Lazy.force small_model) (Acf.fgn ~h:0.7))

(* [pattern.(i)] picks source i: 'a'/'b' exact model sources of two
   models (own substream each), 'h' a model-'a' source departing at
   [horizon], 's' a model-'a' source on the shared generator, 'c' a
   custom pull drawing from that same generator, 'w' a model-'a'
   source behind a [{ s with pull_block }] wrapper that counts its
   slots into [counts]. *)
let grouped_sources ?(horizon = 1) ?counts ~order ~seed pattern =
  let rng = Rng.create ~seed in
  let shared = Rng.split rng in
  let a = Lazy.force small_model in
  let mean = a.Ss_core.Model.mean in
  Array.of_list
    (List.mapi
       (fun i kind ->
         let name = Printf.sprintf "g%02d" i in
         let sub = Rng.split rng in
         match kind with
         | 'b' -> Source.of_model ~name ~order (Lazy.force second_model) sub
         | 'h' -> Source.of_model ~name ~order ~horizon a sub
         | 's' -> Source.of_model ~name ~order a shared
         | 'c' ->
           (* Its only state is the shared generator, which the 's'
              sources' snapshots carry. *)
           let ckpt = { Source.ck_save = (fun _ -> ()); ck_restore = (fun _ -> ()) } in
           Source.make ~ckpt ~name ~mean ~sigma2:1.0 ~hurst:0.5 (fun () ->
               (mean *. exp (0.1 *. Rng.gaussian shared), 0))
         | 'w' ->
           let s = Source.of_model ~name ~order a sub in
           let pull_block w c off len =
             let f = s.Source.pull_block w c off len in
             Option.iter (fun k -> k.(i) <- k.(i) + f) counts;
             f
           in
           { s with Source.pull_block }
         | _ -> Source.of_model ~name ~order a sub)
       (List.of_seq (String.to_seq pattern)))

let run_grouped ?pool ?shards ?every ~slots sources =
  let mean = (Lazy.force small_model).Ss_core.Model.mean in
  let n = Array.length sources in
  (* A no-op checkpoint hook caps the staging block at [every] slots,
     so a run spans several blocks (and ring wraps) at any n. *)
  let checkpoint = Option.map (fun every -> { Mux.every; save = (fun ~slot:_ _ -> ()) }) every in
  Mux.run ?pool ?shards ?checkpoint ~buffer:(3.0 *. mean) ~thresholds:[ mean ]
    ~service:(float_of_int n *. mean /. 0.9) ~slots sources

let check_grouped label ?pool ?shards ?every ~slots mk =
  let want = run_grouped ~slots ?every (Array.map per_source (mk ())) in
  let got = run_grouped ?pool ?shards ?every ~slots (mk ()) in
  if not (Mux.equal_report want got) then Alcotest.failf "%s: grouped run differs" label

let test_mux_grouped_matches_per_source () =
  (* Same-model exact sources advanced side by side are the per-source
     path bitwise: at group sizes below, at and above [group] and
     across several tiles, at orders where every slot is pre-steady
     state, where the ring wraps, and in between. *)
  List.iter
    (fun order ->
      List.iter
        (fun n ->
          let mk () = grouped_sources ~order ~seed:(500 + n) (String.make n 'a') in
          check_grouped (Printf.sprintf "n=%d order=%d" n order) ~every:97 ~slots:700 mk)
        [ 1; 7; 8; 9; 17; 37; 64 ])
    [ 1; 16; 512 ];
  (* A horizon ending mid-block leaves the grouped path for its last
     block; two models interleaved in one tile form only same-table
     groups; a custom pull sharing a model source's generator keeps
     its place in the draw order; a wrapped source runs its wrapper. *)
  List.iter
    (fun pattern ->
      let counts = Array.make (String.length pattern) 0 in
      let mk () = grouped_sources ~horizon:250 ~counts ~order:16 ~seed:77 pattern in
      Array.fill counts 0 (Array.length counts) 0;
      check_grouped pattern ~every:100 ~slots:600 mk;
      String.iteri
        (fun i k ->
          if k = 'w' && counts.(i) <> 2 * 600 then
            Alcotest.failf "%s: wrapper of source %d saw %d slots" pattern i counts.(i))
        pattern)
    [
      "aahaahahaaaaaaaahhhhhhhhhhaa";
      "aaaabbbbaaaaaaaaabbbbbbbbbbaaab";
      "abababababababab";
      "aasaacaaaaaaasaaaaaaaac";
      "asasaacsassaasaaac";
      "aaawaaaaaaaaawaaaa";
    ]

let test_mux_grouped_layouts () =
  (* Grouped runs stay bitwise at every shard count, with and without
     a pool, and across a checkpoint split: the snapshot bytes equal
     the per-source run's and a resumed run reproduces the
     uninterrupted report. *)
  let slots = 900 in
  let mk () = grouped_sources ~order:64 ~seed:601 (String.make 37 'a' ^ "bbbbbbbbb") in
  let pool = Pool.create ~domains:2 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  List.iter
    (fun (pool, shards) ->
      check_grouped
        (Printf.sprintf "shards=%d pool=%b" shards (pool <> None))
        ?pool ~shards ~slots mk)
    (List.concat_map (fun s -> [ (None, s); (Some pool, s) ]) [ 1; 2; 4; 7 ]);
  let snapshot sources =
    let first = ref None in
    let save ~slot fill =
      if !first = None then begin
        let w = Ss_checkpoint.W.create () in
        fill w;
        first := Some (slot, Ss_checkpoint.W.contents w)
      end
    in
    let mean = (Lazy.force small_model).Ss_core.Model.mean in
    let r =
      Mux.run ~checkpoint:{ Mux.every = 300; save } ~buffer:(3.0 *. mean)
        ~service:(float_of_int (Array.length sources) *. mean /. 0.9) ~slots sources
    in
    (r, Option.get !first)
  in
  let r_grouped, (slot, bytes_grouped) = snapshot (mk ()) in
  let r_single, (_, bytes_single) = snapshot (Array.map per_source (mk ())) in
  if not (Mux.equal_report r_grouped r_single) then Alcotest.fail "checkpointed runs differ";
  if not (String.equal bytes_grouped bytes_single) then
    Alcotest.failf "snapshot bytes at slot %d differ" slot;
  let mean = (Lazy.force small_model).Ss_core.Model.mean in
  let sources = mk () in
  let resumed =
    Mux.run ~resume:(Ss_checkpoint.R.of_string bytes_grouped) ~buffer:(3.0 *. mean)
      ~service:(float_of_int (Array.length sources) *. mean /. 0.9) ~slots sources
  in
  if not (Mux.equal_report r_single resumed) then Alcotest.fail "resumed grouped run differs"

let test_mux_grouped_fixture () =
  (* Parent-captured fixture of a 37-source, order-512 exact run
     (32 + 5 sources: four full groups and a remainder tile), as
     IEEE bit patterns: the grouped kernel and the block transform
     must not move a bit. *)
  let m = Lazy.force small_model in
  let mean = m.Ss_core.Model.mean in
  let n = 37 in
  let rng = Rng.create ~seed:37 in
  let srcs =
    Array.init n (fun i ->
        Source.of_model ~name:(Printf.sprintf "f%02d" i) ~order:512 m (Rng.split rng))
  in
  let r =
    Mux.run ~buffer:(5.0 *. mean) ~service:(float_of_int n *. mean /. 0.9) ~slots:2500 srcs
  in
  let bits name want got =
    if Int64.bits_of_float got <> want then
      Alcotest.failf "%s: got %.17g (%LdL), want %.17g" name got (Int64.bits_of_float got)
        (Int64.float_of_bits want)
  in
  bits "mean queue" 4652782664131220762L r.Mux.mean_queue;
  bits "loss fraction" 4558603074627924538L r.Mux.loss_fraction;
  let offered =
    [|
      4715826407298214242L; 4716111163233321679L; 4718960885469855889L; 4715737415477316046L;
      4717198781064563836L; 4716695705809791768L; 4713851646034917649L; 4718809941130418460L;
      4714019567671086267L; 4716404887078995603L; 4713680874843628452L; 4716406482975737729L;
      4715654051925640913L; 4716350634467438201L; 4716516921461726340L; 4711211778600105585L;
      4717862250216540026L; 4716509647180626252L; 4715589956477158282L; 4714479649234319453L;
      4716878870240508273L; 4715822302533982271L; 4715414615311625482L; 4714638958603347232L;
      4716560192796000104L; 4717972770749883444L; 4716135985079607424L; 4717114817411337144L;
      4716129700384001247L; 4712875150630108268L; 4716097190789894492L; 4716385492455500098L;
      4715562842282735978L; 4715336735729362995L; 4717361211248350717L; 4715874262909831270L;
      4715397063434553581L;
    |]
  in
  Array.iteri
    (fun i want ->
      bits (Printf.sprintf "source %d offered" i) want r.Mux.per_source.(i).Mux.offered)
    offered

(* ------------------------------------------------------------------ *)
(* Differential property: Mux.run against the naive oracle              *)
(* ------------------------------------------------------------------ *)

let prop_mux_matches_oracle =
  QCheck.Test.make ~name:"Mux.run = naive oracle, bitwise" ~count:40 ~long_factor:25
    QCheck.(pair (int_bound 1_000_000) (int_range 1 300))
    (fun (seed, slots) ->
      (* The whole run shape is drawn from the seed. *)
      let rng = Rng.create ~seed in
      let pick xs = List.nth xs (Rng.int_range rng 0 (List.length xs - 1)) in
      let kinds = List.init (Rng.int_range rng 1 9) (fun _ -> Rng.int_range rng 0 7) in
      (* Half the runs splice in 8-12 consecutive same-model exact
         sources, which the engine advances as groups; random mixes
         rarely form one. *)
      let kinds =
        if Rng.bool rng then
          let at = Rng.int_range rng 0 (List.length kinds) in
          List.filteri (fun i _ -> i < at) kinds
          @ List.init (Rng.int_range rng 8 12) (fun _ -> 4)
          @ List.filteri (fun i _ -> i >= at) kinds
        else kinds
      in
      let load = Rng.float_range rng 0.5 1.5 in
      let service =
        Array.fold_left (fun a s -> a +. s.Source.mean) 0.0 (mixed_sources ~seed kinds) /. load
      in
      let buffer = pick [ None; Some 0.0; Some (Rng.float_range rng 0.1 8.0 *. service) ] in
      let thresholds =
        List.init (Rng.int_range rng 0 3) (fun _ -> Rng.float_range rng 0.0 4.0 *. service)
      in
      let quantiles = pick [ [ 0.5; 0.9; 0.99 ]; []; [ 0.25 ] ] in
      let police = Rng.bool rng in
      let traj = Rng.bool rng in
      let shards = pick [ 1; 2; 4; 7 ] in
      let pooled = Rng.bool rng in
      let split =
        if slots > 1 && Rng.float rng < 0.35 then Some (Rng.int_range rng 1 (slots - 1))
        else None
      in
      let stop = Rng.bool rng in
      (* One run on freshly built sources: its report and its
         trajectory rows. *)
      let run engine =
        let srcs = mixed_sources ~seed kinds in
        let police =
          if police then
            Some
              (Police.create
                 ~config:{ Police.default with Police.window = 16; warmup_windows = 1 }
                 (Array.map Admission.descr_of_source srcs))
          else None
        in
        let rows = ref [] in
        let trajectory ~slot ~served ~delays =
          rows := (slot, Array.copy served, Array.copy delays) :: !rows
        in
        let trajectory = if traj then Some trajectory else None in
        let r = engine ?police ?trajectory srcs in
        (r, List.rev !rows)
      in
      let same (r1, rows1) (r2, rows2) =
        Mux.equal_report r1 r2
        && List.equal
             (fun (s1, w1, d1) (s2, w2, d2) -> s1 = s2 && same_floats w1 w2 && same_floats d1 d2)
             rows1 rows2
      in
      let oracle ?stop_above ?observe () =
        run (fun ?police ?trajectory srcs ->
            Mux_oracle.run ?buffer ~thresholds ~quantiles ?stop_above ?observe ?police
              ?trajectory ~service ~slots srcs)
      in
      (* A stopping level from the oracle's own unstopped path, just
         under the queue of a random slot, so the run stops at or
         before that slot. *)
      let stop_above =
        if stop then begin
          let path = Array.make slots 0.0 in
          ignore (oracle ~observe:(fun t q -> path.(t) <- q) ());
          let q = path.(Rng.int_range rng 0 (slots - 1)) in
          Some (if q > 0.0 then Float.pred q else 0.0)
        end
        else None
      in
      let oracle = oracle ?stop_above () in
      let pool = if pooled then Some (Pool.create ~domains:2) else None in
      Fun.protect ~finally:(fun () -> Option.iter Pool.shutdown pool) @@ fun () ->
      let engine ?checkpoint ?resume ?police ?trajectory srcs =
        Mux.run ?pool ~shards ?buffer ~thresholds ~quantiles ?stop_above ?police ?trajectory
          ?checkpoint ?resume ~service ~slots srcs
      in
      match split with
      | None -> same oracle (run (engine ?checkpoint:None ?resume:None))
      | Some every ->
        (* Snapshot, then resume the first snapshot on fresh sources:
           from its slot on, the resumed run is the oracle's run. *)
        let first = ref None in
        let save ~slot fill =
          if !first = None then begin
            let w = Ss_checkpoint.W.create () in
            fill w;
            first := Some (slot, Ss_checkpoint.R.of_string (Ss_checkpoint.W.contents w))
          end
        in
        same oracle (run (engine ~checkpoint:{ Mux.every; save } ?resume:None))
        &&
        match !first with
        | None -> true
        | Some (slot, resume) ->
          let r, rows = oracle in
          same (r, List.filter (fun (s, _, _) -> s >= slot) rows)
            (run (engine ?checkpoint:None ~resume)))

let prop_mux_single_class_matches_oracle =
  QCheck.Test.make ~name:"single-class finite-buffer Mux.run = naive oracle, bitwise" ~count:40
    ~long_factor:25
    QCheck.(pair (int_bound 1_000_000) (int_range 1 300))
    (fun (seed, slots) ->
      (* Every [mixed_sources] kind but the multi-class pull (2), so
         every staged block is all class 0; no policer and no
         trajectory, over a finite buffer: empty, small or large. *)
      let rng = Rng.create ~seed in
      let pick xs = List.nth xs (Rng.int_range rng 0 (List.length xs - 1)) in
      let kinds = List.init (Rng.int_range rng 1 40) (fun _ -> pick [ 0; 1; 3; 4; 5; 6; 7 ]) in
      let load = Rng.float_range rng 0.5 1.5 in
      let service =
        Array.fold_left (fun a s -> a +. s.Source.mean) 0.0 (mixed_sources ~seed kinds) /. load
      in
      let small = Rng.float_range rng 0.01 0.5 and large = Rng.float_range rng 2.0 8.0 in
      let buffer = pick [ 0.0; small *. service; large *. service ] in
      let thresholds =
        List.init (Rng.int_range rng 0 2) (fun _ -> Rng.float_range rng 0.0 2.0 *. service)
      in
      let quantiles = pick [ [ 0.5; 0.9; 0.99 ]; []; [ 0.25 ] ] in
      let shards = pick [ 1; 2; 4; 7 ] in
      let pooled = Rng.bool rng in
      let split =
        if slots > 1 && Rng.bool rng then Some (Rng.int_range rng 1 (slots - 1)) else None
      in
      let oracle ?stop_above ?observe () =
        Mux_oracle.run ~buffer ~thresholds ~quantiles ?stop_above ?observe ~service ~slots
          (mixed_sources ~seed kinds)
      in
      let stop_above =
        if Rng.bool rng then begin
          let path = Array.make slots 0.0 in
          ignore (oracle ~observe:(fun t q -> path.(t) <- q) () : Mux.report);
          let q = path.(Rng.int_range rng 0 (slots - 1)) in
          Some (if q > 0.0 then Float.pred q else 0.0)
        end
        else None
      in
      let want = oracle ?stop_above () in
      let pool = if pooled then Some (Pool.create ~domains:2) else None in
      Fun.protect ~finally:(fun () -> Option.iter Pool.shutdown pool) @@ fun () ->
      let engine ?checkpoint ?resume () =
        Mux.run ?pool ~shards ~buffer ~thresholds ~quantiles ?stop_above ?checkpoint ?resume
          ~service ~slots (mixed_sources ~seed kinds)
      in
      match split with
      | None -> Mux.equal_report want (engine ())
      | Some every -> (
        let first = ref None in
        let save ~slot:_ fill =
          if !first = None then begin
            let w = Ss_checkpoint.W.create () in
            fill w;
            first := Some (Ss_checkpoint.R.of_string (Ss_checkpoint.W.contents w))
          end
        in
        Mux.equal_report want (engine ~checkpoint:{ Mux.every; save } ())
        &&
        match !first with
        | None -> true
        | Some resume -> Mux.equal_report want (engine ~resume ())))

let prop_mux_multi_class_matches_oracle =
  QCheck.Test.make ~name:"unpoliced multi-class Mux.run = naive oracle, bitwise" ~count:40
    ~long_factor:25
    QCheck.(pair (int_bound 1_000_000) (int_range 1 300))
    (fun (seed, slots) ->
      (* Every [mixed_sources] kind, the multi-class pull (2) in about
         half the sources, no policer and no trajectory, over an
         unbounded, empty, small or large buffer. A stopping level and
         a checkpoint split are drawn independently, so some runs
         stop after resuming. *)
      let rng = Rng.create ~seed in
      let pick xs = List.nth xs (Rng.int_range rng 0 (List.length xs - 1)) in
      let kinds =
        List.init (Rng.int_range rng 1 40) (fun _ ->
            if Rng.bool rng then 2 else Rng.int_range rng 0 7)
      in
      let load = Rng.float_range rng 0.5 1.5 in
      let service =
        Array.fold_left (fun a s -> a +. s.Source.mean) 0.0 (mixed_sources ~seed kinds) /. load
      in
      let small = Rng.float_range rng 0.01 0.5 and large = Rng.float_range rng 2.0 8.0 in
      let buffer = pick [ infinity; 0.0; small *. service; large *. service ] in
      let thresholds =
        List.init (Rng.int_range rng 0 2) (fun _ -> Rng.float_range rng 0.0 2.0 *. service)
      in
      let quantiles = pick [ [ 0.5; 0.9; 0.99 ]; []; [ 0.25 ] ] in
      let shards = pick [ 1; 2; 4; 7 ] in
      let pooled = Rng.bool rng in
      let split =
        if slots > 1 && Rng.bool rng then Some (Rng.int_range rng 1 (slots - 1)) else None
      in
      let oracle ?stop_above ?observe () =
        Mux_oracle.run ~buffer ~thresholds ~quantiles ?stop_above ?observe ~service ~slots
          (mixed_sources ~seed kinds)
      in
      let stop_above =
        if Rng.bool rng then begin
          let path = Array.make slots 0.0 in
          ignore (oracle ~observe:(fun t q -> path.(t) <- q) () : Mux.report);
          let q = path.(Rng.int_range rng 0 (slots - 1)) in
          Some (if q > 0.0 then Float.pred q else 0.0)
        end
        else None
      in
      let want = oracle ?stop_above () in
      let pool = if pooled then Some (Pool.create ~domains:2) else None in
      Fun.protect ~finally:(fun () -> Option.iter Pool.shutdown pool) @@ fun () ->
      let engine ?checkpoint ?resume () =
        Mux.run ?pool ~shards ~buffer ~thresholds ~quantiles ?stop_above ?checkpoint ?resume
          ~service ~slots (mixed_sources ~seed kinds)
      in
      match split with
      | None -> Mux.equal_report want (engine ())
      | Some every -> (
        let first = ref None in
        let save ~slot:_ fill =
          if !first = None then begin
            let w = Ss_checkpoint.W.create () in
            fill w;
            first := Some (Ss_checkpoint.R.of_string (Ss_checkpoint.W.contents w))
          end
        in
        Mux.equal_report want (engine ~checkpoint:{ Mux.every; save } ())
        &&
        match !first with
        | None -> true
        | Some resume -> Mux.equal_report want (engine ~resume ())))

(* ------------------------------------------------------------------ *)
(* Mux_is: importance-sampled shared-buffer overflow                    *)
(* ------------------------------------------------------------------ *)

(* Small shared configuration: 2 sources at per-source utilization
   0.75, a buffer of 8 per-source means — an event common enough for
   plain MC to resolve, so IS and MC can be compared directly. *)
let mux_is_small ?model ?(twist = 0.0) ?profile ?scales () =
  let m = match model with Some m -> m | None -> Lazy.force small_model in
  let n = 2 in
  let mean = m.Ss_core.Model.mean in
  Mux_is.make_config ~model:m ~sources:n ~order:24
    ~service:(float_of_int n *. mean /. 0.75)
    ~buffer:(8.0 *. mean) ~slots:150 ~twist ?profile ?scales ()

let test_mux_is_zero_twist_is_plain_mc () =
  (* At zero twist every hit carries log weight 0, so the estimate is
     exactly the plain Monte Carlo hit fraction. *)
  let e = Mux_is.estimate (mux_is_small ()) ~replications:200 (Rng.create ~seed:91) in
  Alcotest.(check int) "replications" 200 e.Mc.replications;
  if e.Mc.hits = 0 then Alcotest.fail "event too rare for the zero-twist check";
  close ~eps:1e-12 "p = hits/reps" (float_of_int e.Mc.hits /. 200.0) e.Mc.p

let test_mux_is_replicate_contract () =
  let cfg = mux_is_small ~twist:0.4 () in
  let rng = Rng.create ~seed:92 in
  let saw_hit = ref false and saw_miss = ref false in
  for _ = 1 to 100 do
    let r = Mux_is.replicate cfg (Rng.split rng) in
    if r.Mux_is.stop_slot < 1 || r.Mux_is.stop_slot > cfg.Mux_is.slots then
      Alcotest.failf "stop slot %d outside [1, %d]" r.Mux_is.stop_slot cfg.Mux_is.slots;
    if r.Mux_is.hit then begin
      saw_hit := true;
      if not (Float.is_finite r.Mux_is.log_weight) then
        Alcotest.fail "hit must carry a finite log weight"
    end
    else begin
      saw_miss := true;
      Alcotest.(check bool) "miss log weight" true (r.Mux_is.log_weight = neg_infinity);
      Alcotest.(check int) "miss runs full horizon" cfg.Mux_is.slots r.Mux_is.stop_slot
    end
  done;
  if not (!saw_hit && !saw_miss) then Alcotest.fail "degenerate hit/miss split"

let test_mux_is_agrees_with_plain_mc () =
  (* Joint 3-sigma agreement between the twisted estimator and plain
     MC at a larger budget, on an event both can resolve. *)
  let mc = Mux_is.estimate (mux_is_small ()) ~replications:1600 (Rng.create ~seed:93) in
  let is_ = Mux_is.estimate (mux_is_small ~twist:0.3 ()) ~replications:400 (Rng.create ~seed:94) in
  let band e = 3.0 *. sqrt (e.Mc.variance /. float_of_int e.Mc.replications) in
  let sep = abs_float (mc.Mc.p -. is_.Mc.p) in
  let tol = band mc +. band is_ in
  if sep > tol then Alcotest.failf "IS %g vs MC %g exceeds joint band %g" is_.Mc.p mc.Mc.p tol

(* Fixtures captured as [Int64.bits_of_float] before the marginal
   moments moved into a per-transform memo: the memo must leave every
   estimate and source descriptor bit for bit where it was. *)
let check_bits msg expected actual =
  if Int64.bits_of_float actual <> expected then
    Alcotest.failf "%s: expected bits 0x%Lx, got 0x%Lx (%.17g)" msg expected
      (Int64.bits_of_float actual) actual

let test_mux_is_pool_bit_identical () =
  (* The Fanout substream discipline makes the estimate a pure
     function of the root RNG: any pool size gives the same bits. *)
  let cfg = mux_is_small ~twist:0.4 () in
  let seq = Mux_is.estimate cfg ~replications:64 (Rng.create ~seed:95) in
  let pool = Pool.create ~domains:3 in
  let par =
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () -> Mux_is.estimate ~pool cfg ~replications:64 (Rng.create ~seed:95))
  in
  let same a b = Int64.bits_of_float a = Int64.bits_of_float b in
  Alcotest.(check bool) "p bits" true (same seq.Mc.p par.Mc.p);
  Alcotest.(check bool) "variance bits" true (same seq.Mc.variance par.Mc.variance);
  Alcotest.(check int) "hits" seq.Mc.hits par.Mc.hits;
  check_bits "fixture p" 0x3fd8477aad50c2c6L seq.Mc.p;
  check_bits "fixture variance" 0x3fbd02e75f058b9bL seq.Mc.variance;
  Alcotest.(check int) "fixture hits" 42 seq.Mc.hits

let test_mux_is_fixture_wide () =
  (* 16 sources at order 256, the shape of the paper's Fig 14 runs. *)
  let m = Lazy.force small_model in
  let mean = m.Ss_core.Model.mean in
  let cfg =
    Mux_is.make_config ~model:m ~sources:16 ~order:256 ~service:(16.0 *. mean /. 0.7)
      ~buffer:(120.0 *. mean) ~slots:300 ~twist:0.75 ()
  in
  let e = Mux_is.estimate cfg ~replications:20 (Rng.create ~seed:97) in
  check_bits "p" 0x3f2e1e8e29778251L e.Mc.p;
  check_bits "variance" 0x3e95cce12ca39ab0L e.Mc.variance;
  Alcotest.(check int) "hits" 14 e.Mc.hits

let test_source_moment_fixtures () =
  let m = Lazy.force small_model in
  let rng () = Rng.create ~seed:1 in
  check_bits "of_model exact sigma2" 0x4174020db4dd4f0cL (Source.of_model m (rng ())).Source.sigma2;
  check_bits "of_model fft sigma2" 0x4174020cd76578acL
    (Source.of_model ~kernel:`Fft m (rng ())).Source.sigma2;
  check_bits "of_model_twisted sigma2" 0x4174020db4dd4f0cL
    (Source.of_model_twisted ~shift:(fun _ -> 0.0) m (rng ())).Source.sigma2;
  let mp = Lazy.force small_mpeg in
  let exact = Source.of_mpeg mp (rng ()) and fft = Source.of_mpeg ~kernel:`Fft mp (rng ()) in
  check_bits "of_mpeg exact mean" 0x40a8f01c2c232628L exact.Source.mean;
  check_bits "of_mpeg exact sigma2" 0x4162620c2ed1e44fL exact.Source.sigma2;
  check_bits "of_mpeg fft mean" 0x40a8f01c30c7e885L fft.Source.mean;
  check_bits "of_mpeg fft sigma2" 0x4162620c2a21603bL fft.Source.sigma2

let test_mux_is_cold_moments_under_pool () =
  (* A transform whose moments were never requested: the first
     request comes from pool domains building twisted sources for
     concurrent replications. The estimate must equal the sequential
     one bit for bit, and the memo must then hold the same bits. *)
  let m = Lazy.force small_model in
  let fresh () =
    {
      m with
      Ss_core.Model.transform =
        Ss_fractal.Transform.make (Ss_fractal.Transform.dist m.Ss_core.Model.transform);
    }
  in
  let cfg model = mux_is_small ~model ~twist:0.4 () in
  let seq = Mux_is.estimate (cfg (fresh ())) ~replications:64 (Rng.create ~seed:95) in
  let cold = fresh () in
  let pool = Pool.create ~domains:3 in
  let par =
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () -> Mux_is.estimate ~pool (cfg cold) ~replications:64 (Rng.create ~seed:95))
  in
  check_bits "p" (Int64.bits_of_float seq.Mc.p) par.Mc.p;
  check_bits "variance" (Int64.bits_of_float seq.Mc.variance) par.Mc.variance;
  Alcotest.(check int) "hits" seq.Mc.hits par.Mc.hits;
  let t = cold.Ss_core.Model.transform in
  let mu, var = Ss_fractal.Transform.moments t in
  let mu', var' = Ss_fractal.Transform.moments t in
  let mu0, var0 = Ss_fractal.Transform.moments m.Ss_core.Model.transform in
  check_bits "memoized mean" (Int64.bits_of_float mu) mu';
  check_bits "memoized variance" (Int64.bits_of_float var) var';
  check_bits "mean = original transform's" (Int64.bits_of_float mu0) mu;
  check_bits "variance = original transform's" (Int64.bits_of_float var0) var

(* The shape of the paper's Fig 14 runs: 16 sources at order 256. *)
let mux_is_wide ?(twist = 0.75) () =
  let m = Lazy.force small_model in
  let mean = m.Ss_core.Model.mean in
  Mux_is.make_config ~model:m ~sources:16 ~order:256 ~service:(16.0 *. mean /. 0.7)
    ~buffer:(120.0 *. mean) ~slots:300 ~twist ()

let same_replication (a : Mux_is.replication) (b : Mux_is.replication) =
  a.Mux_is.hit = b.Mux_is.hit
  && Int64.equal (Int64.bits_of_float a.Mux_is.log_weight) (Int64.bits_of_float b.Mux_is.log_weight)
  && a.Mux_is.stop_slot = b.Mux_is.stop_slot

let test_mux_is_workspace_reuse () =
  (* A replication is a pure function of its substream, whichever
     replications the domain's workspace served before: the same
     config again (reused sources), then another config (rebuilt
     workspace), then the first config again (rebuilt back). *)
  let a = mux_is_small ~twist:0.4 () and b = mux_is_small ~twist:0.2 () in
  let rng = Rng.create ~seed:96 in
  let s0 = Rng.split rng in
  let first = Mux_is.replicate a (Rng.copy s0) in
  if not first.Mux_is.hit then Alcotest.fail "first replication missed: vacuous";
  ignore (Mux_is.replicate a (Rng.split rng) : Mux_is.replication);
  if not (same_replication first (Mux_is.replicate a (Rng.copy s0))) then
    Alcotest.fail "reused workspace changed the replication";
  ignore (Mux_is.replicate b (Rng.split rng) : Mux_is.replication);
  if not (same_replication first (Mux_is.replicate a (Rng.copy s0))) then
    Alcotest.fail "rebuilt workspace changed the replication"

let test_mux_is_workspace_allocation () =
  (* Warm replications reuse the domain's twisted sources, likelihood
     streams and log-ratio arrays: only per-run engine scratch is
     allocated, and it stays on the minor heap. Fresh sources would
     put every source's 2 x order-float ring on the major heap, at
     least sources x 2 x order words per replication; bound major
     words at a quarter of that. *)
  let cfg = mux_is_wide () in
  let rng = Rng.create ~seed:98 in
  for _ = 1 to 3 do
    ignore (Mux_is.replicate cfg (Rng.split rng) : Mux_is.replication)
  done;
  let reps = 20 in
  let subs = Array.init reps (fun _ -> Rng.split rng) in
  (* A minor collection on each side: the runtime books major-heap
     allocations in its counters only at collections, so without the
     first one the window would be billed for the config's table. *)
  let major_words () =
    Gc.minor ();
    (Gc.quick_stat ()).Gc.major_words
  in
  let w0 = major_words () in
  Array.iter (fun sub -> ignore (Mux_is.replicate cfg sub : Mux_is.replication)) subs;
  let per = (major_words () -. w0) /. float_of_int reps in
  let bound = float_of_int (cfg.Mux_is.sources * cfg.Mux_is.order / 2) in
  if per >= bound then
    Alcotest.failf "%.0f major words per replication (bound %.0f)" per bound

let test_mux_is_mean_stop_slot () =
  (* Twisting toward overflow shortens first passage on average. *)
  let reps = 200 in
  let plain = Mux_is.mean_stop_slot (mux_is_small ()) ~replications:reps (Rng.create ~seed:96) in
  let pushed =
    Mux_is.mean_stop_slot (mux_is_small ~twist:0.8 ()) ~replications:reps (Rng.create ~seed:96)
  in
  if not (pushed < plain) then
    Alcotest.failf "twist did not shorten first passage: %g vs %g" pushed plain

let test_mux_is_invalid () =
  let m = Lazy.force small_model in
  let mk ?(sources = 2) ?(order = 8) ?(service = 3.0) ?(buffer = 5.0) ?(slots = 50)
      ?(twist = 0.0) ?scales () =
    let (_ : Mux_is.config) =
      Mux_is.make_config ~model:m ~sources ~order ~service ~buffer ~slots ~twist ?scales ()
    in
    ()
  in
  raises_invalid "sources" (fun () -> mk ~sources:0 ());
  raises_invalid "order" (fun () -> mk ~order:0 ());
  raises_invalid "service" (fun () -> mk ~service:0.0 ());
  raises_invalid "buffer" (fun () -> mk ~buffer:(-1.0) ());
  (* NaN passes every unguarded bound test: a NaN buffer is never
     crossed and a NaN twist zeroes every slot as corrupt, so either
     would estimate p = 0 without an error. Each is refused by name. *)
  let prefix = "Mux_is.make_config: " in
  raises_invalid ~prefix:(prefix ^ "service") "NaN service" (fun () -> mk ~service:nan ());
  raises_invalid ~prefix:(prefix ^ "service") "infinite service" (fun () ->
      mk ~service:infinity ());
  raises_invalid ~prefix:(prefix ^ "buffer") "NaN buffer" (fun () -> mk ~buffer:nan ());
  raises_invalid ~prefix:(prefix ^ "buffer") "infinite buffer" (fun () -> mk ~buffer:infinity ());
  raises_invalid ~prefix:(prefix ^ "twist") "NaN twist" (fun () -> mk ~twist:nan ());
  raises_invalid ~prefix:(prefix ^ "twist") "infinite twist" (fun () -> mk ~twist:infinity ());
  raises_invalid ~prefix:(prefix ^ "twist") "negative infinite twist" (fun () ->
      mk ~twist:neg_infinity ());
  raises_invalid ~prefix:(prefix ^ "scale") "infinite scale" (fun () ->
      mk ~scales:[| 1.0; infinity |] ());
  raises_invalid ~prefix:(prefix ^ "scale") "NaN scale" (fun () -> mk ~scales:[| nan; 1.0 |] ());
  raises_invalid "slots" (fun () -> mk ~slots:0 ());
  raises_invalid "scales length" (fun () -> mk ~scales:[| 1.0 |] ());
  (* The likelihood accumulator consumes per-step Hosking innovations,
     so the materializing Davies-Harte backend must be refused up
     front (this is what `vbrsim mux --is --backend davies-harte`
     surfaces to the user). *)
  raises_invalid "Davies-Harte backend refused" (fun () ->
      let (_ : Mux_is.config) =
        Mux_is.make_config ~model:m ~sources:2 ~backend:`Davies_harte ~service:3.0
          ~buffer:5.0 ~slots:50 ~twist:0.0 ()
      in
      ());
  raises_invalid "bad replications" (fun () ->
      let (_ : Mc.estimate) =
        Mux_is.estimate (mux_is_small ()) ~replications:0 (Rng.create ~seed:1)
      in
      ())

(* ------------------------------------------------------------------ *)
(* Admission                                                            *)
(* ------------------------------------------------------------------ *)

(* sigma2 comparable to mean^2: small enough to admit several sources,
   large enough that light-load overflow stays representable (no
   underflow to 0, which would break the monotonicity check). *)
let descr mean = { Admission.name = "d"; mean; sigma2 = mean *. mean; hurst = 0.8 }

let test_admission_aggregate () =
  let a =
    Admission.aggregate
      [
        { Admission.name = "a"; mean = 1.0; sigma2 = 2.0; hurst = 0.7 };
        { Admission.name = "b"; mean = 3.0; sigma2 = 1.0; hurst = 0.9 };
      ]
  in
  close "means add" 4.0 a.Admission.mean;
  close "variances add" 3.0 a.Admission.sigma2;
  close "hurst is max" 0.9 a.Admission.hurst;
  (* The empty list aggregates to the zero descriptor, consistent
     with predicted_overflow [] = 0. *)
  let z = Admission.aggregate [] in
  close "empty mean" 0.0 z.Admission.mean;
  close "empty sigma2" 0.0 z.Admission.sigma2;
  close "empty hurst" 0.5 z.Admission.hurst

let test_admission_effective_bandwidth_inverts () =
  (* At service = effective_bandwidth, predicted overflow = epsilon. *)
  let d = descr 10.0 in
  List.iter
    (fun epsilon ->
      let c = Admission.effective_bandwidth ~buffer:50.0 ~epsilon d in
      if c <= d.Admission.mean then Alcotest.fail "effective bandwidth must exceed mean";
      let p = Admission.predicted_overflow ~service:c ~buffer:50.0 [ d ] in
      close ~eps:(1e-6 *. epsilon) (Printf.sprintf "eps %g" epsilon) epsilon p)
    [ 1e-3; 1e-6; 1e-9 ]

let test_admission_overflow_monotone_in_load () =
  let p k =
    Admission.predicted_overflow ~service:100.0 ~buffer:200.0
      (List.init k (fun _ -> descr 10.0))
  in
  if not (p 1 < p 3 && p 3 < p 6) then Alcotest.fail "overflow must grow with load";
  close "saturated link" 1.0 (p 10)

let test_admission_controller_gates () =
  let t = Admission.create ~service:100.0 ~buffer:200.0 ~epsilon:1e-4 in
  let rec admit_all k =
    match Admission.try_admit t (descr 10.0) with
    | Admission.Admit _ -> admit_all (k + 1)
    | Admission.Reject _ -> k
  in
  let n = admit_all 0 in
  Alcotest.(check int) "set size matches" n (Admission.admitted_count t);
  if n = 0 then Alcotest.fail "link should accept at least one source";
  if n > 9 then Alcotest.fail "CAC must refuse before the link saturates";
  (* decide is pure: a further candidate is still rejected, count unchanged *)
  (match Admission.decide t (descr 10.0) with
  | Admission.Reject _ -> ()
  | Admission.Admit _ -> Alcotest.fail "decide after reject must still reject");
  Alcotest.(check int) "decide does not mutate" n (Admission.admitted_count t)

let test_admission_invalid () =
  raises_invalid "bad epsilon" (fun () ->
      ignore (Admission.create ~service:1.0 ~buffer:1.0 ~epsilon:2.0));
  raises_invalid "bad service" (fun () ->
      ignore (Admission.create ~service:0.0 ~buffer:1.0 ~epsilon:0.5));
  raises_invalid "bad eb epsilon" (fun () ->
      ignore (Admission.effective_bandwidth ~buffer:1.0 ~epsilon:0.0 (descr 1.0)))

let test_admission_nan_epsilon () =
  (* NaN passes both bound tests: unrefused, it rejected every source
     ("exceeds epsilon = nan") and the run simulated nothing. *)
  raises_invalid ~prefix:"Admission.create: epsilon is NaN" "create" (fun () ->
      ignore (Admission.create ~service:1.0 ~buffer:1.0 ~epsilon:Float.nan));
  raises_invalid ~prefix:"Admission.effective_bandwidth: epsilon is NaN" "effective bandwidth"
    (fun () -> ignore (Admission.effective_bandwidth ~buffer:1.0 ~epsilon:Float.nan (descr 1.0)))

let test_admission_rejects_malformed_descriptors () =
  (* Malformed descriptors are typed rejections, not Invalid_argument
     from deep inside Norros. *)
  let t = Admission.create ~service:100.0 ~buffer:200.0 ~epsilon:1e-4 in
  let expect_reject msg d =
    match Admission.decide t d with
    | Admission.Reject _ -> ()
    | Admission.Admit _ -> Alcotest.failf "%s: expected Reject" msg
  in
  let d = descr 10.0 in
  expect_reject "NaN mean" { d with Admission.mean = Float.nan };
  expect_reject "negative mean" { d with Admission.mean = -1.0 };
  expect_reject "NaN sigma2" { d with Admission.sigma2 = Float.nan };
  expect_reject "negative sigma2" { d with Admission.sigma2 = -1.0 };
  expect_reject "NaN hurst" { d with Admission.hurst = Float.nan };
  expect_reject "hurst = 0" { d with Admission.hurst = 0.0 };
  expect_reject "hurst = 1" { d with Admission.hurst = 1.0 };
  Alcotest.(check int) "nothing admitted" 0 (Admission.admitted_count t);
  (* Empty-load decide path: a clean candidate against an empty set
     uses the zero aggregate. *)
  (match Admission.decide t (descr 10.0) with
  | Admission.Admit _ -> ()
  | Admission.Reject r -> Alcotest.failf "clean candidate rejected: %s" r);
  (* Boundary: at service = effective_bandwidth, predicted overflow
     equals epsilon and p <= epsilon admits. *)
  let eps = 1e-4 in
  let d = descr 10.0 in
  let c = Admission.effective_bandwidth ~buffer:200.0 ~epsilon:eps d in
  let t2 = Admission.create ~service:c ~buffer:200.0 ~epsilon:eps in
  match Admission.try_admit t2 d with
  | Admission.Admit p -> if p > eps *. (1.0 +. 1e-9) then Alcotest.failf "p %g above eps" p
  | Admission.Reject r -> Alcotest.failf "boundary candidate rejected: %s" r

let test_admission_renegotiate_and_evict () =
  let t = Admission.create ~service:100.0 ~buffer:200.0 ~epsilon:1e-4 in
  let d name mean = { Admission.name; mean; sigma2 = mean *. mean; hurst = 0.8 } in
  (match Admission.try_admit t (d "a" 10.0) with
  | Admission.Admit _ -> ()
  | Admission.Reject r -> Alcotest.failf "admit a: %s" r);
  (match Admission.try_admit t (d "b" 10.0) with
  | Admission.Admit _ -> ()
  | Admission.Reject r -> Alcotest.failf "admit b: %s" r);
  (* A modest drift renegotiates in place: same set size, updated
     contract. *)
  (match Admission.renegotiate t ~name:"a" (d "a" 12.0) with
  | Admission.Admit _ -> ()
  | Admission.Reject r -> Alcotest.failf "renegotiate a: %s" r);
  Alcotest.(check int) "set size unchanged" 2 (Admission.admitted_count t);
  let mean_of n =
    match List.find_opt (fun x -> x.Admission.name = n) (Admission.admitted t) with
    | Some x -> x.Admission.mean
    | None -> Alcotest.failf "%s not admitted" n
  in
  close "a's contract updated" 12.0 (mean_of "a");
  (* A drift the link cannot carry is refused and the old contract
     survives. *)
  (match Admission.renegotiate t ~name:"a" (d "a" 95.0) with
  | Admission.Reject _ -> ()
  | Admission.Admit _ -> Alcotest.fail "95/100 renegotiation must be refused");
  Alcotest.(check int) "set size still 2" 2 (Admission.admitted_count t);
  close "old contract restored" 12.0 (mean_of "a");
  (* Renegotiating an unknown name is a plain admission. *)
  (match Admission.renegotiate t ~name:"c" (d "c" 10.0) with
  | Admission.Admit _ -> ()
  | Admission.Reject r -> Alcotest.failf "renegotiate unknown: %s" r);
  Alcotest.(check int) "c admitted" 3 (Admission.admitted_count t);
  Alcotest.(check bool) "evict b" true (Admission.evict t ~name:"b");
  Alcotest.(check bool) "b already gone" false (Admission.evict t ~name:"b");
  Alcotest.(check int) "two remain" 2 (Admission.admitted_count t)

(* ------------------------------------------------------------------ *)
(* Fault: deterministic misbehavior injection                           *)
(* ------------------------------------------------------------------ *)

let const_source ?(name = "const") v =
  Source.of_array ~name ~cycle:true [| v |]

let pull_n s n = List.init n (fun _ -> fst (Source.next s))

let test_fault_drift_and_stall_semantics () =
  let rng = Rng.create ~seed:41 in
  (* Jump drift: clean until start, then factor x. *)
  let s =
    Fault.wrap ~rng:(Rng.split rng)
      [ Fault.Drift { start = 3; ramp = 0; factor = 2.0 } ]
      (const_source 1.0)
  in
  Alcotest.(check (list (float 1e-12)))
    "jump drift" [ 1.0; 1.0; 1.0; 2.0; 2.0 ] (pull_n s 5);
  (* Ramp drift: linear from start over ramp slots. *)
  let s =
    Fault.wrap ~rng:(Rng.split rng)
      [ Fault.Drift { start = 2; ramp = 4; factor = 3.0 } ]
      (const_source 1.0)
  in
  Alcotest.(check (list (float 1e-12)))
    "ramp drift"
    [ 1.0; 1.0; 1.5; 2.0; 2.5; 3.0; 3.0 ]
    (pull_n s 7);
  (* Scripted stall: zero inside [start, start+len). *)
  let s =
    Fault.wrap ~rng:(Rng.split rng)
      [ Fault.Stall { start = 1; len = 2 } ]
      (const_source 1.0)
  in
  Alcotest.(check (list (float 1e-12))) "stall" [ 1.0; 0.0; 0.0; 1.0 ] (pull_n s 4)

let test_fault_misdeclare_changes_descriptor_only () =
  let rng = Rng.create ~seed:42 in
  let s =
    Fault.wrap ~rng
      [ Fault.Misdeclare { mean = Some 0.5; sigma2 = None; hurst = Some 0.6 } ]
      (const_source 1.0)
  in
  close "declared mean lies" 0.5 s.Source.mean;
  close "declared hurst lies" 0.6 s.Source.hurst;
  Alcotest.(check (list (float 1e-12))) "traffic untouched" [ 1.0; 1.0; 1.0 ] (pull_n s 3)

let test_fault_empty_spec_is_physical_identity () =
  let src = const_source 1.0 in
  let rng = Rng.create ~seed:43 in
  if not (Fault.wrap ~rng [] src == src) then
    Alcotest.fail "empty spec must return the source unchanged";
  (* wrap_all: untargeted sources come back physically unchanged. *)
  let a = const_source ~name:"a" 1.0 and b = const_source ~name:"b" 2.0 in
  let wrapped =
    Fault.wrap_all ~rng
      [ (Some 1, [ Fault.Stall { start = 0; len = 1 } ]) ]
      [| a; b |]
  in
  if not (wrapped.(0) == a) then Alcotest.fail "untargeted source must be untouched";
  if wrapped.(1) == b then Alcotest.fail "targeted source must be wrapped"

let test_fault_schedule_deterministic () =
  (* Same seed, same spec: bit-identical fault schedule — and the
     schedule of source i does not depend on which other sources are
     targeted. *)
  let spec = [ Fault.Dropout { rate = 0.05; mean_len = 4.0 }; Fault.Corrupt { rate = 0.02 } ] in
  let run extra_target =
    let specs = (Some 0, spec) :: extra_target in
    let wrapped =
      Fault.wrap_all ~rng:(Rng.create ~seed:44) specs
        [| const_source ~name:"a" 1.0; const_source ~name:"b" 1.0 |]
    in
    List.init 500 (fun _ -> fst (Source.next wrapped.(0)))
  in
  let reference = run [] in
  let with_other = run [ (Some 1, [ Fault.Stall { start = 0; len = 10 } ]) ] in
  List.iter2
    (fun a b ->
      match (Float.is_nan a, Float.is_nan b) with
      | true, true -> ()
      | false, false -> close ~eps:0.0 "schedule stable" a b
      | _ -> Alcotest.fail "corruption schedule moved")
    reference with_other;
  if not (List.exists (fun x -> x = 0.0) reference) then
    Alcotest.fail "dropout fault never fired in 500 slots";
  if not (List.exists (fun x -> Float.is_nan x || x < 0.0) reference) then
    Alcotest.fail "corrupt fault never fired in 500 slots"

let test_fault_parse () =
  (match Fault.parse "0:drift@100+50x4.0;*:corrupt@0.01" with
  | [ (Some 0, [ Fault.Drift { start = 100; ramp = 50; factor = f } ]);
      (None, [ Fault.Corrupt { rate } ]) ] ->
    close "factor" 4.0 f;
    close "rate" 0.01 rate
  | _ -> Alcotest.fail "parse structure mismatch");
  (match Fault.parse "1:burst@0.01+20x3,stall@5+2,dropout@0.1+8,mean=2.5,hurst=0.9" with
  | [ (Some 1, [ Fault.Burst _; Fault.Stall _; Fault.Dropout _;
                 Fault.Misdeclare { mean = Some m; _ };
                 Fault.Misdeclare { hurst = Some h; _ } ]) ] ->
    close "mean" 2.5 m;
    close "hurst" 0.9 h
  | _ -> Alcotest.fail "multi-event parse mismatch");
  List.iter
    (fun bad -> raises_invalid (Printf.sprintf "bad spec %S" bad) (fun () -> ignore (Fault.parse bad)))
    [ ""; "nonsense"; "0:"; "x:stall@1+2"; "0:drift@-1+0x2"; "0:corrupt@1.5"; "0:hurst=1.5" ]

(* ------------------------------------------------------------------ *)
(* Police: measurement-based conformance monitoring                     *)
(* ------------------------------------------------------------------ *)

let police_config ~window =
  { Police.default with Police.window; warmup_windows = 1 }

let drive police ~from ~slots w =
  for t = from to from + slots - 1 do
    Police.observe police ~slot:t 0 (w t)
  done

let test_police_conforming_source_untouched () =
  (* An honest FGN-driven source inside its declared envelope: no
     sanctions that alter traffic. *)
  let m = Lazy.force small_model in
  let src = Source.of_model ~order:32 m (Rng.create ~seed:51) in
  let p = Police.create ~config:(police_config ~window:256) [| Admission.descr_of_source src |] in
  for t = 0 to 4095 do
    Police.observe p ~slot:t 0 (fst (Source.next src))
  done;
  Alcotest.(check bool) "not evicted" false (Police.evicted p 0);
  close "no cap" infinity (Police.cap p 0);
  Alcotest.(check int) "no demotion" 0 (Police.demotion p 0);
  List.iter
    (fun i ->
      match i.Police.event with
      | Police.Throttle_set c when c < infinity -> Alcotest.fail "conforming source throttled"
      | Police.Demoted _ | Police.Evicted -> Alcotest.fail "conforming source sanctioned"
      | _ -> ())
    (Police.incidents p)

let test_police_detects_violation_and_escalates () =
  (* A 5x mean violation: flagged at the first post-warmup window,
     throttled immediately, evicted after evict_after bad windows. *)
  let declared = { Admission.name = "v"; mean = 1.0; sigma2 = 0.1; hurst = 0.6 } in
  let w = 32 in
  let p = Police.create ~config:(police_config ~window:w) [| declared |] in
  drive p ~from:0 ~slots:(6 * w) (fun _ -> 5.0);
  (match Police.detected_at p 0 with
  | Some t ->
    if t > 2 * w then Alcotest.failf "detected only at slot %d" t
  | None -> Alcotest.fail "violation never detected");
  Alcotest.(check bool) "evicted" true (Police.evicted p 0);
  if Police.cap p 0 = infinity then Alcotest.fail "violator must have been throttled";
  let events = List.map (fun i -> i.Police.event) (Police.incidents p) in
  if not (List.exists (function Police.Flagged (Police.Violating _) -> true | _ -> false) events)
  then Alcotest.fail "no Violating flag recorded";
  if not (List.mem Police.Evicted events) then Alcotest.fail "no eviction recorded";
  (* After eviction the state is frozen. *)
  let n = Police.incident_count p in
  drive p ~from:(6 * w) ~slots:w (fun _ -> 5.0);
  Alcotest.(check int) "no incidents after eviction" n (Police.incident_count p)

let test_police_renegotiates_drift () =
  (* A +30% drift with CAC headroom renegotiates: the measured model
     becomes the contract and later windows conform. *)
  let declared = { Admission.name = "d"; mean = 1.0; sigma2 = 0.1; hurst = 0.6 } in
  let cac = Admission.create ~service:10.0 ~buffer:50.0 ~epsilon:1e-2 in
  (match Admission.try_admit cac declared with
  | Admission.Admit _ -> ()
  | Admission.Reject r -> Alcotest.failf "seed admission: %s" r);
  let w = 64 in
  let p = Police.create ~config:(police_config ~window:w) ~cac [| declared |] in
  let rng = Rng.create ~seed:52 in
  let noisy mean _ = mean +. (0.05 *. Rng.gaussian rng) in
  drive p ~from:0 ~slots:(4 * w) (noisy 1.3);
  let events = List.map (fun i -> i.Police.event) (Police.incidents p) in
  if not (List.exists (function Police.Renegotiated _ -> true | _ -> false) events) then
    Alcotest.fail "no renegotiation recorded";
  close ~eps:0.05 "contract follows the measurement" 1.3 (Police.declared p 0).Admission.mean;
  close ~eps:0.05 "CAC load updated" 1.3
    (match Admission.admitted cac with [ d ] -> d.Admission.mean | _ -> Alcotest.fail "load size");
  Alcotest.(check bool) "not evicted" false (Police.evicted p 0);
  close "no cap" infinity (Police.cap p 0);
  (* Conforming again against the renegotiated contract: no further
     escalation. *)
  let n = List.length (List.filter (function Police.Renegotiated _ -> true | _ -> false) events) in
  drive p ~from:(4 * w) ~slots:(4 * w) (noisy 1.3);
  let n' =
    List.length
      (List.filter (fun i -> match i.Police.event with Police.Renegotiated _ -> true | _ -> false)
         (Police.incidents p))
  in
  Alcotest.(check int) "one renegotiation suffices" n n'

let test_police_escalation_ladder_without_headroom () =
  (* Refused renegotiation walks the ladder: demote, throttle, evict. *)
  let declared = { Admission.name = "l"; mean = 1.0; sigma2 = 0.1; hurst = 0.6 } in
  let cac = Admission.create ~service:1.1 ~buffer:50.0 ~epsilon:1e-2 in
  (match Admission.try_admit cac declared with
  | Admission.Admit _ -> ()
  | Admission.Reject r -> Alcotest.failf "seed admission: %s" r);
  let w = 32 in
  let p = Police.create ~config:(police_config ~window:w) ~cac [| declared |] in
  drive p ~from:0 ~slots:(20 * w) (fun _ -> 1.3);
  let events = List.map (fun i -> i.Police.event) (Police.incidents p) in
  let has f = List.exists f events in
  if not (has (function Police.Demoted 1 -> true | _ -> false)) then
    Alcotest.fail "no demotion recorded";
  if not (has (function Police.Throttle_set c -> c < infinity | _ -> false)) then
    Alcotest.fail "no throttle recorded";
  if not (List.mem Police.Evicted events) then Alcotest.fail "no eviction recorded";
  Alcotest.(check bool) "evicted" true (Police.evicted p 0);
  Alcotest.(check int) "contract released" 0 (Admission.admitted_count cac)

let test_police_mux_integration () =
  (* End to end through Mux.run: a faulted source is contained while
     a clean one is untouched; the zero-fault policed run is
     bit-identical to the unpoliced one. *)
  let m = Lazy.force small_model in
  let mk seed = Source.of_model ~order:32 m (Rng.create ~seed) in
  let service = 3.0 *. m.Ss_core.Model.mean in
  let slots = 6144 in
  let plain = Mux.run ~service ~slots [| mk 61; mk 62 |] in
  let srcs = [| mk 61; mk 62 |] in
  let p =
    Police.create ~config:(police_config ~window:256) (Array.map Admission.descr_of_source srcs)
  in
  let policed = Mux.run ~police:p ~service ~slots srcs in
  close ~eps:0.0 "mean queue identical" plain.Mux.mean_queue policed.Mux.mean_queue;
  close ~eps:0.0 "max queue identical" plain.Mux.max_queue policed.Mux.max_queue;
  Array.iteri
    (fun i s ->
      close ~eps:0.0 "offered identical" s.Mux.offered policed.Mux.per_source.(i).Mux.offered)
    plain.Mux.per_source;
  (* Now inject a hard drift on source 0 and police it: the drifter
     must be sanctioned (throttled or evicted), the clean source must
     lose nothing. *)
  let srcs = [| mk 61; mk 62 |] in
  let faulted =
    Fault.wrap_all ~rng:(Rng.create ~seed:63)
      [ (Some 0, [ Fault.Drift { start = 1024; ramp = 0; factor = 5.0 } ]) ]
      srcs
  in
  let p =
    Police.create ~config:(police_config ~window:256)
      (Array.map Admission.descr_of_source faulted)
  in
  let r = Mux.run ~police:p ~buffer:(20.0 *. m.Ss_core.Model.mean) ~service ~slots faulted in
  (match Police.detected_at p 0 with
  | Some t -> if t > 1024 + (3 * 256) then Alcotest.failf "drift detected late, slot %d" t
  | None -> Alcotest.fail "drift never detected");
  let sanctioned =
    Police.evicted p 0 || Police.cap p 0 < infinity
    || r.Mux.per_source.(0).Mux.throttled > 0.0
    || r.Mux.per_source.(0).Mux.discarded > 0.0
  in
  Alcotest.(check bool) "drifter sanctioned" true sanctioned;
  (* Honest LRD sources may collect benign drift flags; what matters
     is that the clean source is never sanctioned. *)
  Alcotest.(check bool) "clean source not evicted" false (Police.evicted p 1);
  close "clean source not throttled" infinity (Police.cap p 1);
  Alcotest.(check int) "clean source not demoted" 0 (Police.demotion p 1);
  close "clean source loses nothing" 0.0 r.Mux.per_source.(1).Mux.throttled

(* ------------------------------------------------------------------ *)
(* Policed, fault-injected run: fixture and allocation bound            *)
(* ------------------------------------------------------------------ *)

(* A small robust-ckpt scenario: 16 order-16 model sources behind
   burst, drift and corrupt faults, all admitted by a CAC the policer
   (window 256) renegotiates with, over a finite buffer. Over 4096
   slots the policer flags drift, renegotiates, throttles and lifts
   throttles; it evicts the drifting source 0 as a violator and source
   7 at its corrupt-slot limit. Source 7's stall precedes its
   corruption, so its corrupt slots depend on the events' order. *)
let policed_scenario () =
  let m = Lazy.force small_model in
  let n = 16 in
  let rng = Rng.create ~seed:1901 in
  let raw =
    Array.init n (fun i ->
        Source.of_model ~name:(Printf.sprintf "p%d" i) ~order:16 m (Rng.split rng))
  in
  let spec = Fault.parse "*:burst@0.002+40x2.5;0:drift@512+100x3.0;7:stall@1024+256,corrupt@0.01" in
  let srcs = Fault.wrap_all ~rng:(Rng.split rng) spec raw in
  let per_mean = srcs.(0).Source.mean in
  let service = float_of_int n *. per_mean /. 0.8 and buffer = 50.0 *. per_mean in
  let cac = Admission.create ~service ~buffer ~epsilon:0.5 in
  Array.iter
    (fun s ->
      match Admission.try_admit cac (Admission.descr_of_source s) with
      | Admission.Admit _ -> ()
      | Admission.Reject _ -> Alcotest.fail "policed scenario: a source was rejected")
    srcs;
  let police =
    Police.create ~config:(police_config ~window:256) ~cac
      (Array.map Admission.descr_of_source srcs)
  in
  (srcs, police, service, buffer)

let test_police_fault_fixture () =
  (* Bits captured while Welford state was boxed and fault events ran
     slot by slot. The engine = oracle tests cannot see a bitwise
     drift in these layers: the oracle shares Police, Online_stats and
     Fault with the engine. *)
  let srcs, police, service, buffer = policed_scenario () in
  let snapshot = ref "none" in
  let save ~slot fill =
    if slot = 2048 then begin
      let w = Ss_checkpoint.W.create () in
      fill w;
      snapshot := Digest.to_hex (Digest.string (Ss_checkpoint.W.contents w))
    end
  in
  let r =
    Mux.run ~checkpoint:{ Mux.every = 1024; save } ~police ~buffer ~service ~slots:4096 srcs
  in
  let hex x = Printf.sprintf "%016Lx" (Int64.bits_of_float x) in
  let descr b (d : Admission.descr) =
    Printf.bprintf b " %s %s %s %s" d.Admission.name (hex d.Admission.mean)
      (hex d.Admission.sigma2) (hex d.Admission.hurst)
  in
  let incidents = Buffer.create 4096 in
  List.iter
    (fun { Police.slot; source; event } ->
      Printf.bprintf incidents "%d %s" slot source;
      (match event with
      | Police.Flagged Police.Conforming -> Buffer.add_string incidents " conforming"
      | Police.Flagged (Police.Drifting d) ->
        Buffer.add_string incidents " drifting";
        descr incidents d
      | Police.Flagged (Police.Violating why) -> Printf.bprintf incidents " violating %S" why
      | Police.Renegotiated d ->
        Buffer.add_string incidents " renegotiated";
        descr incidents d
      | Police.Demoted k -> Printf.bprintf incidents " demoted %d" k
      | Police.Throttle_set cap -> Printf.bprintf incidents " throttle %s" (hex cap)
      | Police.Evicted -> Buffer.add_string incidents " evicted");
      Buffer.add_char incidents '\n')
    (Police.incidents police);
  let measured = Buffer.create 1024 in
  Array.iteri
    (fun i _ ->
      (match Police.measured police i with
      | None -> Buffer.add_string measured "none"
      | Some d -> descr measured d);
      Buffer.add_char measured '\n')
    srcs;
  let digest b = Digest.to_hex (Digest.string (Buffer.contents b)) in
  let check = Alcotest.(check string) in
  check "mean_queue" "40ec1c90561d644d" (hex r.Mux.mean_queue);
  check "loss_fraction" "3f9553d3514c3bb3" (hex r.Mux.loss_fraction);
  Alcotest.(check int) "incident count" 49 (Police.incident_count police);
  check "incidents" "0fc6b207ac0209a58c5660f203a212af" (digest incidents);
  check "measured descriptors" "06233766b7e4c11b2a90b3a7e35b728f" (digest measured);
  check "snapshot at slot 2048" "3e020afb61b0491527460450165ee512" !snapshot;
  Alcotest.(check (list string))
    "per source: offered, throttled, discarded"
    [
      "4174524f6f283917 4120b219ce07c0aa 4190726bf1e47faa";
      "4180b1161257b44b 0000000000000000 0000000000000000";
      "4183164547a0964e 0000000000000000 0000000000000000";
      "418157a145bed5de 0000000000000000 0000000000000000";
      "41813c7fa1d7f763 0000000000000000 0000000000000000";
      "41805b1ff6b1f531 0000000000000000 0000000000000000";
      "4183535af670f6f3 0000000000000000 0000000000000000";
      "41649f1852fc0aa1 0000000000000000 4175b5bce201f4e8";
      "417dcac837a3378f 0000000000000000 0000000000000000";
      "4180614437d3aa66 0000000000000000 0000000000000000";
      "417e3648596cdefa 0000000000000000 0000000000000000";
      "418466a09976b557 0000000000000000 0000000000000000";
      "4182fd9c64030769 0000000000000000 0000000000000000";
      "4182a5bc48d99157 40b9e4e0d8a17d88 0000000000000000";
      "4182c677885bc6a7 0000000000000000 0000000000000000";
      "4183a8d22f5cd686 0000000000000000 0000000000000000";
    ]
    (Array.to_list
       (Array.map
          (fun s -> String.concat " " (List.map hex Mux.[ s.offered; s.throttled; s.discarded ]))
          r.Mux.per_source))

let test_police_fault_allocation () =
  (* Policing and fault events do not box per source-slot: the Welford
     and variance-time state is stored unboxed, and each event runs
     over the whole pulled block. Measured on a non-flambda build:
     ~8 minor words per source-slot (the pulls' own, the policer's
     boxed argument, the burst draws), against ~46 when every Welford
     update and event application boxed. *)
  let run slots =
    let srcs, police, service, buffer = policed_scenario () in
    let w0 = Gc.minor_words () in
    let (_ : Mux.report) = Mux.run ~police ~buffer ~service ~slots srcs in
    (Gc.minor_words () -. w0) /. float_of_int (Array.length srcs * slots)
  in
  let (_ : float) = run 1024 in
  let words = run 4096 in
  if words > 16.0 then
    Alcotest.failf "policed, fault-injected run allocates %.2f minor words per source-slot" words

let test_police_fault_allocation_unboxed () =
  (* The policer reads each source's work from the staged row, the
     burst and corrupt events draw with [Rng.bernoulli], and the
     per-source AR kernel that fault-wrapped sources run inlines its
     dot product, so none of them boxes a float per source-slot.
     Measured on a non-flambda build: 2.0 minor words per source-slot,
     against 7.8 when all three did. *)
  let run slots =
    let srcs, police, service, buffer = policed_scenario () in
    let w0 = Gc.minor_words () in
    let (_ : Mux.report) = Mux.run ~police ~buffer ~service ~slots srcs in
    (Gc.minor_words () -. w0) /. float_of_int (Array.length srcs * slots)
  in
  let (_ : float) = run 1024 in
  let words = run 4096 in
  if words > 3.0 then
    Alcotest.failf "policed, fault-injected run allocates %.2f minor words per source-slot" words

(* ------------------------------------------------------------------ *)
(* Finite-buffer, single-class runs                                     *)
(* ------------------------------------------------------------------ *)

(* 300 cycling replays and one 40-slot replay that departs (ten
   32-source staging tiles, the last one partial), all class 0 and
   unpoliced, over a finite buffer that fills on about 3% of the
   slots. Sources 17 and 230 carry NaN, -1, +inf and -0.0 at fixed
   positions of their cycles. *)
let lane_sources () =
  let rng = Rng.create ~seed:2020 in
  let seg i =
    let len = Rng.int_range rng 48 160 in
    let mean = 0.5 +. (0.25 *. float_of_int (i mod 5)) in
    Array.init len (fun _ -> Rng.exponential rng ~rate:(1.0 /. mean))
  in
  let cycling =
    Array.init 300 (fun i ->
        let a = seg i in
        if i = 17 then begin
          a.(3) <- nan;
          a.(20) <- -1.0;
          a.(41) <- -0.0
        end;
        if i = 230 then begin
          a.(5) <- infinity;
          a.(11) <- -0.0;
          a.(30) <- nan
        end;
        Source.of_array ~name:(Printf.sprintf "r%03d" i) ~cycle:true a)
  in
  Array.append cycling [| Source.of_array ~name:"short" (Array.sub (seg 300) 0 40) |]

let lane_buffer = 20.0
let lane_service = 320.0
let lane_slots = 3000

let lane_run ?pool ?shards ?checkpoint ?resume ?stop_above () =
  Mux.run ?pool ?shards ?checkpoint ?resume ?stop_above ~buffer:lane_buffer
    ~service:lane_service ~slots:lane_slots (lane_sources ())

let test_mux_lane_fixture () =
  (* Bits captured while every finite-buffer run took the general
     admission path, which streams the class row and the works/classes
     scratch. *)
  let r = lane_run () in
  let hex x = Printf.sprintf "%016Lx" (Int64.bits_of_float x) in
  let per_source = Buffer.create 65536 in
  Array.iter
    (fun s ->
      Printf.bprintf per_source "%s %s %s %s %s %d %s\n" s.Mux.name (hex s.Mux.offered)
        (hex s.Mux.admitted) (hex s.Mux.lost) (hex s.Mux.peak_rate) s.Mux.corrupt_slots
        (match s.Mux.departed_at with None -> "-" | Some t -> string_of_int t))
    r.Mux.per_source;
  let quantiles qs = String.concat " " (List.map (fun (_, v) -> hex v) qs) in
  Alcotest.(check (list (pair string string)))
    "finite-buffer single-class run"
    [
      ("mean_queue", "3ffd3d9fbe9df3e8");
      ("max_queue", "4034000000000080");
      ("loss_fraction", "3f507f0c392d7f65");
      ("carried_utilization", "3fee16ff02175530");
      ("queue quantiles", "3e92a20f91ec624f 40201e938f3dbebc 4033fffffd724307");
      ("delay quantiles", "3e0dd018e97a074e 3f99ca85b1fc645e 3faffffffbea04d7");
      ("source 17 lost", "40088327e0056107");
      ("source 230 admitted", "4090efaf58b0eede");
      ("corrupt slots", "44 106");
      ("departed at", "40");
      ("per source", "4836c6937882a8f3e77d968e58c2ef5a");
    ]
    [
      ("mean_queue", hex r.Mux.mean_queue);
      ("max_queue", hex r.Mux.max_queue);
      ("loss_fraction", hex r.Mux.loss_fraction);
      ("carried_utilization", hex r.Mux.carried_utilization);
      ("queue quantiles", quantiles r.Mux.queue_quantiles);
      ("delay quantiles", quantiles r.Mux.delay_quantiles);
      ("source 17 lost", hex r.Mux.per_source.(17).Mux.lost);
      ("source 230 admitted", hex r.Mux.per_source.(230).Mux.admitted);
      ( "corrupt slots",
        Printf.sprintf "%d %d" r.Mux.per_source.(17).Mux.corrupt_slots
          r.Mux.per_source.(230).Mux.corrupt_slots );
      ( "departed at",
        Option.fold ~none:"-" ~some:string_of_int r.Mux.per_source.(300).Mux.departed_at );
      ("per source", Digest.to_hex (Digest.string (Buffer.contents per_source)));
    ]

let test_mux_lane_matches_oracle () =
  (* The fixture's run is the naive oracle's, bitwise: at 1, 3 and 4
     shards and over a pool, across a checkpoint split and its resume,
     and stopped at its first queue above 0.9 of the buffer. *)
  let oracle ?stop_above () =
    Mux_oracle.run ?stop_above ~buffer:lane_buffer ~service:lane_service ~slots:lane_slots
      (lane_sources ())
  in
  let whole = oracle () in
  let check ?(want = whole) label r =
    if not (Mux.equal_report want r) then Alcotest.failf "%s: differs from the oracle" label
  in
  List.iter
    (fun shards -> check (Printf.sprintf "shards=%d" shards) (lane_run ~shards ()))
    [ 1; 3; 4 ];
  let pool = Pool.create ~domains:2 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      check "pooled" (lane_run ~pool ());
      check "pooled, shards=3" (lane_run ~pool ~shards:3 ()));
  let first = ref None in
  let save ~slot fill =
    if !first = None then begin
      let w = Ss_checkpoint.W.create () in
      fill w;
      first := Some (slot, Ss_checkpoint.W.contents w)
    end
  in
  check "checkpointed" (lane_run ~checkpoint:{ Mux.every = 1100; save } ());
  let slot, bytes = Option.get !first in
  check
    (Printf.sprintf "resumed at slot %d" slot)
    (lane_run ~resume:(Ss_checkpoint.R.of_string bytes) ());
  let stop_above = 0.9 *. lane_buffer in
  let want = oracle ~stop_above () in
  if want.Mux.first_passage = None then Alcotest.fail "the stopped run never stopped: vacuous";
  check ~want "stopped" (lane_run ~stop_above ())

(* ------------------------------------------------------------------ *)
(* Finite-buffer, multi-class unpoliced runs                            *)
(* ------------------------------------------------------------------ *)

(* A cycling replay of (work, class) pairs behind [Source.make], with
   its position checkpointed. *)
let classed_replay ~name works classes =
  let len = Array.length works in
  let k = ref 0 in
  let ckpt =
    {
      Source.ck_save = (fun w -> Ss_checkpoint.W.int w !k);
      ck_restore = (fun r -> k := Ss_checkpoint.R.int r);
    }
  in
  let mean = Array.fold_left ( +. ) 0.0 works /. float_of_int len in
  Source.make ~ckpt ~name ~mean ~sigma2:1.0 ~hurst:0.5 (fun () ->
      let j = !k mod len in
      incr k;
      (works.(j), classes.(j)))

(* 140 sources: six composite MPEG sources with I/P/B frames in
   classes 0/1/2, three classed replays over classes 0-4, 130 cycling
   class-0 replays and one 40-slot replay that departs. The first
   source with a class other than 0 is the 20th. Classed replays 0 and
   2 and class-0 replays 3 and 101 carry NaN, -1, +inf and -0.0 at
   fixed positions of their cycles, some of them in classes 1-4. *)
let classed_sources () =
  let rng = Rng.create ~seed:2121 in
  let mp = Lazy.force small_mpeg in
  let seg () =
    let len = Rng.int_range rng 48 160 in
    Array.init len (fun _ -> Rng.exponential rng ~rate:(1.0 /. 900.0))
  in
  let plant a ps = List.iter (fun (j, v) -> a.(j) <- v) ps in
  let replay i =
    let a = seg () in
    if i = 3 then plant a [ (2, nan); (17, -1.0); (30, -0.0); (44, infinity) ];
    if i = 101 then plant a [ (7, infinity); (9, -0.0); (40, nan) ];
    Source.of_array ~name:(Printf.sprintf "r%03d" i) ~cycle:true a
  in
  let classed k =
    let a = seg () in
    let c = Array.init (Array.length a) (fun _ -> Rng.int_range rng 0 4) in
    if k = 0 then plant a [ (1, nan); (5, -1.0); (8, infinity); (13, -0.0) ];
    if k = 2 then plant a [ (4, -0.0); (6, nan) ];
    classed_replay ~name:(Printf.sprintf "c%d" k) a c
  in
  let mpeg k =
    Source.of_mpeg ~name:(Printf.sprintf "m%d" k) ~order:24 ~phase:(12 * k) ~priority:true mp
      (Rng.split rng)
  in
  let next_replay = ref 0 and next_classed = ref 0 and next_mpeg = ref 0 in
  let take r =
    let v = !r in
    incr r;
    v
  in
  Array.init 140 (fun i ->
      if i = 139 then Source.of_array ~name:"short" (Array.sub (seg ()) 0 40)
      else if i = 19 || i = 54 || i = 77 || i = 98 || i = 111 || i = 130 then
        mpeg (take next_mpeg)
      else if i = 20 || i = 61 || i = 125 then classed (take next_classed)
      else replay (take next_replay))

(* The offered load is ~0.79 of the service, and the buffer
   overflows on 84 of the 3000 slots. *)
let classed_service = 173_000.0
let classed_buffer = 2_000.0
let classed_slots = 3000

let classed_run ?pool ?shards ?checkpoint ?resume ?stop_above () =
  Mux.run ?pool ?shards ?checkpoint ?resume ?stop_above ~buffer:classed_buffer
    ~service:classed_service ~slots:classed_slots (classed_sources ())

let test_mux_classed_fixture () =
  (* Bits captured while every unpoliced run transposed its staged
     blocks slot-major and admitted each slot from one row. The run
     loses work on 84 of its 3000 slots: some of them cut class 0,
     the rest refuse or cut classes 1-4. *)
  let r = classed_run () in
  let hex x = Printf.sprintf "%016Lx" (Int64.bits_of_float x) in
  let per_source = Buffer.create 16384 in
  Array.iter
    (fun s ->
      Printf.bprintf per_source "%s %s %s %s %s %d %s\n" s.Mux.name (hex s.Mux.offered)
        (hex s.Mux.admitted) (hex s.Mux.lost) (hex s.Mux.peak_rate) s.Mux.corrupt_slots
        (match s.Mux.departed_at with None -> "-" | Some t -> string_of_int t))
    r.Mux.per_source;
  let quantiles qs = String.concat " " (List.map (fun (_, v) -> hex v) qs) in
  let named name = List.find (fun s -> s.Mux.name = name) (Array.to_list r.Mux.per_source) in
  Alcotest.(check (list (pair string string)))
    "finite-buffer multi-class run"
    [
      ("mean_queue", "404ef89e278b22e5");
      ("max_queue", "409f400000000280");
      ("loss_fraction", "3f651b9ec1baf420");
      ("offered_utilization", "3fe963e8250546d5");
      ("carried_utilization", "3fe95328aa6a1b03");
      ("queue quantiles", "3f2c2a3e144ad524 3f0d63c3beb21bf3 409f3ffd51843950");
      ("delay quantiles", "3e1556c7a0a9f6d8 3df6445135922448 3f87ad2000c5280a");
      ("class 0 delay quantiles", "3e13458b1d098a24 3e729423163ca02b 3f87aca5ee532662");
      ("class 1 delay quantiles", "3e1436bcf557e7e1 3e6657d3d3dfe8aa 3f87ad1fefc1b054");
      ("class 2 delay quantiles", "3e1495c34100b1b3 3e7099fc88f3210f 3f87ad207dc63d2d");
      ("class 3 delay quantiles", "3e14d95ed5f4f5d4 3e701f2313b8abb4 3f87ad212cda7a4a");
      ("class 4 delay quantiles", "3dfe9a13866d0cf5 3e4a815d90970959 3f87ad1ec27e0154");
      ("c0 lost", "40e239e24eaa8ab9");
      ("m2 admitted", "41636eb46df01c34");
      ("corrupt slots", "188 120 114 24");
      ("departed at", "40");
      ("per source", "11ad447f086e101d3f10174b2c48e3bb");
    ]
    ([
       ("mean_queue", hex r.Mux.mean_queue);
       ("max_queue", hex r.Mux.max_queue);
       ("loss_fraction", hex r.Mux.loss_fraction);
       ("offered_utilization", hex r.Mux.offered_utilization);
       ("carried_utilization", hex r.Mux.carried_utilization);
       ("queue quantiles", quantiles r.Mux.queue_quantiles);
       ("delay quantiles", quantiles r.Mux.delay_quantiles);
     ]
    @ List.map
        (fun (c, qs) -> (Printf.sprintf "class %d delay quantiles" c, quantiles qs))
        r.Mux.class_delay_quantiles
    @ [
        ("c0 lost", hex (named "c0").Mux.lost);
        ("m2 admitted", hex (named "m2").Mux.admitted);
        ( "corrupt slots",
          String.concat " "
            (List.map
               (fun name -> string_of_int (named name).Mux.corrupt_slots)
               [ "r003"; "r101"; "c0"; "c2" ]) );
        ("departed at", Option.fold ~none:"-" ~some:string_of_int (named "short").Mux.departed_at);
        ("per source", Digest.to_hex (Digest.string (Buffer.contents per_source)));
      ])

let test_mux_classed_matches_oracle () =
  (* The fixture's run is the naive oracle's, bitwise: at 1, 3 and 4
     shards and over a pool, across a checkpoint split and its resume,
     and stopped at its first queue above 0.9 of the buffer. *)
  let oracle ?stop_above () =
    Mux_oracle.run ?stop_above ~buffer:classed_buffer ~service:classed_service
      ~slots:classed_slots (classed_sources ())
  in
  let whole = oracle () in
  let check ?(want = whole) label r =
    if not (Mux.equal_report want r) then Alcotest.failf "%s: differs from the oracle" label
  in
  List.iter
    (fun shards -> check (Printf.sprintf "shards=%d" shards) (classed_run ~shards ()))
    [ 1; 3; 4 ];
  let pool = Pool.create ~domains:2 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      check "pooled" (classed_run ~pool ());
      check "pooled, shards=3" (classed_run ~pool ~shards:3 ()));
  let first = ref None in
  let save ~slot fill =
    if !first = None then begin
      let w = Ss_checkpoint.W.create () in
      fill w;
      first := Some (slot, Ss_checkpoint.W.contents w)
    end
  in
  check "checkpointed" (classed_run ~checkpoint:{ Mux.every = 1100; save } ());
  let slot, bytes = Option.get !first in
  check
    (Printf.sprintf "resumed at slot %d" slot)
    (classed_run ~resume:(Ss_checkpoint.R.of_string bytes) ());
  let stop_above = 0.9 *. classed_buffer in
  let want = oracle ~stop_above () in
  if want.Mux.first_passage = None then Alcotest.fail "the stopped run never stopped: vacuous";
  check ~want "stopped" (classed_run ~stop_above ())

let test_mux_class_range_under_stop () =
  (* Three sources send 1 a slot, and source a sends 100 at slot 10:
     at service 10 the queue first exceeds 50 at slot 10, so a
     stopped run ends at tau = 10, inside the 8-slot staging block
     8..15. [bad] lists the (source, slot) pairs that yield class 64
     (or -1, with [neg]). A class outside [0, 63] is refused at the
     first such slot the run examines, naming the lowest such source
     of that slot; slots after tau are never examined. *)
  let run ?(neg = false) ?stop_above bad =
    let src i name =
      let t = ref 0 in
      Source.make ~name ~mean:1.0 ~sigma2:0.0 ~hurst:0.5 (fun () ->
          let s = !t in
          incr t;
          ( (if i = 0 && s = 10 then 100.0 else 1.0),
            if List.mem (i, s) bad then if neg then -1 else 64 else 0 ))
    in
    Mux.run ?stop_above ~service:10.0 ~slots:64 [| src 0 "a"; src 1 "b"; src 2 "c" |]
  in
  let stop_above = 50.0 in
  let r = run ~stop_above [ (1, 13) ] in
  Alcotest.(check (option int)) "class 64 after tau: stopped at tau" (Some 10) r.Mux.first_passage;
  let refused ?neg ?stop_above label who bad =
    let cls = if neg = Some true then -1 else 64 in
    raises_invalid
      ~prefix:(Printf.sprintf "Mux.run: source %s yielded class %d" who cls)
      label
      (fun () -> run ?neg ?stop_above bad)
  in
  refused ~stop_above "class 64 at tau" "b" [ (1, 10) ];
  refused ~stop_above "class 64 before tau" "b" [ (1, 9) ];
  refused ~stop_above "class -1 before tau" ~neg:true "c" [ (2, 8) ];
  refused ~stop_above "slot-major first of two slots" "c" [ (1, 10); (2, 9) ];
  refused ~stop_above "lowest source of one slot" "b" [ (2, 9); (1, 9) ];
  refused "unstopped: slot-major first" "c" [ (1, 50); (2, 40); (0, 41) ]

let test_mux_no_slot_major_rows () =
  (* An unpoliced run admits from the source-major stage. At 4096
     sources (256-slot blocks) the engine's two stages hold
     2 x 4096 x 264 words, ~2.2e6; a slot-major copy of them would add
     2 x 256 x 4104 more (4.3e6 words in all). *)
  let arr = Array.init 96 (fun i -> float_of_int (1 + (i mod 7))) in
  let srcs =
    Array.init 4096 (fun i -> Source.of_array ~name:(Printf.sprintf "r%04d" i) ~cycle:true arr)
  in
  let before = (Gc.quick_stat ()).Gc.major_words in
  let r = Mux.run ~buffer:10.0 ~service:(4.0 *. 4096.0) ~slots:512 srcs in
  let words = (Gc.quick_stat ()).Gc.major_words -. before in
  Alcotest.(check int) "ran every slot" 512 r.Mux.slots;
  if words >= 3.0e6 then
    Alcotest.failf "an unpoliced 4096-source run allocates %.0f major words" words

let test_mux_statistics_unboxed () =
  (* The queue, delay and class-delay estimators are fed in place, so
     with the default three quantiles (ten estimator updates a slot) a
     one-source run allocates nothing per slot beyond per-block
     bookkeeping: ~20 minor words a slot when each update boxed its
     float. *)
  let arr = Array.init 96 (fun i -> float_of_int (1 + (i mod 7))) in
  List.iter
    (fun buffer ->
      let run slots =
        Mux.run ~buffer ~service:3.0 ~slots [| Source.of_array ~cycle:true arr |]
      in
      let (_ : Mux.report) = run 1024 in
      let slots = 65536 in
      let w0 = Gc.minor_words () in
      let (_ : Mux.report) = run slots in
      let words = (Gc.minor_words () -. w0) /. float_of_int slots in
      if words >= 1.0 then
        Alcotest.failf "buffer %g: %.2f minor words per slot" buffer words)
    [ infinity; 2.0 ]

let test_mux_checkpoint_refuses_hand_rolled () =
  (* A hand-rolled pull without [~ckpt] has no snapshot codec: a
     checkpointed run refuses it by name, before any slot. *)
  let hand = Source.make ~name:"hand" ~mean:1.0 ~sigma2:0.0 ~hurst:0.5 (fun () -> (1.0, 0)) in
  let steady = Source.of_array ~name:"steady" ~cycle:true [| 1.0 |] in
  let save ~slot:_ _ = Alcotest.fail "snapshot taken" in
  match Mux.run ~checkpoint:{ Mux.every = 4; save } ~service:4.0 ~slots:16 [| steady; hand |] with
  | exception Invalid_argument m ->
    let has sub =
      let n = String.length sub in
      let rec go i = i + n <= String.length m && (String.sub m i n = sub || go (i + 1)) in
      go 0
    in
    if not (has "source hand does not support checkpointing" && has "without ~ckpt") then
      Alcotest.failf "refusal %S does not name the source and its missing ~ckpt" m
  | _ -> Alcotest.fail "a hand-rolled pull was checkpointed"

(* ------------------------------------------------------------------ *)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_online_matches_descriptive;
      prop_online_merge;
      prop_p2_within_range;
      prop_mux_matches_oracle;
      prop_mux_single_class_matches_oracle;
      prop_mux_multi_class_matches_oracle;
    ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "ss_mux"
    [
      ( "online-stats",
        [
          tc "empty raises" test_online_empty_raises;
          tc "matches Descriptive" test_online_matches_descriptive;
          tc "P2 invalid" test_p2_invalid;
          tc "P2 small-n exact" test_p2_small_n_exact;
          tc "P2 small-n order statistics" test_p2_small_n_order_statistics;
          tc "P2 small-n infinity regression" test_p2_small_n_infinity_regression;
          tc "P2 uniform quantiles" test_p2_uniform;
          tc "P2 exponential quantiles" test_p2_exponential;
          tc "Vt estimates FGN H" test_vt_estimates_fgn_hurst;
          tc "Vt white noise H=0.5" test_vt_white_noise_is_half;
          tc "Vt warmup/invalid" test_vt_warmup_and_invalid;
        ] );
      ( "source",
        [
          tc "of_array replay/cycle" test_source_of_array;
          tc "invalid" test_source_invalid;
          tc "streaming = truncated Hosking" test_background_stream_matches_truncated_hosking;
          tc "of_model streams" test_source_of_model_streams;
          tc "of_model clamps negatives" test_source_of_model_clamps_negatives;
          tc "moment fixtures" test_source_moment_fixtures;
          tc "table_for error prefix" test_source_table_for_error_prefix;
          tc "twisted zero shift = plain" test_source_twisted_zero_shift_identity;
          tc "twisted fixture" test_source_twisted_fixture;
          tc "of_mpeg priority classes" test_source_of_mpeg_classes;
          tc "block = scalar bit-identical" test_source_block_scalar_bit_identity;
          tc "mpeg block = scalar" test_source_mpeg_block_scalar_bit_identity;
          tc "interleaved block/scalar" test_source_block_scalar_interleave_coherent;
          tc "Davies-Harte contract" test_source_dh_backend_contract;
          tc "Davies-Harte statistics" test_source_dh_backend_statistics;
          tc "Paxson contract" test_source_paxson_backend_contract;
          tc "relaxed precision tier" test_source_relaxed_precision;
          tc "fft kernel tier" test_source_fft_kernel;
          tc "cache stats counters" test_source_cache_stats_counters;
          tc "table cache LRU eviction" test_source_table_cache_lru_eviction;
          tc "table cache concurrent lookups" test_source_table_cache_concurrent_lookups;
        ] );
      ( "mux",
        [
          tc "single source = Trace_sim.queue_path" test_mux_matches_trace_sim;
          tc "work conservation" test_mux_conservation;
          tc "buffer bounds queue" test_mux_buffer_bounds_queue;
          tc "underloaded: lossless" test_mux_no_loss_when_underloaded;
          tc "priority shields high class" test_mux_priority_shields_high_class;
          tc "fifo shares loss" test_mux_fifo_shares_loss;
          tc "zero-buffer semantics" test_mux_zero_buffer_semantics;
          tc "overflow curve monotone" test_mux_overflow_curve_monotone;
          tc "quantiles ordered" test_mux_queue_quantiles_ordered;
          tc "P2 vs exact on LRD stream" test_mux_p2_quantiles_vs_exact_on_lrd_stream;
          tc "invalid" test_mux_invalid;
          tc "clean source departure" test_mux_source_departure;
          tc "corrupt work isolated" test_mux_corrupt_work_is_isolated;
          tc "class delay = delay (1 class)" test_mux_class_delay_single_class_exact;
          tc "class delay priority order" test_mux_class_delay_priority_ordering;
          tc "class delay = brute force (3 classes)" test_mux_class_delay_bruteforce_3class;
          tc "trajectory conservation" test_mux_trajectory_conservation;
          tc "trajectory does not perturb report" test_mux_trajectory_does_not_perturb_report;
          tc "trajectory delay = q/service (1 source)" test_mux_trajectory_single_source_delay_exact;
          tc "trajectory golden rows" test_mux_trajectory_golden;
          tc "hot loop allocation bound" test_mux_hot_loop_allocation;
          tc "grouped = per-source" test_mux_grouped_matches_per_source;
          tc "grouped layouts and resume" test_mux_grouped_layouts;
          tc "fixture: 37 sources, order 512" test_mux_grouped_fixture;
          tc "sharded bit-identity" test_mux_sharded_bit_identity;
          tc "sharded bit-identity over pool" test_mux_sharded_pool_bit_identity;
          tc "sharded + police + faults identical" test_mux_sharded_police_fault_identity;
          tc "sharded trajectory identical" test_mux_sharded_trajectory_identity;
          tc "stop dispatch / refusal" test_mux_sharded_stop_dispatch;
          tc "fixture: finite buffer, single class" test_mux_lane_fixture;
          tc "finite buffer, single class = oracle" test_mux_lane_matches_oracle;
          tc "fixture: finite buffer, multi-class" test_mux_classed_fixture;
          tc "finite buffer, multi-class = oracle" test_mux_classed_matches_oracle;
          tc "class range under stop_above" test_mux_class_range_under_stop;
          tc "no slot-major rows" test_mux_no_slot_major_rows;
          tc "per-slot statistics box nothing" test_mux_statistics_unboxed;
          tc "checkpoint refuses a hand-rolled pull by name" test_mux_checkpoint_refuses_hand_rolled;
        ] );
      ( "mux-is",
        [
          tc "zero twist = plain MC" test_mux_is_zero_twist_is_plain_mc;
          tc "replicate contract" test_mux_is_replicate_contract;
          tc "agrees with plain MC" test_mux_is_agrees_with_plain_mc;
          tc "pool bit-identical" test_mux_is_pool_bit_identical;
          tc "fixture: 16 sources, order 256" test_mux_is_fixture_wide;
          tc "cold moments under a pool" test_mux_is_cold_moments_under_pool;
          tc "twist shortens first passage" test_mux_is_mean_stop_slot;
          tc "workspace reuse is bitwise" test_mux_is_workspace_reuse;
          tc "workspace allocation bound" test_mux_is_workspace_allocation;
          tc "invalid" test_mux_is_invalid;
        ] );
      ( "admission",
        [
          tc "aggregate" test_admission_aggregate;
          tc "effective bandwidth inverts" test_admission_effective_bandwidth_inverts;
          tc "monotone in load" test_admission_overflow_monotone_in_load;
          tc "controller gates" test_admission_controller_gates;
          tc "invalid" test_admission_invalid;
          tc "NaN epsilon refused by name" test_admission_nan_epsilon;
          tc "rejects malformed descriptors" test_admission_rejects_malformed_descriptors;
          tc "renegotiate/evict" test_admission_renegotiate_and_evict;
        ] );
      ( "fault",
        [
          tc "drift/stall semantics" test_fault_drift_and_stall_semantics;
          tc "misdeclare lies to CAC only" test_fault_misdeclare_changes_descriptor_only;
          tc "empty spec = identity" test_fault_empty_spec_is_physical_identity;
          tc "schedule deterministic" test_fault_schedule_deterministic;
          tc "parse" test_fault_parse;
        ] );
      ( "police",
        [
          tc "conforming untouched" test_police_conforming_source_untouched;
          tc "violation escalates to eviction" test_police_detects_violation_and_escalates;
          tc "drift renegotiates" test_police_renegotiates_drift;
          tc "ladder without headroom" test_police_escalation_ladder_without_headroom;
          tc "mux integration" test_police_mux_integration;
          tc "fixture: policed, fault-injected run" test_police_fault_fixture;
          tc "policed, fault-injected allocation bound" test_police_fault_allocation;
          tc "policed, fault-injected run boxes no work" test_police_fault_allocation_unboxed;
        ] );
      ("properties", qcheck_cases);
    ]
