(* Tests for the crash-safe checkpoint/resume subsystem: the
   versioned/checksummed container and its refusal paths, the
   per-layer codecs (Rng, online statistics, streaming Hosking
   generators, every source backend, fault wrappers), and the
   end-to-end contract — a resumed multiplexer or ABR run is bitwise
   identical to the uninterrupted one at any shard/domain count —
   plus the Davies-Harte clipping gate and the fault-spec parser's
   boundary validation. *)

module Ck = Ss_checkpoint
module W = Ss_checkpoint.W
module R = Ss_checkpoint.R
module Rng = Ss_stats.Rng
module Online = Ss_stats.Online_stats
module Acf = Ss_fractal.Acf
module Hosking = Ss_fractal.Hosking
module DH = Ss_fractal.Davies_harte
module Scene = Ss_video.Scene_source
module Gop = Ss_video.Gop
module Trace = Ss_video.Trace
module Pool = Ss_parallel.Pool
module Source = Ss_mux.Source
module Fault = Ss_mux.Fault
module Admission = Ss_mux.Admission
module Police = Ss_mux.Police
module Mux = Ss_mux.Mux
module Trajectory = Ss_abr.Trajectory
module Ladder = Ss_abr.Ladder
module Policy = Ss_abr.Policy
module Client = Ss_abr.Client
module Fleet = Ss_abr.Fleet

let bits = Int64.bits_of_float
let float_eq a b = bits a = bits b

let check_bits msg a b =
  if not (float_eq a b) then Alcotest.failf "%s: %h <> %h" msg a b

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let raises_invalid ?contains msg f =
  match f () with
  | exception Invalid_argument m -> (
    match contains with
    | Some sub when not (contains_sub m sub) ->
      Alcotest.failf "%s: message %S lacks %S" msg m sub
    | _ -> ())
  | _ -> Alcotest.failf "%s: expected Invalid_argument" msg

let raises_corrupt ?contains msg f =
  match f () with
  | exception Ck.Corrupt m -> (
    match contains with
    | Some sub when not (contains_sub m sub) ->
      Alcotest.failf "%s: message %S lacks %S" msg m sub
    | _ -> ())
  | exception e -> Alcotest.failf "%s: expected Corrupt, got %s" msg (Printexc.to_string e)
  | _ -> Alcotest.failf "%s: expected Corrupt" msg

(* Serialize through a fresh writer and return the raw payload. *)
let snap save =
  let w = W.create () in
  save w;
  W.contents w

let reader s = R.of_string s

(* ------------------------------------------------------------------ *)
(* Container: primitive codec round-trip                                *)
(* ------------------------------------------------------------------ *)

let test_codec_roundtrip () =
  let w = W.create () in
  W.u8 w 0;
  W.u8 w 255;
  W.i64 w Int64.min_int;
  W.int w (-42);
  W.int w max_int;
  W.float w 1.5;
  W.float w nan;
  W.float w neg_infinity;
  W.float w (-0.0);
  W.bool w true;
  W.bool w false;
  W.string w "";
  W.string w "hello\x00world";
  W.float_array w [||];
  W.float_array w [| 1.0; nan; -0.0 |];
  W.int_array w [| 3; -9; max_int |];
  W.option w W.float None;
  W.option w W.float (Some 2.5);
  W.tag w "sect";
  let r = reader (W.contents w) in
  Alcotest.(check int) "u8 lo" 0 (R.u8 r);
  Alcotest.(check int) "u8 hi" 255 (R.u8 r);
  Alcotest.(check int64) "i64" Int64.min_int (R.i64 r);
  Alcotest.(check int) "int neg" (-42) (R.int r);
  Alcotest.(check int) "int max" max_int (R.int r);
  check_bits "float" 1.5 (R.float r);
  check_bits "float nan" nan (R.float r);
  check_bits "float -inf" neg_infinity (R.float r);
  check_bits "float -0" (-0.0) (R.float r);
  Alcotest.(check bool) "bool t" true (R.bool r);
  Alcotest.(check bool) "bool f" false (R.bool r);
  Alcotest.(check string) "empty string" "" (R.string r);
  Alcotest.(check string) "string with NUL" "hello\x00world" (R.string r);
  Alcotest.(check int) "empty array" 0 (Array.length (R.float_array r));
  let fa = R.float_array r in
  check_bits "array nan slot" nan fa.(1);
  check_bits "array -0 slot" (-0.0) fa.(2);
  Alcotest.(check (array int)) "int array" [| 3; -9; max_int |] (R.int_array r);
  (match R.option r R.float with
  | None -> ()
  | Some _ -> Alcotest.fail "expected None");
  (match R.option r R.float with
  | Some v -> check_bits "Some" 2.5 v
  | None -> Alcotest.fail "expected Some");
  R.tag r "sect"

let test_reader_refusals () =
  raises_corrupt "int on empty input" (fun () -> R.int (reader ""));
  raises_corrupt "string truncated" (fun () ->
      let w = W.create () in
      W.string w "hello";
      let s = W.contents w in
      R.string (reader (String.sub s 0 (String.length s - 2))));
  raises_corrupt ~contains:"length 3, expected 2" "float_array_into length" (fun () ->
      let s = snap (fun w -> W.float_array w [| 1.0; 2.0; 3.0 |]) in
      R.float_array_into (reader s) (Array.make 2 0.0));
  raises_corrupt "int_array_into length" (fun () ->
      let s = snap (fun w -> W.int_array w [| 1; 2 |]) in
      R.int_array_into (reader s) (Array.make 5 0));
  raises_corrupt ~contains:"\"rng\"" "tag mismatch names both sections" (fun () ->
      let s = snap (fun w -> W.tag w "welford") in
      R.tag (reader s) "rng");
  raises_corrupt ~contains:"missing" "tag over non-tag bytes" (fun () ->
      let s = snap (fun w -> W.float w 1.0) in
      R.tag (reader s) "rng")

(* ------------------------------------------------------------------ *)
(* Container: framing refusals (magic / version / kind / CRC / size)    *)
(* ------------------------------------------------------------------ *)

let test_container_refusals () =
  let payload = snap (fun w -> W.string w "the payload") in
  let record = Ck.encode ~kind:"unit-test" ~meta:"meta-string" payload in
  (* Happy path. *)
  let meta, r = Ck.decode ~kind:"unit-test" record in
  Alcotest.(check string) "meta survives" "meta-string" meta;
  Alcotest.(check string) "payload survives" "the payload" (R.string r);
  (* Kind mismatch — checked before CRC so the message is precise. *)
  raises_corrupt ~contains:"kind mismatch" "wrong kind" (fun () ->
      Ck.decode ~kind:"other" record);
  (* Bad magic. *)
  let patched i c =
    let b = Bytes.of_string record in
    Bytes.set b i c;
    Bytes.to_string b
  in
  raises_corrupt ~contains:"magic" "bad magic" (fun () ->
      Ck.decode ~kind:"unit-test" (patched 0 'X'));
  (* Wrong format version (little-endian int64 at offset 4). *)
  raises_corrupt ~contains:"version" "future version refused" (fun () ->
      Ck.decode ~kind:"unit-test" (patched 4 '\x02'));
  (* CRC: flip one payload byte; the stored checksum must catch it. *)
  raises_corrupt ~contains:"CRC" "bit flip detected" (fun () ->
      Ck.decode ~kind:"unit-test" (patched (String.length record - 9) '\xFF'));
  (* Truncation at several depths: inside magic, header, payload, CRC. *)
  List.iter
    (fun k ->
      raises_corrupt
        (Printf.sprintf "truncated to %d bytes" k)
        (fun () -> Ck.decode ~kind:"unit-test" (String.sub record 0 k)))
    [ 0; 3; 11; String.length record - 4; String.length record - 1 ];
  (* Trailing garbage is corruption, not slack. *)
  raises_corrupt "trailing garbage" (fun () -> Ck.decode ~kind:"unit-test" (record ^ "x"))

(* Bit-at-a-time CRC-32 with no table: the oracle for the sliced one. *)
let crc32_oracle s =
  let crc = ref 0xFFFF_FFFF in
  String.iter
    (fun ch ->
      crc := !crc lxor Char.code ch;
      for _ = 0 to 7 do
        crc := if !crc land 1 <> 0 then 0xEDB88320 lxor (!crc lsr 1) else !crc lsr 1
      done)
    s;
  !crc lxor 0xFFFF_FFFF

let test_crc32 () =
  let check = Alcotest.(check int) in
  check "known answer" 0xCBF43926 (Ck.Crc32.string "123456789");
  check "oracle known answer" 0xCBF43926 (crc32_oracle "123456789");
  let rng = Rng.create ~seed:32 in
  let bytes n = String.init n (fun _ -> Char.chr (Rng.int_range rng 0 255)) in
  (* Every tail length of the 8-byte slicing, at every alignment. *)
  let s = bytes 80 in
  for pos = 0 to 7 do
    for len = 0 to 64 do
      check
        (Printf.sprintf "pos %d len %d" pos len)
        (crc32_oracle (String.sub s pos len))
        (Ck.Crc32.update 0 s pos len)
    done
  done;
  (* High bytes in every position: a word read that dropped or
     sign-extended a bit would show here. *)
  let high = String.make 24 '\xFF' in
  check "all-ones words" (crc32_oracle high) (Ck.Crc32.string high);
  let big = bytes 137_575 in
  check "137 kB" (crc32_oracle big) (Ck.Crc32.string big);
  (* [update] chains across a split at any point. *)
  List.iter
    (fun k ->
      let a = String.sub big 0 k and b = String.sub big k (String.length big - k) in
      check
        (Printf.sprintf "split at %d" k)
        (Ck.Crc32.string big)
        (Ck.Crc32.update (Ck.Crc32.string a) b 0 (String.length b)))
    [ 0; 1; 7; 8; 13; 4096; 137_574; 137_575 ];
  raises_invalid "range outside the string" (fun () -> Ck.Crc32.update 0 "abc" 1 3);
  raises_invalid "negative length" (fun () -> Ck.Crc32.update 0 "abc" 0 (-1));
  List.iter
    (fun c ->
      raises_invalid (Printf.sprintf "crc %d" c) (fun () -> Ck.Crc32.update c "abcdefgh" 0 8))
    [ -1; 1 lsl 32; max_int ];
  (* Digests captured with the byte-at-a-time CRC: the framing is unchanged. *)
  let payload = String.init 137_575 (fun i -> Char.chr (((i * 131) + (i lsr 7)) land 0xff)) in
  let record = Ck.encode ~kind:"crc-test" ~meta:"fixed payload" payload in
  Alcotest.(check int) "record length" 137_640 (String.length record);
  Alcotest.(check string)
    "record digest" "d47c47ca87916b0e9e174521c04be190"
    (Digest.to_hex (Digest.string record));
  Alcotest.(check string)
    "empty record digest" "a2d37aa95985611d9287d99c43f73276"
    (Digest.to_hex (Digest.string (Ck.encode ~kind:"" ~meta:"" "")));
  (* [to_file] writes the same bytes as [encode]. *)
  let path = Filename.temp_file "ss-ckpt-crc" ".ckpt" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) @@ fun () ->
  Ck.to_file ~path ~kind:"crc-test" ~meta:"fixed payload" (fun w ->
      String.iter (fun c -> W.u8 w (Char.code c)) payload);
  Alcotest.(check bool)
    "to_file = encode" true
    (String.equal record (In_channel.with_open_bin path In_channel.input_all))

let test_crc_field_bytes () =
  (* A record ends in its 8-byte CRC field: the CRC in the low four
     bytes, zero in the high four. Flipping any one of the eight must
     be refused, the high four by name before the CRC comparison. *)
  let record = Ck.encode ~kind:"crc-field" ~meta:"m" (String.make 100 'x') in
  let field = String.length record - 8 in
  ignore (Ck.decode ~kind:"crc-field" record : string * R.t);
  for k = 0 to 7 do
    let b = Bytes.of_string record in
    Bytes.set b (field + k) (Char.chr (Char.code (Bytes.get b (field + k)) lxor 0x80));
    raises_corrupt
      ~contains:(if k < 4 then "CRC mismatch" else "CRC field has a nonzero upper half")
      (Printf.sprintf "flipped CRC byte %d" k)
      (fun () -> Ck.decode ~kind:"crc-field" (Bytes.to_string b))
  done

let test_file_roundtrip () =
  let path = Filename.temp_file "ss-ckpt-test" ".ckpt" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  Ck.to_file ~path ~kind:"file-test" ~meta:"run-42" (fun w -> W.int w 7);
  (* Atomic publish: no .tmp sibling left behind. *)
  Alcotest.(check bool) "tmp cleaned up" false (Sys.file_exists (path ^ ".tmp"));
  let meta, r = Ck.of_file ~path ~kind:"file-test" in
  Alcotest.(check string) "meta" "run-42" meta;
  Alcotest.(check int) "payload" 7 (R.int r);
  raises_corrupt ~contains:"cannot open" "missing file" (fun () ->
      Ck.of_file ~path:(path ^ ".does-not-exist") ~kind:"file-test");
  (* Truncate the file on disk: the CRC (or framing) must refuse. *)
  let whole = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.sub whole 0 (String.length whole - 3)));
  raises_corrupt "truncated on disk" (fun () -> Ck.of_file ~path ~kind:"file-test")

(* ------------------------------------------------------------------ *)
(* Rng / online statistics codecs                                       *)
(* ------------------------------------------------------------------ *)

let test_rng_roundtrip () =
  let rng = Rng.create ~seed:7 in
  (* Odd number of gaussians leaves a cached polar deviate pending —
     the snapshot must carry it or the streams desync by one. *)
  for _ = 1 to 3 do
    ignore (Rng.gaussian rng)
  done;
  let s = snap (Rng.save rng) in
  let twin = Rng.create ~seed:999_999 in
  Rng.restore twin (reader s);
  for i = 1 to 64 do
    check_bits (Printf.sprintf "gaussian %d" i) (Rng.gaussian rng) (Rng.gaussian twin);
    Alcotest.(check int64)
      (Printf.sprintf "bits64 %d" i)
      (Rng.bits64 rng) (Rng.bits64 twin)
  done;
  raises_corrupt "rng from garbage" (fun () ->
      Rng.restore twin (reader (snap (fun w -> W.float w 1.0))))

let test_online_roundtrips () =
  let xs = Array.init 150 (fun i -> sin (float_of_int i) *. 3.0) in
  let ys = Array.init 90 (fun i -> cos (float_of_int i) /. 2.0) in
  (* Welford *)
  let a = Online.create () in
  Array.iter (Online.add a) xs;
  let b = Online.create () in
  Online.restore b (reader (snap (Online.save a)));
  Array.iter (Online.add a) ys;
  Array.iter (Online.add b) ys;
  Alcotest.(check int) "welford count" (Online.count a) (Online.count b);
  check_bits "welford mean" (Online.mean a) (Online.mean b);
  check_bits "welford variance" (Online.variance a) (Online.variance b);
  check_bits "welford min" (Online.min a) (Online.min b);
  check_bits "welford max" (Online.max a) (Online.max b);
  (* Variance-time estimator *)
  let va = Online.Vt.create () in
  Array.iter (Online.Vt.add va) xs;
  let vb = Online.Vt.create () in
  Online.Vt.restore vb (reader (snap (Online.Vt.save va)));
  Array.iter (Online.Vt.add va) ys;
  Array.iter (Online.Vt.add vb) ys;
  (match (Online.Vt.estimate va, Online.Vt.estimate vb) with
  | None, None -> ()
  | Some ha, Some hb -> check_bits "vt estimate" ha hb
  | _ -> Alcotest.fail "vt estimates disagree on availability");
  raises_corrupt "vt level mismatch" (fun () ->
      Online.Vt.restore (Online.Vt.create ~levels:5 ()) (reader (snap (Online.Vt.save va))));
  (* Impossible counters are refused by name: a negative count (or one
     the float count cannot hold exactly) would corrupt every later
     mean, and a level's fill must lie in [0, 2^j). *)
  let welford n w =
    W.tag w "welford";
    W.int w n;
    List.iter (W.float w) [ 0.5; 0.25; 0.0; 1.0 ]
  in
  List.iter
    (fun n ->
      raises_corrupt ~contains:"count" (Printf.sprintf "welford count %d" n) (fun () ->
          Online.restore (Online.create ()) (reader (snap (welford n)))))
    [ -1; min_int; 1 lsl 53; max_int ];
  let vt ~level ~filled w =
    W.tag w "vt";
    W.int w 3;
    for j = 0 to 2 do
      W.int w (1 lsl j);
      W.float w 0.0;
      W.int w (if j = level then filled else 0);
      welford 4 w
    done
  in
  Online.Vt.restore (Online.Vt.create ~levels:3 ()) (reader (snap (vt ~level:2 ~filled:3)));
  List.iter
    (fun (level, filled) ->
      raises_corrupt ~contains:"filled"
        (Printf.sprintf "vt level %d filled %d" level filled)
        (fun () ->
          Online.Vt.restore (Online.Vt.create ~levels:3 ()) (reader (snap (vt ~level ~filled)))))
    [ (0, 1); (1, 2); (2, 4); (2, -1); (1, max_int) ];
  (* P² quantile marker state *)
  let pa = Online.P2.create ~p:0.9 in
  Array.iter (Online.P2.add pa) xs;
  let pb = Online.P2.create ~p:0.9 in
  Online.P2.restore pb (reader (snap (Online.P2.save pa)));
  Array.iter (Online.P2.add pa) ys;
  Array.iter (Online.P2.add pb) ys;
  check_bits "p2 quantile" (Online.P2.quantile pa) (Online.P2.quantile pb);
  raises_corrupt "p2 level mismatch" (fun () ->
      Online.P2.restore (Online.P2.create ~p:0.5) (reader (snap (Online.P2.save pa))))

let test_hosking_block_roundtrip () =
  let acf = Acf.fgn ~h:0.8 in
  let order = 32 in
  let table = Source.table_for ~acf ~order in
  let b1 = Hosking.Block.create ~table ~order () in
  let rng1 = Rng.create ~seed:3 in
  let scratch = Array.make 300 0.0 in
  Hosking.Block.fill b1 rng1 scratch ~off:0 ~len:100;
  let sb = snap (Hosking.Block.save b1) and sr = snap (Rng.save rng1) in
  let b2 = Hosking.Block.create ~table ~order () in
  let rng2 = Rng.create ~seed:55 in
  Hosking.Block.restore b2 (reader sb);
  Rng.restore rng2 (reader sr);
  Alcotest.(check int) "generated carried" (Hosking.Block.generated b1)
    (Hosking.Block.generated b2);
  (* Continue both, deliberately splitting the restored side at a
     different block boundary: the stream must not care. *)
  let out1 = Array.make 150 0.0 and out2 = Array.make 150 0.0 in
  Hosking.Block.fill b1 rng1 out1 ~off:0 ~len:150;
  Hosking.Block.fill b2 rng2 out2 ~off:0 ~len:37;
  Hosking.Block.fill b2 rng2 out2 ~off:37 ~len:113;
  Array.iteri (fun i x -> check_bits (Printf.sprintf "slot %d" i) x out2.(i)) out1;
  raises_corrupt "order mismatch" (fun () ->
      let other = Hosking.Block.create ~table:(Source.table_for ~acf ~order:16) ~order:16 () in
      Hosking.Block.restore other (reader sb))

let test_hosking_block_fft_roundtrip () =
  let acf = Acf.fgn ~h:0.82 in
  (* order > partition (128) so the overlap-save path carries a real
     delay line; burn past [order] so the snapshot lands after the
     FFT mode has engaged, at a count that is not a block multiple. *)
  let order = 160 in
  let table = Source.table_for ~acf ~order in
  let mk () = Hosking.Block.create ~fft_plan:(Hosking.Fft_plan.make ~table ~order) ~table ~order () in
  let b1 = mk () in
  let rng1 = Rng.create ~seed:6 in
  let scratch = Array.make 300 0.0 in
  Hosking.Block.fill b1 rng1 scratch ~off:0 ~len:300;
  let sb = snap (Hosking.Block.save b1) and sr = snap (Rng.save rng1) in
  let b2 = mk () in
  let rng2 = Rng.create ~seed:77 in
  Hosking.Block.restore b2 (reader sb);
  Rng.restore rng2 (reader sr);
  Alcotest.(check int) "generated carried" (Hosking.Block.generated b1)
    (Hosking.Block.generated b2);
  (* The restored plan is re-derived, not deserialized: the delay-line
     spectra are rebuilt from the saved window, so the continuation
     must still be bitwise regardless of pull batching. *)
  let out1 = Array.make 300 0.0 and out2 = Array.make 300 0.0 in
  Hosking.Block.fill b1 rng1 out1 ~off:0 ~len:300;
  Hosking.Block.fill b2 rng2 out2 ~off:0 ~len:41;
  Hosking.Block.fill b2 rng2 out2 ~off:41 ~len:259;
  Array.iteri (fun i x -> check_bits (Printf.sprintf "fft slot %d" i) x out2.(i)) out1;
  (* Kernel mismatch both ways: an FFT snapshot must not restore into
     a sequential block, nor a sequential snapshot into an FFT one. *)
  raises_corrupt "fft snapshot into seq block" (fun () ->
      Hosking.Block.restore (Hosking.Block.create ~table ~order ()) (reader sb));
  let seq = Hosking.Block.create ~table ~order () in
  Hosking.Block.fill seq rng2 scratch ~off:0 ~len:50;
  let sseq = snap (Hosking.Block.save seq) in
  raises_corrupt "seq snapshot into fft block" (fun () ->
      Hosking.Block.restore (mk ()) (reader sseq));
  raises_corrupt "fft order mismatch" (fun () ->
      let table' = Source.table_for ~acf ~order:192 in
      let other =
        Hosking.Block.create
          ~fft_plan:(Hosking.Fft_plan.make ~table:table' ~order:192)
          ~table:table' ~order:192 ()
      in
      Hosking.Block.restore other (reader sb))

(* ------------------------------------------------------------------ *)
(* Source codecs: every backend resumes bit-for-bit                     *)
(* ------------------------------------------------------------------ *)

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
    (let trace = Scene.generate { Scene.default with frames = 6144 } (Rng.create ~seed:12) in
     Ss_core.Mpeg.fit ~i_max_lag:20 trace)

(* Build a source, pull [burn] slots, snapshot it, rebuild it from
   scratch, restore, and check the two streams agree bitwise for
   [tail] further slots — drained through a mix of scalar and block
   pulls so both interfaces cross the snapshot point. *)
let source_roundtrip ?(burn = 137) ?(tail = 200) name mk =
  let s1 = mk () in
  Alcotest.(check bool) (name ^ ": supports checkpoint") true (Source.supports_checkpoint s1);
  let wbuf = Array.make 64 0.0 and cbuf = Array.make 64 0 in
  let burned = ref 0 in
  while !burned < burn do
    let l = Stdlib.min 64 (burn - !burned) in
    let got = Source.next_block s1 wbuf cbuf ~off:0 ~len:l in
    if got < l then Alcotest.failf "%s: source departed during burn-in" name;
    burned := !burned + got
  done;
  let state = snap (Source.save s1) in
  let s2 = mk () in
  Source.restore s2 (reader state);
  let w2 = Array.make 64 0.0 and c2 = Array.make 64 0 in
  for i = 1 to tail do
    if i mod 3 = 0 then begin
      (* Scalar pull on both sides. *)
      let a, ca = Source.next s1 and b, cb = Source.next s2 in
      check_bits (Printf.sprintf "%s: slot %d" name i) a b;
      Alcotest.(check int) (Printf.sprintf "%s: class %d" name i) ca cb
    end
    else begin
      let ga = Source.next_block s1 wbuf cbuf ~off:0 ~len:1 in
      let gb = Source.next_block s2 w2 c2 ~off:0 ~len:1 in
      Alcotest.(check int) (Printf.sprintf "%s: block count %d" name i) ga gb;
      if ga > 0 then begin
        check_bits (Printf.sprintf "%s: block slot %d" name i) wbuf.(0) w2.(0);
        Alcotest.(check int) (Printf.sprintf "%s: block class %d" name i) cbuf.(0) c2.(0)
      end
    end
  done

let test_source_roundtrips () =
  let m = Lazy.force small_model in
  source_roundtrip "of_array" (fun () ->
      Source.of_array ~name:"arr" ~cycle:true
        (Array.init 97 (fun t -> abs_float (sin (float_of_int (t + 1))))));
  source_roundtrip "of_model hosking" (fun () ->
      Source.of_model ~name:"hk" ~order:48 m (Rng.create ~seed:21));
  source_roundtrip "of_model davies-harte" (fun () ->
      Source.of_model ~name:"dh" ~order:48 ~backend:`Davies_harte ~horizon:400 m
        (Rng.create ~seed:22));
  source_roundtrip "of_model davies-harte clipping" (fun () ->
      Source.of_model ~name:"px" ~order:48 ~backend:`Davies_harte ~allow_clipping:true
        ~horizon:400 m (Rng.create ~seed:23));
  source_roundtrip "of_mpeg priority" (fun () ->
      Source.of_mpeg ~name:"mp" ~order:48 ~priority:true (Lazy.force small_mpeg)
        (Rng.create ~seed:24));
  (* FFT kernel, snapshotted after the overlap-save path engages
     (burn > order > partition). *)
  source_roundtrip ~burn:400 "of_model fft" (fun () ->
      Source.of_model ~name:"fk" ~order:160 ~kernel:`Fft m (Rng.create ~seed:25));
  source_roundtrip ~burn:400 "of_mpeg fft" (fun () ->
      Source.of_mpeg ~name:"mf" ~order:160 ~kernel:`Fft (Lazy.force small_mpeg)
        (Rng.create ~seed:26))

let test_fault_wrapped_roundtrip () =
  let m = Lazy.force small_model in
  let events =
    [
      Fault.Burst { rate = 0.05; mean_len = 6.0; amplitude = 2.0 };
      Fault.Drift { start = 50; ramp = 100; factor = 1.5 };
      Fault.Corrupt { rate = 0.02 };
    ]
  in
  source_roundtrip "fault-wrapped" (fun () ->
      Fault.wrap ~rng:(Rng.create ~seed:31) events
        (Source.of_model ~name:"f" ~order:48 m (Rng.create ~seed:32)))

let test_source_refusals () =
  let m = Lazy.force small_model in
  (* The IS variant carries likelihood state outside the snapshot. *)
  let tw = Source.of_model_twisted ~order:32 ~shift:(fun _ -> 0.1) m (Rng.create ~seed:5) in
  Alcotest.(check bool) "twisted has no ckpt" false (Source.supports_checkpoint tw);
  raises_invalid "save on twisted" (fun () -> snap (Source.save tw));
  (* Name mismatch: restoring someone else's snapshot must refuse. *)
  let a = Source.of_array ~name:"alpha" ~cycle:true [| 1.0; 2.0 |] in
  let b = Source.of_array ~name:"beta" ~cycle:true [| 1.0; 2.0 |] in
  let s = snap (Source.save a) in
  raises_corrupt ~contains:"alpha" "cross-source restore" (fun () ->
      Source.restore b (reader s))

let prop_source_snapshot_continuation =
  QCheck.Test.make ~name:"source snapshot -> restore -> bitwise continuation" ~count:25
    QCheck.(triple (int_range 1 400) (int_range 1 500) (int_range 8 64))
    (fun (seed, burn, order) ->
      let m = Lazy.force small_model in
      let mk () = Source.of_model ~name:"q" ~order m (Rng.create ~seed) in
      let s1 = mk () in
      for _ = 1 to burn do
        ignore (Source.next s1)
      done;
      let s2 = mk () in
      Source.restore s2 (reader (snap (Source.save s1)));
      let ok = ref true in
      for _ = 1 to 64 do
        let a, _ = Source.next s1 and b, _ = Source.next s2 in
        if not (float_eq a b) then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Davies-Harte clipping gate (the former Paxson backend's gate)        *)
(* ------------------------------------------------------------------ *)

let test_paxson_clipping_gate () =
  (* FGN-family ACFs embed cleanly: a strict request goes through with
     a ratio at (or near) zero. *)
  let r = DH.clipped_ratio (Source.plan_for ~acf:(Acf.fgn ~h:0.8) ~n:2048 ()) in
  if r > 1e-4 then Alcotest.failf "fgn clipped ratio %g above threshold" r;
  (* A rectangular short-range ACF has strongly negative circulant
     eigenvalues: a strict request is refused by name, a permissive
     one clips them and reports the clipped mass. *)
  let rect =
    Acf.of_fun ~name:"rect-acf" (fun k -> if k = 0 then 1.0 else if k <= 8 then 0.95 else 0.0)
  in
  let strict () = ignore (Source.plan_for ~acf:rect ~n:512 () : DH.plan) in
  List.iter
    (fun sub -> raises_invalid ~contains:sub "strict request refused" strict)
    [ "rect-acf"; "--allow-clipping" ];
  let r = DH.clipped_ratio (Source.plan_for ~allow_clipping:true ~acf:rect ~n:512 ()) in
  if r <= 0.01 then Alcotest.failf "override path: expected ratio above 0.01, got %g" r;
  (* The permissive request cached the clipped plan; a strict request
     for the same ACF must still refuse. *)
  raises_invalid ~contains:"--allow-clipping" "strict request after a permissive one" strict

(* ------------------------------------------------------------------ *)
(* Fault-spec parser boundary validation                                *)
(* ------------------------------------------------------------------ *)

let test_fault_parse_boundaries () =
  (* Negative durations / rates / amplitudes and unknown kinds must
     be refused with the offending field named. *)
  raises_invalid ~contains:"drift start" "negative drift start" (fun () ->
      Fault.parse "0:drift@-1+10x2.0");
  raises_invalid ~contains:"drift ramp" "negative drift ramp" (fun () ->
      Fault.validate (Fault.Drift { start = 0; ramp = -5; factor = 2.0 }));
  raises_invalid ~contains:"drift factor" "infinite drift factor" (fun () ->
      Fault.validate (Fault.Drift { start = 0; ramp = 0; factor = infinity }));
  raises_invalid ~contains:"burst rate" "burst rate above 1" (fun () ->
      Fault.parse "*:burst@1.5+4x2.0");
  raises_invalid ~contains:"burst mean length" "negative burst length" (fun () ->
      Fault.parse "*:burst@0.1+-3x2.0");
  raises_invalid ~contains:"burst amplitude" "negative burst amplitude" (fun () ->
      Fault.parse "*:burst@0.1+3x-2.0");
  raises_invalid ~contains:"stall len" "negative stall length" (fun () ->
      Fault.validate (Fault.Stall { start = 3; len = -1 }));
  raises_invalid ~contains:"dropout rate" "negative dropout rate" (fun () ->
      Fault.parse "*:dropout@-0.5+3");
  raises_invalid ~contains:"corrupt rate" "corrupt rate above 1" (fun () ->
      Fault.parse "*:corrupt@2.0");
  raises_invalid ~contains:"misdeclared hurst" "hurst at 1" (fun () ->
      Fault.parse "0:hurst=1.0");
  raises_invalid ~contains:"misdeclared mean" "negative declared mean" (fun () ->
      Fault.parse "0:mean=-4");
  (* Unknown kinds: named, with the catalogue of known ones. *)
  raises_invalid ~contains:"unknown fault kind \"wobble\"" "unknown @-kind" (fun () ->
      Fault.parse "0:wobble@3+4");
  raises_invalid ~contains:"known kinds" "unknown kind lists catalogue" (fun () ->
      Fault.parse "0:wobble@3+4");
  raises_invalid ~contains:"unknown misdeclare field" "unknown =-field" (fun () ->
      Fault.parse "0:variance=2.0");
  raises_invalid ~contains:"expected" "malformed arguments name the shape" (fun () ->
      Fault.parse "0:drift@abc");
  raises_invalid ~contains:"target" "bad target" (fun () -> Fault.parse "x:corrupt@0.1");
  raises_invalid "empty spec" (fun () -> Fault.parse "")

(* ------------------------------------------------------------------ *)
(* Mux: resume == uninterrupted, bitwise                                *)
(* ------------------------------------------------------------------ *)

(* Fixed overloaded scenario with live policing and fault state: 4
   cyclic sources behind fault wrappers (burst/corrupt episodes keep
   the fault RNGs and police windows mid-flight at every snapshot),
   finite buffer, thresholds, slots chosen so checkpoints land
   mid-police-window (window 512, snapshots every 256). *)
let mux_sources () =
  let specs = Fault.parse "*:burst@0.01+8x2.0;1:corrupt@0.01;0:drift@300+200x1.5" in
  let srcs =
    Array.init 4 (fun i ->
        Source.of_array ~name:(Printf.sprintf "s%d" i) ~cycle:true
          (Array.init
             (160 + (7 * i))
             (fun t -> abs_float (sin (float_of_int ((t + 3) * (i + 2)))))))
  in
  Fault.wrap_all ~rng:(Rng.create ~seed:2024) specs srcs

let mux_police srcs =
  Police.create
    ~config:{ Police.default with window = 512 }
    (Array.map Admission.descr_of_source srcs)

let run_mux ?pool ?shards ?stop_above ?checkpoint ?resume ?(service = 2.2) () =
  let srcs = mux_sources () in
  Mux.run ?pool ?shards ?stop_above ?checkpoint ?resume ~police:(mux_police srcs) ~buffer:6.0
    ~thresholds:[ 1.0; 3.0 ] ~service ~slots:2048 srcs

let capture_hook every =
  let first = ref None and last = ref None in
  let ck =
    {
      Mux.every;
      save =
        (fun ~slot:_ fill ->
          let s = snap fill in
          if !first = None then first := Some s;
          last := Some s);
    }
  in
  (ck, first, last)

let test_mux_resume_identity () =
  let base = run_mux () in
  let ck, first, last = capture_hook 256 in
  let armed = run_mux ~checkpoint:ck () in
  if not (Mux.equal_report base armed) then Alcotest.fail "checkpoint hook perturbed the run";
  let first = Option.get !first and last = Option.get !last in
  (* Resume from the first snapshot: slot 256, mid-police-window
     (window 512), fault episodes possibly in flight. *)
  let resumed = run_mux ~resume:(reader first) () in
  if not (Mux.equal_report base resumed) then
    Alcotest.fail "resume from mid-window snapshot differs from uninterrupted run";
  (* Resume from the last snapshot too — deep into the run. *)
  let resumed = run_mux ~resume:(reader last) () in
  if not (Mux.equal_report base resumed) then
    Alcotest.fail "resume from late snapshot differs from uninterrupted run"

let test_mux_resume_shard_and_domain_invariant () =
  let base = run_mux () in
  (* Snapshot bytes are layout-independent: a 4-shard pooled run must
     write byte-identical snapshots to the sequential single-shard
     run. *)
  let ck1, first1, _ = capture_hook 256 in
  ignore (run_mux ~checkpoint:ck1 () : Mux.report);
  let p = Pool.create ~domains:4 in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) @@ fun () ->
  let ck4, first4, _ = capture_hook 256 in
  let armed4 = run_mux ~pool:p ~shards:4 ~checkpoint:ck4 () in
  if not (Mux.equal_report base armed4) then Alcotest.fail "sharded armed run differs";
  Alcotest.(check bool) "snapshot bytes shard-invariant" true
    (String.equal (Option.get !first1) (Option.get !first4));
  (* Cross-layout resume: snapshot written at shards=1, resumed at
     shards=4 on a pool, and vice versa. *)
  let resumed = run_mux ~pool:p ~shards:4 ~resume:(reader (Option.get !first1)) () in
  if not (Mux.equal_report base resumed) then
    Alcotest.fail "resume at shards=4 of a shards=1 snapshot differs";
  let resumed = run_mux ~resume:(reader (Option.get !first4)) () in
  if not (Mux.equal_report base resumed) then
    Alcotest.fail "resume at shards=1 of a shards=4 snapshot differs"

(* Kill-and-resume identity for FFT-kernel model sources: the blocked
   kernel's snapshot (window + cursor, plan re-derived on restore)
   must resume bitwise through the mux at any shard/domain layout. *)
let run_mux_fft ?pool ?shards ?checkpoint ?resume () =
  let m = Lazy.force small_model in
  let srcs =
    Array.init 3 (fun i ->
        Source.of_model ~name:(Printf.sprintf "f%d" i) ~order:160 ~kernel:`Fft m
          (Rng.create ~seed:(400 + i)))
  in
  Mux.run ?pool ?shards ?checkpoint ?resume ~buffer:6.0 ~service:2.5 ~slots:1024 srcs

let test_mux_fft_resume_identity () =
  let base = run_mux_fft () in
  (* every=200: the snapshot lands mid-partition (200 is not a
     multiple of the 128-slot FFT block). *)
  let ck1, first1, last1 = capture_hook 200 in
  let armed = run_mux_fft ~checkpoint:ck1 () in
  if not (Mux.equal_report base armed) then
    Alcotest.fail "checkpoint hook perturbed the fft-kernel run";
  let resumed = run_mux_fft ~resume:(reader (Option.get !first1)) () in
  if not (Mux.equal_report base resumed) then
    Alcotest.fail "fft resume from early snapshot differs from uninterrupted run";
  let resumed = run_mux_fft ~resume:(reader (Option.get !last1)) () in
  if not (Mux.equal_report base resumed) then
    Alcotest.fail "fft resume from late snapshot differs from uninterrupted run";
  let p = Pool.create ~domains:4 in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) @@ fun () ->
  let ck4, first4, _ = capture_hook 200 in
  let armed4 = run_mux_fft ~pool:p ~shards:4 ~checkpoint:ck4 () in
  if not (Mux.equal_report base armed4) then
    Alcotest.fail "sharded fft-kernel armed run differs";
  Alcotest.(check bool) "fft snapshot bytes shard-invariant" true
    (String.equal (Option.get !first1) (Option.get !first4));
  (* Cross-layout: shards=1 snapshot resumed at shards=4 and vice
     versa — the FFT delay line is rebuilt from the saved window, so
     no layout leaks into the stream. *)
  let resumed = run_mux_fft ~pool:p ~shards:4 ~resume:(reader (Option.get !first1)) () in
  if not (Mux.equal_report base resumed) then
    Alcotest.fail "fft resume at shards=4 of a shards=1 snapshot differs";
  let resumed = run_mux_fft ~resume:(reader (Option.get !first4)) () in
  if not (Mux.equal_report base resumed) then
    Alcotest.fail "fft resume at shards=1 of a shards=4 snapshot differs"

let test_mux_stopped_resume_identity () =
  (* A run stopped by [stop_above] snapshots like any other: resuming
     its first snapshot stops at the same slot with the same report,
     bitwise. The level is the highest queue before the first new
     record from slot 600 on (from the oracle's path), so the run
     stops there, after snapshots at [every = 256]. At the default
     service the queue meets the buffer within 10 slots; at 2.6 it
     first does so past slot 1000. *)
  let slots = 2048 and service = 2.6 in
  let path = Array.make slots nan in
  let srcs = mux_sources () in
  ignore
    (Mux_oracle.run ~observe:(fun t q -> path.(t) <- q) ~police:(mux_police srcs) ~buffer:6.0
       ~thresholds:[ 1.0; 3.0 ] ~service ~slots srcs
      : Mux.report);
  let rec record t best =
    if t = slots then Alcotest.fail "no new queue record after slot 600: vacuous"
    else if t >= 600 && path.(t) > best then (best, t)
    else record (t + 1) (Float.max best path.(t))
  in
  let level, tau = record 0 neg_infinity in
  let base = run_mux ~stop_above:level ~service () in
  if base.Mux.first_passage <> Some tau then
    Alcotest.failf "stopped at %s, expected slot %d"
      (Option.fold ~none:"none" ~some:string_of_int base.Mux.first_passage) tau;
  let ck, first, _ = capture_hook 256 in
  let armed = run_mux ~stop_above:level ~service ~checkpoint:ck () in
  if not (Mux.equal_report base armed) then Alcotest.fail "checkpoint hook perturbed the run";
  let resumed = run_mux ~stop_above:level ~service ~resume:(reader (Option.get !first)) () in
  if not (Mux.equal_report base resumed) then
    Alcotest.fail "resumed stopped run differs from the uninterrupted one"

let test_mux_checkpoint_refusals () =
  raises_invalid "interval < 1" (fun () ->
      let ck = { Mux.every = 0; save = (fun ~slot:_ _ -> ()) } in
      run_mux ~checkpoint:ck ());
  (* Importance-sampling sources carry state outside the snapshot. *)
  raises_invalid ~contains:"checkpoint" "twisted source refused" (fun () ->
      let m = Lazy.force small_model in
      let tw =
        Source.of_model_twisted ~order:32 ~shift:(fun _ -> 0.1) m (Rng.create ~seed:5)
      in
      let ck, _, _ = capture_hook 64 in
      Mux.run ~checkpoint:ck ~service:2.2 ~slots:128 [| tw |]);
  (* Construction drift between snapshot and resume must refuse, not
     silently diverge. *)
  let ck, first, _ = capture_hook 256 in
  ignore (run_mux ~checkpoint:ck () : Mux.report);
  raises_corrupt ~contains:"service" "service mismatch on resume" (fun () ->
      run_mux ~service:2.3 ~resume:(reader (Option.get !first)) ())

let prop_mux_snapshot_resume =
  QCheck.Test.make ~name:"mux snapshot -> restore -> bitwise-equal report" ~count:15
    QCheck.(triple (int_range 1 1000) (int_range 220 1200) (int_range 16 500))
    (fun (seed, slots, every) ->
      QCheck.assume (every < slots);
      let mk () =
        Array.init 3 (fun i ->
            Source.of_array ~name:(Printf.sprintf "q%d" i) ~cycle:true
              (Array.init
                 (60 + ((seed + i) mod 41))
                 (fun t -> abs_float (sin (float_of_int ((t + 1) * (i + seed + 2)))))))
      in
      let run ?checkpoint ?resume () =
        Mux.run ?checkpoint ?resume ~buffer:4.0 ~service:1.7 ~slots (mk ())
      in
      let base = run () in
      let captured = ref None in
      let ck =
        {
          Mux.every;
          save = (fun ~slot:_ fill -> if !captured = None then captured := Some (snap fill));
        }
      in
      let armed = run ~checkpoint:ck () in
      match !captured with
      | None -> QCheck.Test.fail_report "no snapshot fired"
      | Some s ->
        Mux.equal_report base armed && Mux.equal_report base (run ~resume:(reader s) ()))

(* ------------------------------------------------------------------ *)
(* ABR: trajectory, client and fleet codecs                             *)
(* ------------------------------------------------------------------ *)

let test_trajectory_roundtrip () =
  let c = Trajectory.create ~slots:5 ~sources:2 ~slot_s:0.25 in
  for t = 0 to 2 do
    Trajectory.sink c ~slot:t
      ~served:[| float_of_int (t + 1); 0.5 *. float_of_int t |]
      ~delays:[| 0.1; float_of_int t |]
  done;
  let s = snap (Trajectory.save c) in
  let d = Trajectory.create ~slots:5 ~sources:2 ~slot_s:0.25 in
  Trajectory.restore d (reader s);
  Alcotest.(check int) "filled" c.Trajectory.filled d.Trajectory.filled;
  for i = 0 to 1 do
    for t = 0 to 2 do
      check_bits
        (Printf.sprintf "served %d/%d" i t)
        c.Trajectory.served.(i).(t)
        d.Trajectory.served.(i).(t);
      check_bits
        (Printf.sprintf "delays %d/%d" i t)
        c.Trajectory.delays.(i).(t)
        d.Trajectory.delays.(i).(t)
    done
  done;
  raises_corrupt "slots mismatch" (fun () ->
      Trajectory.restore (Trajectory.create ~slots:4 ~sources:2 ~slot_s:0.25) (reader s));
  raises_corrupt "slot_s mismatch" (fun () ->
      Trajectory.restore (Trajectory.create ~slots:5 ~sources:2 ~slot_s:0.5) (reader s))

let flat_trace ?(frames = 360) ?(bytes = 1000.0) () =
  Trace.make ~name:"flat" ~fps:30.0 ~gop:(Gop.of_string "I") (Array.make frames bytes)

let abr_fixture () =
  let ladder = Ladder.of_trace ~levels:[ 0.5; 1.0; 2.0 ] ~chunk_frames:30 (flat_trace ()) in
  let bandwidth =
    Array.init 400 (fun t -> 20_000.0 +. (15_000.0 *. sin (float_of_int t /. 7.0)))
  in
  let config = { Client.default with chunks = 40 } in
  (ladder, bandwidth, config)

let check_result_eq msg (a : Client.result) (b : Client.result) =
  Alcotest.(check string) (msg ^ ": policy") a.Client.policy b.Client.policy;
  Alcotest.(check int) (msg ^ ": chunks") a.Client.chunks b.Client.chunks;
  Alcotest.(check int) (msg ^ ": rebuffer events") a.Client.rebuffer_events
    b.Client.rebuffer_events;
  Alcotest.(check int) (msg ^ ": switches") a.Client.switches b.Client.switches;
  List.iter
    (fun (field, x, y) -> check_bits (msg ^ ": " ^ field) x y)
    [
      ("startup_s", a.Client.startup_s, b.Client.startup_s);
      ("rebuffer_s", a.Client.rebuffer_s, b.Client.rebuffer_s);
      ("rebuffer_ratio", a.Client.rebuffer_ratio, b.Client.rebuffer_ratio);
      ("mean_bitrate_mbps", a.Client.mean_bitrate_mbps, b.Client.mean_bitrate_mbps);
      ("mean_level", a.Client.mean_level, b.Client.mean_level);
      ("qoe", a.Client.qoe, b.Client.qoe);
      ("qoe_bitrate", a.Client.qoe_bitrate, b.Client.qoe_bitrate);
      ("qoe_rebuffer", a.Client.qoe_rebuffer, b.Client.qoe_rebuffer);
      ("qoe_switch", a.Client.qoe_switch, b.Client.qoe_switch);
    ]

let test_client_split_resume () =
  let ladder, bandwidth, config = abr_fixture () in
  let policy = Policy.bba () in
  let link = Client.link ~bandwidth ~slot_s:0.5 () in
  let run_full () = Client.run ~config ~policy ~ladder ~link ~start:3 () in
  let full = run_full () in
  (* Stream 17 chunks, snapshot the client state, restore into a
     fresh state and finish: the result must be bitwise the
     uninterrupted one's. *)
  let st = Client.make_state ~config ~start:3 () in
  ignore
    (Client.run ~config ~policy ~ladder ~link ~start:3 ~state:st ~stop_after:17 ()
      : Client.result);
  let s = snap (Client.save_state st) in
  let st2 = Client.make_state ~config ~start:0 () in
  Client.restore_state st2 (reader s);
  let resumed = Client.run ~config ~policy ~ladder ~link ~start:0 ~state:st2 () in
  check_result_eq "client resume" full resumed;
  (* Result codec round-trip. *)
  let back = Client.read_result (reader (snap (Client.save_result full))) in
  check_result_eq "result codec" full back;
  (* stop_after outside [next chunk, chunks] must refuse. *)
  raises_invalid "stop_after out of range" (fun () ->
      Client.run ~config ~policy ~ladder ~link ~start:0
        ~stop_after:(config.Client.chunks + 1) ());
  (* A restored position must be a finite slot offset >= 0: a negative
     one would index the row out of bounds, a NaN one would make every
     result NaN. The fresh state at slot 3 holds the only [3.0] in its
     snapshot, at the position field. *)
  let fresh = snap (Client.save_state (Client.make_state ~config ~start:3 ())) in
  let three = snap (fun w -> W.float w 3.0) in
  let at =
    let rec find i =
      if String.sub fresh i (String.length three) = three then i else find (i + 1)
    in
    find 0
  in
  List.iter
    (fun (name, pos) ->
      let bad =
        String.sub fresh 0 at
        ^ snap (fun w -> W.float w pos)
        ^ String.sub fresh (at + String.length three)
            (String.length fresh - at - String.length three)
      in
      raises_corrupt ~contains:"position" name (fun () ->
          Client.restore_state (Client.make_state ~config ~start:0 ()) (reader bad)))
    [
      ("negative position", -1.0);
      ("nan position", Float.nan);
      ("infinite position", Float.infinity);
    ]

let summary_eq (a : Fleet.summary) (b : Fleet.summary) =
  float_eq a.Fleet.mean b.Fleet.mean
  && float_eq a.Fleet.std b.Fleet.std
  && float_eq a.Fleet.min b.Fleet.min
  && float_eq a.Fleet.max b.Fleet.max
  && float_eq a.Fleet.q10 b.Fleet.q10
  && float_eq a.Fleet.q50 b.Fleet.q50
  && float_eq a.Fleet.q90 b.Fleet.q90

let fleet_report_eq (a : Fleet.report) (b : Fleet.report) =
  a.Fleet.clients = b.Fleet.clients
  && a.Fleet.policy = b.Fleet.policy
  && a.Fleet.chunks = b.Fleet.chunks
  && summary_eq a.Fleet.qoe b.Fleet.qoe
  && summary_eq a.Fleet.rebuffer_ratio b.Fleet.rebuffer_ratio
  && summary_eq a.Fleet.bitrate_mbps b.Fleet.bitrate_mbps
  && summary_eq a.Fleet.startup_s b.Fleet.startup_s
  && float_eq a.Fleet.rebuffer_s_total b.Fleet.rebuffer_s_total
  && float_eq a.Fleet.zero_rebuffer_fraction b.Fleet.zero_rebuffer_fraction
  && float_eq a.Fleet.mean_level b.Fleet.mean_level
  && float_eq a.Fleet.mean_switches b.Fleet.mean_switches

let test_fleet_resume_identity () =
  let ladder, bandwidth, config = abr_fixture () in
  let capture = Trajectory.create ~slots:400 ~sources:2 ~slot_s:0.5 in
  for t = 0 to 399 do
    Trajectory.sink capture ~slot:t
      ~served:[| bandwidth.(t); bandwidth.((t + 137) mod 400) |]
      ~delays:[| 0.0; 1.0 |]
  done;
  let run ?pool ?checkpoint ?resume () =
    Fleet.run ?pool ~rng:(Rng.create ~seed:71) ~clients:10 ~policy:(Policy.rate ())
      ~ladder ~trajectory:capture ~config ?checkpoint ?resume ()
  in
  let base_report, base_results = run () in
  (* The pooled fan-out must agree with the sequential lane. *)
  let p = Pool.create ~domains:4 in
  let pooled_report, _ =
    Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> run ~pool:p ())
  in
  if not (fleet_report_eq base_report pooled_report) then
    Alcotest.fail "pooled fleet differs from sequential";
  (* Checkpoint every 3 clients, keep the last prefix, resume. *)
  let captured = ref None in
  let ck =
    { Fleet.every = 3; save = (fun ~clients_done:_ fill -> captured := Some (snap fill)) }
  in
  let armed_report, armed_results = run ~checkpoint:ck () in
  if not (fleet_report_eq base_report armed_report) then
    Alcotest.fail "checkpoint lane differs from default lane";
  Array.iteri
    (fun j r -> check_result_eq (Printf.sprintf "armed client %d" j) base_results.(j) r)
    armed_results;
  let resumed_report, resumed_results =
    run ~resume:(reader (Option.get !captured)) ()
  in
  if not (fleet_report_eq base_report resumed_report) then
    Alcotest.fail "resumed fleet differs from uninterrupted";
  Array.iteri
    (fun j r -> check_result_eq (Printf.sprintf "resumed client %d" j) base_results.(j) r)
    resumed_results;
  (* Policy drift between snapshot and resume must refuse. *)
  raises_corrupt "policy mismatch" (fun () ->
      Fleet.run ~rng:(Rng.create ~seed:71) ~clients:10 ~policy:(Policy.bba ()) ~ladder
        ~trajectory:capture ~config ~resume:(reader (Option.get !captured)) ())

(* ------------------------------------------------------------------ *)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_source_snapshot_continuation; prop_mux_snapshot_resume ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "ss_checkpoint"
    [
      ( "container",
        [
          tc "primitive codec round-trip" test_codec_roundtrip;
          tc "reader refusals" test_reader_refusals;
          tc "framing refusals" test_container_refusals;
          tc "crc32 = bitwise oracle, framing unchanged" test_crc32;
          tc "crc field: every byte checked" test_crc_field_bytes;
          tc "file round-trip + atomicity" test_file_roundtrip;
        ] );
      ( "codecs",
        [
          tc "rng (mid polar cache)" test_rng_roundtrip;
          tc "welford / vt / p2" test_online_roundtrips;
          tc "hosking block" test_hosking_block_roundtrip;
          tc "hosking block (fft kernel)" test_hosking_block_fft_roundtrip;
        ] );
      ( "sources",
        [
          tc "every backend round-trips" test_source_roundtrips;
          tc "fault-wrapped round-trips" test_fault_wrapped_roundtrip;
          tc "refusals" test_source_refusals;
        ] );
      ( "gates",
        [
          tc "paxson clipping gate" test_paxson_clipping_gate;
          tc "fault-spec parser boundaries" test_fault_parse_boundaries;
        ] );
      ( "mux",
        [
          tc "resume == uninterrupted" test_mux_resume_identity;
          tc "shard/domain invariance" test_mux_resume_shard_and_domain_invariant;
          tc "fft kernel resume == uninterrupted" test_mux_fft_resume_identity;
          tc "stopped run resume == uninterrupted" test_mux_stopped_resume_identity;
          tc "refusals" test_mux_checkpoint_refusals;
        ] );
      ( "abr",
        [
          tc "trajectory round-trip" test_trajectory_roundtrip;
          tc "client split resume" test_client_split_resume;
          tc "fleet resume identity" test_fleet_resume_identity;
        ] );
      ("properties", qcheck_cases);
    ]
