(* Versioned, checksummed snapshot container for crash-safe
   checkpoint/resume, plus the little-endian codec every stateful
   layer serializes itself through. The container is deliberately
   paranoid: magic, format version, a job kind, a caller meta string
   (parameter fingerprint), an explicit payload length and a CRC32
   over the whole record — a checkpoint that cannot be trusted
   bit-for-bit is worse than no checkpoint, so every mismatch is a
   refusal with a distinct, actionable error, never a best-effort
   partial restore. *)

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

let () =
  Printexc.register_printer (function
    | Corrupt msg -> Some (Printf.sprintf "Ss_checkpoint.Corrupt(%S)" msg)
    | _ -> None)

(* --- CRC32 (IEEE 802.3, reflected) ------------------------------- *)

(* Slicing-by-8 over native ints: [tables] holds eight 256-entry
   tables back to back; table 0 is the bytewise table, and table k
   advances an entry of table k-1 by one more zero byte. Eight bytes
   are folded per step as two 32-bit little-endian halves, each masked
   to 32 bits. *)
module Crc32 = struct
  let tables =
    lazy
      (let t = Array.make (8 * 256) 0 in
       for i = 0 to 255 do
         let c = ref i in
         for _ = 0 to 7 do
           c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         t.(i) <- !c
       done;
       for k = 1 to 7 do
         for i = 0 to 255 do
           let prev = t.(((k - 1) * 256) + i) in
           t.((k * 256) + i) <- (prev lsr 8) lxor t.(prev land 0xFF)
         done
       done;
       t)

  (* The checks keep every table index below 256: a CRC or a word
     wider than 32 bits would index past the tables. *)
  let update crc s pos len =
    if crc < 0 || crc > 0xFFFF_FFFF then
      invalid_arg "Ss_checkpoint.Crc32.update: CRC outside [0, 2^32)";
    if pos < 0 || len < 0 || pos > String.length s - len then
      invalid_arg "Ss_checkpoint.Crc32.update: range outside the string";
    let t = Lazy.force tables in
    let tab k i = Array.unsafe_get t ((k lsl 8) lor i) in
    let word i = Int32.to_int (String.get_int32_le s i) land 0xFFFF_FFFF in
    let crc = ref (crc lxor 0xFFFF_FFFF) in
    let stop = pos + len in
    let i = ref pos in
    while !i + 8 <= stop do
      let lo = !crc lxor word !i and hi = word (!i + 4) in
      crc :=
        tab 7 (lo land 0xFF)
        lxor tab 6 ((lo lsr 8) land 0xFF)
        lxor tab 5 ((lo lsr 16) land 0xFF)
        lxor tab 4 (lo lsr 24)
        lxor tab 3 (hi land 0xFF)
        lxor tab 2 ((hi lsr 8) land 0xFF)
        lxor tab 1 ((hi lsr 16) land 0xFF)
        lxor tab 0 (hi lsr 24);
      i := !i + 8
    done;
    for i = !i to stop - 1 do
      crc := tab 0 ((!crc lxor Char.code (String.unsafe_get s i)) land 0xFF) lxor (!crc lsr 8)
    done;
    !crc lxor 0xFFFF_FFFF

  let string s = update 0 s 0 (String.length s)
end

(* --- writer ------------------------------------------------------- *)

module W = struct
  type t = Buffer.t

  let create () = Buffer.create 4096
  let contents (w : t) = Buffer.contents w
  let u8 w v = Buffer.add_char w (Char.chr (v land 0xff))
  let i64 w v = Buffer.add_int64_le w v
  let int w v = Buffer.add_int64_le w (Int64.of_int v)
  let float w v = Buffer.add_int64_le w (Int64.bits_of_float v)
  let bool w v = u8 w (if v then 1 else 0)

  let string w s =
    int w (String.length s);
    Buffer.add_string w s

  let float_array w a =
    int w (Array.length a);
    Array.iter (fun v -> float w v) a

  let int_array w a =
    int w (Array.length a);
    Array.iter (fun v -> int w v) a

  let option w f = function
    | None -> bool w false
    | Some v ->
      bool w true;
      f w v

  (* Section tags make a layout mismatch (a file written by a run with
     different options) fail with a named section instead of a CRC-valid
     garbage restore. *)
  let tag w name =
    u8 w 0xA5;
    string w name
end

(* --- reader ------------------------------------------------------- *)

module R = struct
  type t = { buf : string; mutable pos : int }

  let of_string buf = { buf; pos = 0 }

  let need r n who =
    if r.pos + n > String.length r.buf then
      corrupt "truncated checkpoint payload (reading %s at offset %d)" who r.pos

  let u8 r =
    need r 1 "byte";
    let v = Char.code r.buf.[r.pos] in
    r.pos <- r.pos + 1;
    v

  let i64 r =
    need r 8 "int64";
    let v = ref 0L in
    for i = 7 downto 0 do
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code r.buf.[r.pos + i]))
    done;
    r.pos <- r.pos + 8;
    !v

  let int r = Int64.to_int (i64 r)
  let float r = Int64.float_of_bits (i64 r)

  let bool r =
    match u8 r with
    | 0 -> false
    | 1 -> true
    | v -> corrupt "malformed checkpoint: bool byte 0x%02x" v

  let string r =
    let n = int r in
    if n < 0 || r.pos + n > String.length r.buf then
      corrupt "truncated checkpoint payload (string of length %d at offset %d)" n r.pos;
    let s = String.sub r.buf r.pos n in
    r.pos <- r.pos + n;
    s

  let len_checked r who =
    let n = int r in
    if n < 0 || r.pos + (8 * n) > String.length r.buf then
      corrupt "truncated checkpoint payload (%s of length %d at offset %d)" who n r.pos;
    n

  let float_array r =
    let n = len_checked r "float array" in
    Array.init n (fun _ -> float r)

  let float_array_into r a =
    let n = len_checked r "float array" in
    if n <> Array.length a then
      corrupt "checkpoint state mismatch: float array of length %d, expected %d" n
        (Array.length a);
    for i = 0 to n - 1 do
      a.(i) <- float r
    done

  let int_array r =
    let n = len_checked r "int array" in
    Array.init n (fun _ -> int r)

  let int_array_into r a =
    let n = len_checked r "int array" in
    if n <> Array.length a then
      corrupt "checkpoint state mismatch: int array of length %d, expected %d" n
        (Array.length a);
    for i = 0 to n - 1 do
      a.(i) <- int r
    done

  let option r f = if bool r then Some (f r) else None

  let tag r name =
    (match u8 r with
    | 0xA5 -> ()
    | v -> corrupt "checkpoint section %S missing (found byte 0x%02x)" name v);
    let found = string r in
    if not (String.equal found name) then
      corrupt
        "checkpoint section mismatch: expected %S, found %S (file written with different \
         options?)"
        name found
end

(* --- file container ----------------------------------------------- *)

let magic = "SSCK"
let format_version = 1

(* Record layout: magic (4) | version (8) | kind | meta | payload
   length (8) | payload | crc32 (8, zero-extended) over everything
   before the crc field. [frame] returns the parts before and after
   the payload, the CRC continued from the header over the payload;
   [encode] and [to_file] both frame with it. *)
let frame ~kind ~meta payload =
  let b = Buffer.create (44 + String.length kind + String.length meta) in
  Buffer.add_string b magic;
  Buffer.add_int64_le b (Int64.of_int format_version);
  Buffer.add_int64_le b (Int64.of_int (String.length kind));
  Buffer.add_string b kind;
  Buffer.add_int64_le b (Int64.of_int (String.length meta));
  Buffer.add_string b meta;
  Buffer.add_int64_le b (Int64.of_int (String.length payload));
  let head = Buffer.contents b in
  let crc = Crc32.update (Crc32.string head) payload 0 (String.length payload) in
  let tail = Bytes.create 8 in
  Bytes.set_int64_le tail 0 (Int64.of_int crc);
  (head, Bytes.unsafe_to_string tail)

let encode ~kind ~meta payload =
  let head, crc = frame ~kind ~meta payload in
  String.concat "" [ head; payload; crc ]

let decode ~kind s =
  let r = R.of_string s in
  let header who f = try f () with Corrupt _ -> corrupt "truncated checkpoint file (%s)" who in
  (let m =
     header "magic" (fun () ->
         R.need r 4 "magic";
         let m = String.sub s 0 4 in
         r.R.pos <- 4;
         m)
   in
   if not (String.equal m magic) then
     corrupt "not a checkpoint file (bad magic %S, expected %S)" m magic);
  (let v = header "format version" (fun () -> R.int r) in
   if v <> format_version then
     corrupt "unsupported checkpoint format version %d (this build reads version %d)" v
       format_version);
  let file_kind = header "kind" (fun () -> R.string r) in
  if not (String.equal file_kind kind) then
    corrupt "checkpoint kind mismatch: file holds a %S snapshot, expected %S" file_kind kind;
  let meta = header "meta" (fun () -> R.string r) in
  let plen = header "payload length" (fun () -> R.int r) in
  if plen < 0 || r.R.pos + plen + 8 > String.length s then
    corrupt "truncated checkpoint file (payload of %d bytes missing)" plen;
  let payload_pos = r.R.pos in
  r.R.pos <- payload_pos + plen;
  (* The CRC field is 8 bytes wide and [frame] writes zero in its
     upper four: anything else there is corruption the CRC itself
     cannot see. *)
  let crc_pos = r.R.pos in
  let stored_crc = R.int r land 0xFFFF_FFFF in
  let upper = String.get_int32_le s (crc_pos + 4) in
  if upper <> 0l then
    corrupt "checkpoint CRC field has a nonzero upper half (0x%08lx): file is corrupted" upper;
  if r.R.pos <> String.length s then
    corrupt "trailing garbage after checkpoint record (%d extra bytes)"
      (String.length s - r.R.pos);
  let computed = Crc32.update 0 s 0 (payload_pos + plen) in
  if stored_crc <> computed then
    corrupt "checkpoint CRC mismatch (stored 0x%08x, computed 0x%08x): file is corrupted"
      stored_crc computed;
  (meta, R.of_string (String.sub s payload_pos plen))

let to_file ~path ~kind ~meta fill =
  let w = W.create () in
  fill w;
  (* The one copy of the payload: the record's parts go straight to
     the channel. *)
  let payload = W.contents w in
  let head, crc = frame ~kind ~meta payload in
  (* Atomic publish: write the whole record to a sibling temp file,
     fsync-free but rename-atomic on POSIX, so a crash mid-write can
     never leave a half-written file under the checkpoint name. *)
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try List.iter (output_string oc) [ head; payload; crc ]
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  close_out oc;
  Sys.rename tmp path

let of_file ~path ~kind =
  let ic =
    try open_in_bin path
    with Sys_error msg -> corrupt "cannot open checkpoint file: %s" msg
  in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  decode ~kind s
