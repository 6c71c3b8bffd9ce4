(* xoshiro256++ with splitmix64 seeding. The four state words live
   unboxed in a 32-byte buffer, so a draw boxes no Int64 and stores
   no heap pointer. The cached Gaussian deviate from the polar method
   sits in a one-slot float array next to it, so that [copy] and
   [split] preserve reproducibility. *)

type t = {
  s : Bytes.t;  (* s0..s3 at byte offsets 0, 8, 16, 24 *)
  gauss_cache : float array;  (* one slot *)
  mutable gauss_full : bool;
}

(* Native-endian and unchecked: [s] is always 32 bytes, and the words
   are only ever read and written through these two. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* splitmix64 step: returns next output and updated state. *)
let splitmix64 st =
  let st = Int64.add st 0x9E3779B97F4A7C15L in
  let z = st in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  (Int64.logxor z (Int64.shift_right_logical z 31), st)

let all_zero s0 s1 s2 s3 =
  Int64.equal s0 0L && Int64.equal s1 0L && Int64.equal s2 0L && Int64.equal s3 0L

let of_words s0 s1 s2 s3 =
  let s = Bytes.create 32 in
  set64 s 0 s0;
  set64 s 8 s1;
  set64 s 16 s2;
  set64 s 24 s3;
  { s; gauss_cache = [| 0.0 |]; gauss_full = false }

(* Four splitmix64 outputs from [st]. splitmix64 output of a fixed
   walk is never all-zero in practice, but guard anyway: an all-zero
   xoshiro state is absorbing. *)
let of_splitmix st =
  let s0, st = splitmix64 st in
  let s1, st = splitmix64 st in
  let s2, st = splitmix64 st in
  let s3, _ = splitmix64 st in
  let s3 = if all_zero s0 s1 s2 s3 then 1L else s3 in
  of_words s0 s1 s2 s3

let create ~seed = of_splitmix (Int64.of_int seed)

let of_state a =
  if Array.length a <> 4 then invalid_arg "Rng.of_state: need 4 words";
  if all_zero a.(0) a.(1) a.(2) a.(3) then invalid_arg "Rng.of_state: all-zero state";
  of_words a.(0) a.(1) a.(2) a.(3)

let copy_into ~src ~dst =
  Bytes.blit src.s 0 dst.s 0 32;
  dst.gauss_cache.(0) <- src.gauss_cache.(0);
  dst.gauss_full <- src.gauss_full

let copy t =
  { s = Bytes.copy t.s; gauss_cache = [| t.gauss_cache.(0) |]; gauss_full = t.gauss_full }

(* One xoshiro256++ step. Inlined into every draw loop, so the words
   stay in registers between the load and the store. *)
let[@inline] next s =
  let s0 = get64 s 0 and s1 = get64 s 8 and s2 = get64 s 16 and s3 = get64 s 24 in
  let result = Int64.add (rotl (Int64.add s0 s3) 23) s0 in
  let tmp = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  let s1 = Int64.logxor s1 s2 in
  let s0 = Int64.logxor s0 s3 in
  let s2 = Int64.logxor s2 tmp in
  let s3 = rotl s3 45 in
  set64 s 0 s0;
  set64 s 8 s1;
  set64 s 16 s2;
  set64 s 24 s3;
  result

(* 53 high bits -> uniform in [0,1). *)
let[@inline] next_float s = Int64.to_float (Int64.shift_right_logical (next s) 11) *. 0x1.0p-53

let bits64 t = next t.s

let split t =
  (* Derive a child state by running splitmix64 from a word drawn
     from the parent; recommended practice for xoshiro seeding. *)
  of_splitmix (next t.s)

let split_n t n =
  if n < 0 then invalid_arg "Rng.split_n: n < 0";
  (* Explicit loop: callers rely on substream i being the i-th split
     of the parent stream, so the order must not depend on array
     initialization internals. *)
  let out = Array.make n t in
  for i = 0 to n - 1 do
    out.(i) <- split t
  done;
  out

let float t = next_float t.s
let bernoulli t p = next_float t.s < p

let float_range t a b =
  if b <= a then invalid_arg "Rng.float_range: empty range";
  a +. ((b -. a) *. float t)

let int_range t lo hi =
  if hi < lo then invalid_arg "Rng.int_range: empty range";
  let span = hi - lo + 1 in
  (* Rejection sampling on the low bits to avoid modulo bias. *)
  let mask =
    let rec grow m = if m >= span - 1 then m else grow ((m lsl 1) lor 1) in
    grow 1
  in
  let rec draw () =
    let v = Int64.to_int (Int64.logand (next t.s) (Int64.of_int mask)) in
    if v < span then lo + v else draw ()
  in
  if span = 1 then lo else draw ()

let bool t = Int64.compare (Int64.logand (next t.s) 1L) 0L <> 0

let gaussian t =
  if t.gauss_full then begin
    t.gauss_full <- false;
    t.gauss_cache.(0)
  end
  else begin
    (* Marsaglia polar method. *)
    let st = t.s in
    let rec draw () =
      let u = (2.0 *. next_float st) -. 1.0 in
      let v = (2.0 *. next_float st) -. 1.0 in
      let s = (u *. u) +. (v *. v) in
      if s >= 1.0 || s = 0.0 then draw ()
      else begin
        let f = sqrt (-2.0 *. log s /. s) in
        t.gauss_cache.(0) <- v *. f;
        t.gauss_full <- true;
        u *. f
      end
    in
    draw ()
  end

let fill_gaussian t buf ~off ~len =
  if len < 0 || off < 0 || off + len > Array.length buf then
    invalid_arg "Rng.fill_gaussian: range outside the buffer";
  let i = ref off in
  let stop = off + len in
  if !i < stop && t.gauss_full then begin
    t.gauss_full <- false;
    Array.unsafe_set buf !i t.gauss_cache.(0);
    incr i
  end;
  let st = t.s in
  (* Same polar-pair state machine as [gaussian], batched: emit [u*f]
     then [v*f]; when the trailing [v*f] does not fit it lands in the
     cache, so the emitted sequence and final state are exactly those
     of [len] successive [gaussian] calls. *)
  while !i < stop do
    let u = (2.0 *. next_float st) -. 1.0 in
    let v = (2.0 *. next_float st) -. 1.0 in
    let s = (u *. u) +. (v *. v) in
    if not (s >= 1.0 || s = 0.0) then begin
      let f = sqrt (-2.0 *. log s /. s) in
      Array.unsafe_set buf !i (u *. f);
      incr i;
      if !i < stop then begin
        Array.unsafe_set buf !i (v *. f);
        incr i
      end
      else begin
        t.gauss_cache.(0) <- v *. f;
        t.gauss_full <- true
      end
    end
  done

module W = Ss_checkpoint.W
module R = Ss_checkpoint.R

let save t w =
  W.tag w "rng";
  W.i64 w (get64 t.s 0);
  W.i64 w (get64 t.s 8);
  W.i64 w (get64 t.s 16);
  W.i64 w (get64 t.s 24);
  W.float w t.gauss_cache.(0);
  W.bool w t.gauss_full

let restore t r =
  R.tag r "rng";
  let s0 = R.i64 r in
  let s1 = R.i64 r in
  let s2 = R.i64 r in
  let s3 = R.i64 r in
  let gauss_cache = R.float r in
  let gauss_full = R.bool r in
  if all_zero s0 s1 s2 s3 then
    raise (Ss_checkpoint.Corrupt "rng: all-zero xoshiro state in checkpoint");
  (* In place: sources and kernels capture the generator by closure,
     so restore must mutate the live object, not return a fresh one. *)
  set64 t.s 0 s0;
  set64 t.s 8 s1;
  set64 t.s 16 s2;
  set64 t.s 24 s3;
  t.gauss_cache.(0) <- gauss_cache;
  t.gauss_full <- gauss_full

let gaussian_mv t ~mean ~std =
  if std < 0.0 then invalid_arg "Rng.gaussian_mv: negative std";
  mean +. (std *. gaussian t)

let exponential t ~rate =
  if rate <= 0.0 then invalid_arg "Rng.exponential: rate <= 0";
  -.log1p (-.float t) /. rate

let pareto t ~shape ~scale =
  if shape <= 0.0 || scale <= 0.0 then invalid_arg "Rng.pareto: bad parameters";
  scale /. ((1.0 -. float t) ** (1.0 /. shape))
