(* Order statistics and span arithmetic for the benchmark. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> invalid_arg "Bstats.median: no samples"
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Python's [statistics.quantiles xs ~n:4] (the default "exclusive"
   method), so spreads read the same here as in any script that
   checks the published numbers. One sample has no spread: all three
   quartiles are that sample. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  match ld with
  | 0 -> invalid_arg "Bstats.quartiles: no samples"
  | 1 -> (a.(0), a.(0), a.(0))
  | _ ->
    let m = ld + 1 in
    let cut i =
      let j = Stdlib.max 1 (Stdlib.min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (cut 1, cut 2, cut 3)

(* Interquartile distance as a share of the median. *)
let spread xs =
  let q1, q2, q3 = quartiles xs in
  (q3 -. q1) /. Float.abs q2

(* Percentile ladder, in permille. *)
let ladder = [ 500; 750; 900; 950; 980; 990; 995; 999 ]

(* The highest percentile of the ladder with at least ten samples
   beyond it; [None] under twenty samples. *)
let tail_permille n =
  List.fold_left
    (fun best p -> if n * (1000 - p) >= 10 * 1000 then Some p else best)
    None ladder

(* Type-7 (linear interpolation) sample percentile. *)
let percentile xs ~permille =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Bstats.percentile: no samples";
  let h = float_of_int permille /. 1000.0 *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor h) in
  let hi = Stdlib.min (n - 1) (lo + 1) in
  a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

(* Total length of the union of [lo, hi) intervals. *)
let union_length intervals =
  let a = Array.of_list (List.filter (fun (lo, hi) -> hi > lo) intervals) in
  Array.sort compare a;
  let total = ref 0 and cur_lo = ref min_int and cur_hi = ref min_int in
  Array.iter
    (fun (lo, hi) ->
      if lo > !cur_hi then begin
        total := !total + (!cur_hi - !cur_lo);
        cur_lo := lo;
        cur_hi := hi
      end
      else if hi > !cur_hi then cur_hi := hi)
    a;
  !total + (!cur_hi - !cur_lo)

type span = { name : string; start_ns : int; end_ns : int; parent : int }
(** [parent] indexes the span array; [-1] for a root. *)

(* A span's duration minus the part of it its direct children cover.
   Children may nest or overlap one another; each is clipped to the
   parent's interval. *)
let self_ns spans i =
  let s = spans.(i) in
  let kids = ref [] in
  Array.iteri
    (fun j c ->
      if c.parent = i && j <> i then
        kids := (Stdlib.max s.start_ns c.start_ns, Stdlib.min s.end_ns c.end_ns) :: !kids)
    spans;
  s.end_ns - s.start_ns - union_length !kids
