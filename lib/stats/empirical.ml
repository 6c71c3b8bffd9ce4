type t = { sorted : float array; mean : float; variance : float }

let of_data data =
  if Array.length data = 0 then invalid_arg "Empirical.of_data: empty data";
  let sorted = Array.copy data in
  Array.sort compare sorted;
  { sorted; mean = Descriptive.mean data; variance = Descriptive.variance data }

let size t = Array.length t.sorted
let mean t = t.mean
let variance t = t.variance
let support t = (t.sorted.(0), t.sorted.(size t - 1))

(* Number of elements <= x, by binary search for the rightmost index
   with sorted.(i) <= x. *)
let count_le t x =
  let a = t.sorted in
  let n = Array.length a in
  if n = 0 || a.(0) > x then 0
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    (* invariant: a.(!lo) <= x; a.(!hi+1) > x or !hi = n-1 *)
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if a.(mid) <= x then lo := mid else hi := mid - 1
    done;
    !lo + 1
  end

let cdf t x = float_of_int (count_le t x) /. float_of_int (size t)

(* Type-7 interpolation between order statistics; inlined so the
   block form below passes no boxed float. *)
let[@inline] interpolate a p =
  if p < 0.0 || p > 1.0 then invalid_arg "Empirical.quantile: p outside [0,1]";
  let n = Array.length a in
  if n = 1 then a.(0)
  else begin
    let h = p *. float_of_int (n - 1) in
    let i = int_of_float (floor h) in
    let i = if i >= n - 1 then n - 2 else i in
    let frac = h -. float_of_int i in
    a.(i) +. (frac *. (a.(i + 1) -. a.(i)))
  end

let quantile t p = interpolate t.sorted p

let quantile_into t xs ~off ~len =
  if off < 0 || len < 0 || off > Array.length xs - len then
    invalid_arg "Empirical.quantile_into: range outside the array";
  for j = off to off + len - 1 do
    Array.unsafe_set xs j (interpolate t.sorted (Array.unsafe_get xs j))
  done

let qq a b ~n =
  if n <= 0 then invalid_arg "Empirical.qq: n <= 0";
  List.init n (fun i ->
      let p = (float_of_int i +. 0.5) /. float_of_int n in
      (quantile a p, quantile b p))

let ks_distance a b =
  (* Evaluate |F_a - F_b| at every sample point of both samples; the
     supremum of the difference of two step functions is attained
     there. *)
  let best = ref 0.0 in
  let eval x =
    let d = abs_float (cdf a x -. cdf b x) in
    if d > !best then best := d
  in
  Array.iter eval a.sorted;
  Array.iter eval b.sorted;
  !best
