module Dist = Ss_stats.Dist
module Empirical = Ss_stats.Empirical
module Special = Ss_stats.Special
module Quad = Ss_stats.Quadrature
module D = Ss_stats.Descriptive

(* Which CDF [h] evaluates: a variant rather than a closure, so the
   block path can dispatch once per block to an unboxed loop. *)
type cdf = Exact | Relaxed

type t = {
  dist : Dist.t;
  cdf : cdf;
  sample : Empirical.t option;  (* [Some e] when [dist] is [Dist.of_empirical e] *)
  h : float -> float;
  moments : (float * float) option Atomic.t;  (* memo of [moments], filled on first use *)
}

let[@inline] clamp_gauss x = if x > 8.0 then 8.0 else if x < -8.0 then -8.0 else x

let build cdf sample dist =
  let phi = match cdf with Exact -> Special.normal_cdf | Relaxed -> Special.normal_cdf_relaxed in
  let h x =
    let p = phi (clamp_gauss x) in
    (* normal_cdf(+-8) is strictly inside (0,1) in double precision,
       so the quantile domain is respected (the relaxed CDF's tail
       term is likewise strictly positive at |x| = 8). *)
    dist.Dist.quantile p
  in
  { dist; cdf; sample; h; moments = Atomic.make None }

let make dist = build Exact None dist
let of_empirical e = build Exact (Some e) (Dist.of_empirical e)

(* The fft tier rebuilds [h] over the erf-free CDF; same clamp,
   same quantile, so outputs differ by at most ~7.5e-8 in probability
   before inversion. *)
let relax t = build Relaxed t.sample t.dist

let dist t = t.dist
let apply1 t x = t.h x

(* [h] over a block in three in-place passes: clamp, CDF, quantile.
   Each pass is the per-element arithmetic of [h], so the block equals
   [apply1] element by element. The clamp keeps every probability
   strictly inside (0,1), where [Dist.of_empirical]'s quantile is
   [Empirical.quantile]; that case runs unboxed. *)
let apply_into t xs ~off ~len =
  if off < 0 || len < 0 || off > Array.length xs - len then
    invalid_arg "Transform.apply_into: range outside the array";
  for j = off to off + len - 1 do
    Array.unsafe_set xs j (clamp_gauss (Array.unsafe_get xs j))
  done;
  (match t.cdf with
  | Exact -> Special.normal_cdf_into xs ~off ~len
  | Relaxed -> Special.normal_cdf_relaxed_into xs ~off ~len);
  match t.sample with
  | Some e -> Empirical.quantile_into e xs ~off ~len
  | None ->
    let q = t.dist.Dist.quantile in
    for j = off to off + len - 1 do
      Array.unsafe_set xs j (q (Array.unsafe_get xs j))
    done

let apply t xs =
  let ys = Array.copy xs in
  apply_into t ys ~off:0 ~len:(Array.length ys);
  ys

let quad_n = 128

(* Two quadrature passes, E h and E h^2, once per transform value.
   The variance is clamped at 0 (the clamp passes NaN through), so a
   rounding-negative variance reads as degenerate everywhere. A domain
   racing the first request computes the same bits, so whichever
   write lands is the memo. *)
let moments t =
  match Atomic.get t.moments with
  | Some m -> m
  | None ->
    let mu = Quad.gaussian_expectation ~n:quad_n t.h in
    let m2 = Quad.gaussian_expectation ~n:quad_n (fun x -> let y = t.h x in y *. y) in
    let m = (mu, Stdlib.max 0.0 (m2 -. (mu *. mu))) in
    Atomic.set t.moments (Some m);
    m

let attenuation t =
  let _, var = moments t in
  if var <= 0.0 then invalid_arg "Transform.attenuation: degenerate transform";
  let hx = Quad.gaussian_expectation ~n:quad_n (fun x -> t.h x *. x) in
  let a = hx *. hx /. var in
  (* Schwarz guarantees a <= 1; clip quadrature rounding. *)
  Stdlib.min a 1.0

let attenuation_measured ~acf ~n ~lags rng t =
  if lags = [] then invalid_arg "Transform.attenuation_measured: no lags";
  List.iter
    (fun k ->
      if k <= 0 || k >= n then invalid_arg "Transform.attenuation_measured: lag out of range")
    lags;
  let x = Hosking.generate_stream ~acf ~n rng in
  let y = apply t x in
  let max_lag = List.fold_left Stdlib.max 0 lags in
  let rx = D.acf x ~max_lag in
  let ry = D.acf y ~max_lag in
  let ratios =
    List.filter_map
      (fun k -> if abs_float rx.(k) > 1e-6 then Some (ry.(k) /. rx.(k)) else None)
      lags
  in
  if ratios = [] then invalid_arg "Transform.attenuation_measured: background ACF vanishes at all lags";
  List.fold_left ( +. ) 0.0 ratios /. float_of_int (List.length ratios)

(* Normalized probabilists' Hermite polynomial he_k = He_k / sqrt(k!),
   by stable recurrence he_{k+1} = (x he_k - sqrt(k) he_{k-1}) / sqrt(k+1). *)
let hermite_normalized k x =
  if k = 0 then 1.0
  else begin
    let prev = ref 1.0 in
    let cur = ref x in
    for j = 1 to k - 1 do
      let fj = float_of_int j in
      let next = ((x *. !cur) -. (sqrt fj *. !prev)) /. sqrt (fj +. 1.0) in
      prev := !cur;
      cur := next
    done;
    !cur
  end

let hermite_coefficient t ~k =
  if k < 0 || k > 64 then invalid_arg "Transform.hermite_coefficient: k outside [0,64]";
  Quad.gaussian_expectation ~n:quad_n (fun x -> t.h x *. hermite_normalized k x)

(* Squared Hermite coefficients c_1^2 .. c_terms^2 over Var h. *)
let hermite_spectrum t ~terms =
  let _, var = moments t in
  if var <= 0.0 then invalid_arg "Transform: degenerate transform";
  Array.init terms (fun j ->
      let c = hermite_coefficient t ~k:(j + 1) in
      c *. c /. var)

let eval_response spectrum r =
  let acc = ref 0.0 and rp = ref 1.0 in
  Array.iter
    (fun c2 ->
      rp := !rp *. r;
      acc := !acc +. (c2 *. !rp))
    spectrum;
  !acc

let predicted_rh t ~r ~terms =
  if terms < 1 then invalid_arg "Transform.predicted_rh: terms < 1";
  eval_response (hermite_spectrum t ~terms) r

let response ?(terms = 24) t =
  let spectrum = hermite_spectrum t ~terms in
  fun r -> eval_response spectrum r

let invert_response rho ~target =
  let lo0 = -0.999 and hi0 = 0.99999 in
  let flo = rho lo0 and fhi = rho hi0 in
  if target <= flo then lo0
  else if target >= fhi then hi0
  else begin
    let lo = ref lo0 and hi = ref hi0 in
    for _ = 1 to 60 do
      let mid = ( !lo +. !hi ) /. 2.0 in
      if rho mid < target then lo := mid else hi := mid
    done;
    (!lo +. !hi) /. 2.0
  end

let background_acf_for ?terms t ~target =
  let rho = response ?terms t in
  Acf.memoize
    (Acf.of_fun
       ~name:(Printf.sprintf "hermite-inv(%s)" target.Acf.name)
       (fun k -> invert_response rho ~target:(target.Acf.r k)))
