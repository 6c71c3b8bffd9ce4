type t = { name : string; r : int -> float }

let clamp_corr v = if v > 1.0 then 1.0 else if v < -0.999999 then -0.999999 else v

let at_zero f k =
  if k < 0 then invalid_arg "Acf: negative lag" else if k = 0 then 1.0 else f k

let white_noise = { name = "white_noise"; r = at_zero (fun _ -> 0.0) }

let exponential ~lambda =
  if lambda <= 0.0 then invalid_arg "Acf.exponential: lambda <= 0";
  {
    name = Printf.sprintf "exp(lambda=%g)" lambda;
    r = at_zero (fun k -> exp (-.lambda *. float_of_int k));
  }

let power_law ~l ~beta =
  if l <= 0.0 then invalid_arg "Acf.power_law: l <= 0";
  if beta <= 0.0 || beta >= 1.0 then invalid_arg "Acf.power_law: beta outside (0,1)";
  {
    name = Printf.sprintf "power(l=%g,beta=%g)" l beta;
    r = at_zero (fun k -> clamp_corr (l *. (float_of_int k ** -.beta)));
  }

let fgn ~h =
  if h <= 0.0 || h >= 1.0 then invalid_arg "Acf.fgn: h outside (0,1)";
  let two_h = 2.0 *. h in
  let pow k = float_of_int k ** two_h in
  {
    name = Printf.sprintf "fgn(H=%g)" h;
    r = at_zero (fun k -> 0.5 *. (pow (k + 1) -. (2.0 *. pow k) +. pow (k - 1)));
  }

let farima ~d =
  if d <= -0.5 || d >= 0.5 then invalid_arg "Acf.farima: d outside (-0.5,0.5)";
  (* r(k) = prod_{i=1..k} (d + i - 1)/(i - d); memoized prefix. *)
  let memo = ref [| 1.0 |] in
  let extend_to k =
    let cur = Array.length !memo in
    if k >= cur then begin
      let next = Array.make (k + 1) 0.0 in
      Array.blit !memo 0 next 0 cur;
      for i = cur to k do
        let fi = float_of_int i in
        next.(i) <- next.(i - 1) *. (fi -. 1.0 +. d) /. (fi -. d)
      done;
      memo := next
    end
  in
  {
    name = Printf.sprintf "farima(d=%g)" d;
    r =
      at_zero (fun k ->
          extend_to k;
          !memo.(k));
  }

let composite ~knee ~lambda ~l ~beta =
  if knee < 1 then invalid_arg "Acf.composite: knee < 1";
  if lambda <= 0.0 then invalid_arg "Acf.composite: lambda <= 0";
  if l <= 0.0 then invalid_arg "Acf.composite: l <= 0";
  if beta <= 0.0 || beta >= 1.0 then invalid_arg "Acf.composite: beta outside (0,1)";
  {
    name = Printf.sprintf "composite(knee=%d,lambda=%g,l=%g,beta=%g)" knee lambda l beta;
    r =
      at_zero (fun k ->
          if k < knee then clamp_corr (exp (-.lambda *. float_of_int k))
          else clamp_corr (l *. (float_of_int k ** -.beta)));
  }

let lag_rescale base ~period =
  if period < 1 then invalid_arg "Acf.lag_rescale: period < 1";
  {
    name = Printf.sprintf "%s/period=%d" base.name period;
    r =
      at_zero (fun k ->
          let q = k / period and rem = k mod period in
          if rem = 0 then base.r q
          else begin
            (* Linear interpolation between base lags q and q+1. *)
            let frac = float_of_int rem /. float_of_int period in
            let r0 = base.r q and r1 = base.r (q + 1) in
            r0 +. (frac *. (r1 -. r0))
          end);
  }

let of_fun ~name f = { name; r = at_zero f }

let memoize t =
  let cache = ref [| 1.0 |] in
  let filled = ref 1 in
  let r k =
    if k < 0 then invalid_arg "Acf: negative lag";
    let cur = Array.length !cache in
    if k >= cur then begin
      let next = Array.make (Stdlib.max (k + 1) (2 * cur)) nan in
      Array.blit !cache 0 next 0 cur;
      cache := next
    end;
    if k >= !filled || Float.is_nan !cache.(k) then begin
      !cache.(k) <- t.r k;
      if k >= !filled then filled := k + 1
    end;
    !cache.(k)
  in
  { name = t.name; r }

let hurst t =
  (* Recover a nominal H by parsing the family out of the name would
     be fragile; instead recompute from the model's tail decay using
     two far-apart lags: beta_hat = -d log r / d log k. *)
  let k1 = 1_000 and k2 = 4_000 in
  let r1 = t.r k1 and r2 = t.r k2 in
  if r1 <= 0.0 || r2 <= 0.0 || r2 >= r1 then None
  else begin
    let beta = -.(log (r2 /. r1) /. log (float_of_int k2 /. float_of_int k1)) in
    if beta > 0.0 && beta < 1.0 then Some (1.0 -. (beta /. 2.0)) else None
  end

let to_array t ~n =
  if n <= 0 then invalid_arg "Acf.to_array: n <= 0";
  Array.init n t.r

(* A cache key for tables and plans built from [t]: its values on 64
   lags spread evenly over [0, max_lag], not its display name — two
   distinct models can share a name (a compensated background is
   named after its target, not its marginal). A table or plan is
   fully determined by [r] on lags 0..max_lag, so equal fingerprints
   that still differed between the sampled lags could at worst share
   the coefficients of a different model; 64 lags across the whole
   range make that a measure-zero concern for the smooth ACF families
   used here. *)
let fingerprint t ~max_lag =
  let samples = 64 in
  let buf = Buffer.create (samples * 8) in
  for i = 0 to samples - 1 do
    let k = i * max_lag / (samples - 1) in
    Buffer.add_int64_le buf (Int64.bits_of_float (t.r k))
  done;
  Digest.string (Buffer.contents buf)
