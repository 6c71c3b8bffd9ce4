(* Special functions, hand-rolled.

   erf/erfc follow the approach of combining a Maclaurin series for
   small |x| with a Lentz continued fraction for the tail, which gives
   near machine precision everywhere. log_gamma is the 15-term Lanczos
   approximation (g = 607/128) good to ~1e-13 relative. The normal
   quantile is Acklam's approximation with one Halley refinement. *)

let sqrt_pi = 1.7724538509055160273
let sqrt_2 = 1.4142135623730950488
let log_sqrt_2pi = 0.91893853320467274178

(* --- log gamma: Lanczos, g = 607/128, 15 coefficients --- *)

let lanczos_g = 607.0 /. 128.0

let lanczos_coef =
  [|
    0.99999999999999709182;
    57.156235665862923517;
    -59.597960355475491248;
    14.136097974741747174;
    -0.49191381609762019978;
    0.33994649984811888699e-4;
    0.46523628927048575665e-4;
    -0.98374475304879564677e-4;
    0.15808870322491248884e-3;
    -0.21026444172410488319e-3;
    0.21743961811521264320e-3;
    -0.16431810653676389022e-3;
    0.84418223983852743293e-4;
    -0.26190838401581408670e-4;
    0.36899182659531622704e-5;
  |]

let log_gamma x =
  if x <= 0.0 then invalid_arg "Special.log_gamma: x <= 0";
  (* Direct Lanczos is valid for x > 0. *)
  let s = ref lanczos_coef.(0) in
  for k = 1 to Array.length lanczos_coef - 1 do
    s := !s +. (lanczos_coef.(k) /. (x +. float_of_int k -. 1.0))
  done;
  let t = x +. lanczos_g -. 0.5 in
  ((x -. 0.5) *. log t) -. t +. log_sqrt_2pi +. log !s

(* --- digamma / trigamma: shift x above 8, then asymptotic series --- *)

let digamma x =
  if x <= 0.0 then invalid_arg "Special.digamma: x <= 0";
  let acc = ref 0.0 in
  let x = ref x in
  while !x < 8.0 do
    acc := !acc -. (1.0 /. !x);
    x := !x +. 1.0
  done;
  let inv = 1.0 /. !x in
  let inv2 = inv *. inv in
  (* psi(x) ~ ln x - 1/2x - 1/12x^2 + 1/120x^4 - 1/252x^6 + 1/240x^8 *)
  !acc +. log !x -. (0.5 *. inv)
  -. (inv2 *. (1.0 /. 12.0 -. (inv2 *. (1.0 /. 120.0 -. (inv2 *. (1.0 /. 252.0 -. (inv2 /. 240.0)))))))

let trigamma x =
  if x <= 0.0 then invalid_arg "Special.trigamma: x <= 0";
  let acc = ref 0.0 in
  let x = ref x in
  while !x < 8.0 do
    acc := !acc +. (1.0 /. (!x *. !x));
    x := !x +. 1.0
  done;
  let inv = 1.0 /. !x in
  let inv2 = inv *. inv in
  (* psi'(x) ~ 1/x + 1/2x^2 + 1/6x^3 - 1/30x^5 + 1/42x^7 - 1/30x^9 *)
  !acc +. (inv *. (1.0 +. (inv *. (0.5 +. (inv *. (1.0 /. 6.0 +. (inv2 *. ((-1.0 /. 30.0) +. (inv2 *. (1.0 /. 42.0 -. (inv2 /. 30.0)))))))))))

(* --- regularized incomplete gamma --- *)

(* Series expansion for P(a,x), efficient when x < a + 1. *)
let gamma_p_series a x =
  let gln = log_gamma a in
  if x = 0.0 then 0.0
  else begin
    let ap = ref a in
    let sum = ref (1.0 /. a) in
    let del = ref !sum in
    let continue = ref true in
    let iter = ref 0 in
    while !continue && !iter < 10_000 do
      incr iter;
      ap := !ap +. 1.0;
      del := !del *. x /. !ap;
      sum := !sum +. !del;
      if abs_float !del < abs_float !sum *. 1e-16 then continue := false
    done;
    !sum *. exp ((-.x) +. (a *. log x) -. gln)
  end

(* Modified Lentz continued fraction for Q(a,x), efficient when
   x >= a + 1. *)
let gamma_q_cf a x =
  let gln = log_gamma a in
  let tiny = 1e-300 in
  let b = ref (x +. 1.0 -. a) in
  let c = ref (1.0 /. tiny) in
  let d = ref (1.0 /. !b) in
  let h = ref !d in
  let continue = ref true in
  let i = ref 1 in
  while !continue && !i < 10_000 do
    let an = -.float_of_int !i *. (float_of_int !i -. a) in
    b := !b +. 2.0;
    d := (an *. !d) +. !b;
    if abs_float !d < tiny then d := tiny;
    c := !b +. (an /. !c);
    if abs_float !c < tiny then c := tiny;
    d := 1.0 /. !d;
    let del = !d *. !c in
    h := !h *. del;
    if abs_float (del -. 1.0) < 1e-16 then continue := false;
    incr i
  done;
  exp ((-.x) +. (a *. log x) -. gln) *. !h

let gamma_p a x =
  if a <= 0.0 then invalid_arg "Special.gamma_p: a <= 0";
  if x < 0.0 then invalid_arg "Special.gamma_p: x < 0";
  if x = 0.0 then 0.0
  else if x < a +. 1.0 then gamma_p_series a x
  else 1.0 -. gamma_q_cf a x

let gamma_q a x =
  if a <= 0.0 then invalid_arg "Special.gamma_q: a <= 0";
  if x < 0.0 then invalid_arg "Special.gamma_q: x < 0";
  if x = 0.0 then 1.0
  else if x < a +. 1.0 then 1.0 -. gamma_p_series a x
  else gamma_q_cf a x

(* --- error functions --- *)

(* Maclaurin series for erf, |x| small. *)
let erf_series x =
  let x2 = x *. x in
  let term = ref x in
  let sum = ref x in
  let n = ref 0 in
  let continue = ref true in
  while !continue && !n < 200 do
    incr n;
    let nf = float_of_int !n in
    term := !term *. (-.x2) /. nf;
    let add = !term /. ((2.0 *. nf) +. 1.0) in
    sum := !sum +. add;
    if abs_float add < 1e-17 *. abs_float !sum then continue := false
  done;
  2.0 /. sqrt_pi *. !sum

(* Continued fraction for erfc at x >= 2, evaluated by backward
   recurrence of the Laplace CF:
   erfc(x) = exp(-x^2)/sqrt(pi) * 1/(x + (1/2)/(x + 1/(x + (3/2)/(x + 2/(x + ...)))))
   Inlined so the block CDF below calls it without boxing. *)
let[@inline] erfc_cf x =
  let f = ref 0.0 in
  let depth = 60 + int_of_float (200.0 /. x) in
  for k = depth downto 1 do
    f := float_of_int k /. 2.0 /. (x +. !f)
  done;
  exp (-.(x *. x)) /. sqrt_pi /. (x +. !f)

let erfc_pos x = if x < 2.0 then 1.0 -. erf_series x else erfc_cf x
let erfc x = if x < 0.0 then 2.0 -. erfc_pos (-.x) else erfc_pos x

let erf x =
  if abs_float x < 2.0 then erf_series x
  else if x > 0.0 then 1.0 -. erfc_pos x
  else erfc_pos (-.x) -. 1.0

(* --- normal distribution helpers --- *)

let[@inline] normal_pdf x = exp ((-0.5 *. x *. x) -. log_sqrt_2pi)
let normal_cdf x = 0.5 *. erfc (-.x /. sqrt_2)

let check_range who xs ~off ~len =
  if off < 0 || len < 0 || off > Array.length xs - len then
    invalid_arg ("Special." ^ who ^ ": range outside the array")

(* [normal_cdf] over a block, in place, four elements at a time. The
   erf series has two dependent divisions per term, so one evaluation
   is a serial chain that leaves the divider mostly idle; four lanes
   run four independent chains through one loop. Each lane performs
   exactly the scalar operation sequence of [erfc]/[erf_series]
   (same terms, same stopping test, same 200-term cap) and retires
   when its own test fires, so every result is bitwise
   [normal_cdf]'s. Arguments with |y| >= 2 take the continued
   fraction and NaN the scalar function, as [erfc_pos] does. Every
   lane variable is a local float, so nothing is allocated. *)
let lanes = 4

(* Finish lane [j]: [y] is the argument of [erfc], [z] that of
   [erfc_pos] and [s] the lane's series sum (unused unless z < 2). *)
let[@inline] cdf_lane xs j y z s =
  let p =
    if z < 2.0 then
      let e = 1.0 -. (2.0 /. sqrt_pi *. s) in
      0.5 *. (if y < 0.0 then 2.0 -. e else e)
    else if Float.is_nan z then normal_cdf (Array.unsafe_get xs j)
    else
      let e = erfc_cf z in
      0.5 *. (if y < 0.0 then 2.0 -. e else e)
  in
  Array.unsafe_set xs j p

let normal_cdf_into xs ~off ~len =
  check_range "normal_cdf_into" xs ~off ~len;
  let stop = off + len in
  let b = ref off in
  while !b < stop do
    let j0 = !b in
    let m = stop - j0 in
    (* Lane l holds element j0 + l when l < m; absent lanes are
       inactive from the start and never written. *)
    let y0 = -.Array.unsafe_get xs j0 /. sqrt_2 in
    let y1 = if m > 1 then -.Array.unsafe_get xs (j0 + 1) /. sqrt_2 else 0.0 in
    let y2 = if m > 2 then -.Array.unsafe_get xs (j0 + 2) /. sqrt_2 else 0.0 in
    let y3 = if m > 3 then -.Array.unsafe_get xs (j0 + 3) /. sqrt_2 else 0.0 in
    let z0 = if y0 < 0.0 then -.y0 else y0 in
    let z1 = if y1 < 0.0 then -.y1 else y1 in
    let z2 = if y2 < 0.0 then -.y2 else y2 in
    let z3 = if y3 < 0.0 then -.y3 else y3 in
    let a0 = ref (z0 < 2.0) in
    let a1 = ref (m > 1 && z1 < 2.0) in
    let a2 = ref (m > 2 && z2 < 2.0) in
    let a3 = ref (m > 3 && z3 < 2.0) in
    let q0 = z0 *. z0 and q1 = z1 *. z1 and q2 = z2 *. z2 and q3 = z3 *. z3 in
    let t0 = ref z0 and t1 = ref z1 and t2 = ref z2 and t3 = ref z3 in
    let s0 = ref z0 and s1 = ref z1 and s2 = ref z2 and s3 = ref z3 in
    let n = ref 0 in
    while (!a0 || !a1 || !a2 || !a3) && !n < 200 do
      incr n;
      let nf = float_of_int !n in
      let d = (2.0 *. nf) +. 1.0 in
      if !a0 then begin
        t0 := !t0 *. (-.q0) /. nf;
        let add = !t0 /. d in
        s0 := !s0 +. add;
        if abs_float add < 1e-17 *. abs_float !s0 then a0 := false
      end;
      if !a1 then begin
        t1 := !t1 *. (-.q1) /. nf;
        let add = !t1 /. d in
        s1 := !s1 +. add;
        if abs_float add < 1e-17 *. abs_float !s1 then a1 := false
      end;
      if !a2 then begin
        t2 := !t2 *. (-.q2) /. nf;
        let add = !t2 /. d in
        s2 := !s2 +. add;
        if abs_float add < 1e-17 *. abs_float !s2 then a2 := false
      end;
      if !a3 then begin
        t3 := !t3 *. (-.q3) /. nf;
        let add = !t3 /. d in
        s3 := !s3 +. add;
        if abs_float add < 1e-17 *. abs_float !s3 then a3 := false
      end
    done;
    cdf_lane xs j0 y0 z0 !s0;
    if m > 1 then cdf_lane xs (j0 + 1) y1 z1 !s1;
    if m > 2 then cdf_lane xs (j0 + 2) y2 z2 !s2;
    if m > 3 then cdf_lane xs (j0 + 3) y3 z3 !s3;
    b := j0 + lanes
  done

(* Erf-free fast normal CDF: Abramowitz & Stegun 26.2.17, a degree-5
   polynomial in t = 1/(1 + 0.2316419 |x|) times the normal density,
   |error| < 7.5e-8 absolute on the whole real line. One exp and five
   multiply-adds, versus the series/continued-fraction loops behind
   [erfc] — this is the fft tier's hot-path CDF for the marginal
   transform, where 1e-7 absolute error in the probability is far
   below the statistical gates' resolution. *)
let[@inline] normal_cdf_relaxed x =
  let ax = abs_float x in
  let t = 1.0 /. (1.0 +. (0.2316419 *. ax)) in
  let poly =
    t
    *. (0.319381530
       +. (t
          *. (-0.356563782
             +. (t *. (1.781477937 +. (t *. (-1.821255978 +. (t *. 1.330274429))))))))
  in
  let tail = normal_pdf ax *. poly in
  if x >= 0.0 then 1.0 -. tail else tail

let normal_cdf_relaxed_into xs ~off ~len =
  check_range "normal_cdf_relaxed_into" xs ~off ~len;
  for j = off to off + len - 1 do
    Array.unsafe_set xs j (normal_cdf_relaxed (Array.unsafe_get xs j))
  done

(* Acklam's inverse normal CDF approximation. *)
let acklam p =
  let a =
    [|
      -3.969683028665376e+01; 2.209460984245205e+02; -2.759285104469687e+02;
      1.383577518672690e+02; -3.066479806614716e+01; 2.506628277459239e+00;
    |]
  in
  let b =
    [|
      -5.447609879822406e+01; 1.615858368580409e+02; -1.556989798598866e+02;
      6.680131188771972e+01; -1.328068155288572e+01;
    |]
  in
  let c =
    [|
      -7.784894002430293e-03; -3.223964580411365e-01; -2.400758277161838e+00;
      -2.549732539343734e+00; 4.374664141464968e+00; 2.938163982698783e+00;
    |]
  in
  let d =
    [|
      7.784695709041462e-03; 3.224671290700398e-01; 2.445134137142996e+00;
      3.754408661907416e+00;
    |]
  in
  let plow = 0.02425 in
  let phigh = 1.0 -. plow in
  if p < plow then begin
    let q = sqrt (-2.0 *. log p) in
    let num =
      ((((c.(0) *. q +. c.(1)) *. q +. c.(2)) *. q +. c.(3)) *. q +. c.(4)) *. q +. c.(5)
    in
    let den = (((d.(0) *. q +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.0 in
    num /. den
  end
  else if p <= phigh then begin
    let q = p -. 0.5 in
    let r = q *. q in
    let num =
      (((((a.(0) *. r +. a.(1)) *. r +. a.(2)) *. r +. a.(3)) *. r +. a.(4)) *. r +. a.(5)) *. q
    in
    let den =
      ((((b.(0) *. r +. b.(1)) *. r +. b.(2)) *. r +. b.(3)) *. r +. b.(4)) *. r +. 1.0
    in
    num /. den
  end
  else begin
    let q = sqrt (-2.0 *. log (1.0 -. p)) in
    let num =
      ((((c.(0) *. q +. c.(1)) *. q +. c.(2)) *. q +. c.(3)) *. q +. c.(4)) *. q +. c.(5)
    in
    let den = (((d.(0) *. q +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.0 in
    -.(num /. den)
  end

let normal_quantile p =
  if p <= 0.0 || p >= 1.0 then invalid_arg "Special.normal_quantile: p outside (0,1)";
  let x = acklam p in
  (* One Halley refinement against the accurate CDF. *)
  let e = normal_cdf x -. p in
  let u = e *. exp ((0.5 *. x *. x) +. log_sqrt_2pi) in
  x -. (u /. (1.0 +. (x *. u /. 2.0)))

let log_normal_pdf ~mean ~var x =
  if var <= 0.0 then invalid_arg "Special.log_normal_pdf: var <= 0";
  let d = x -. mean in
  (-0.5 *. d *. d /. var) -. (0.5 *. log var) -. log_sqrt_2pi
