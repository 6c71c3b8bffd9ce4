module Rng = Ss_stats.Rng

type t = {
  d : float;
  ar : float array;
  ma : float array;
  psi : float array;  (* MA(inf) weights of the ARMA part *)
  acf_memo : Acf.t Lazy.t;
}

(* psi_0 = 1; psi_j = theta_j + sum_i phi_i psi_{j-i}. *)
let compute_psi ~ar ~ma =
  let p = Array.length ar and q = Array.length ma in
  let cap = 100_000 in
  let buf = Array.make (Stdlib.max 16 (p + q + 1)) 0.0 in
  let buf = ref buf in
  !buf.(0) <- 1.0;
  let n = ref 1 in
  let push v =
    if !n >= Array.length !buf then begin
      let next = Array.make (2 * Array.length !buf) 0.0 in
      Array.blit !buf 0 next 0 !n;
      buf := next
    end;
    !buf.(!n) <- v;
    incr n
  in
  let rec grow j =
    if j > cap then invalid_arg "Farima_pq: AR part not stationary (psi weights do not decay)"
    else begin
      let v = ref (if j <= q then ma.(j - 1) else 0.0) in
      for i = 1 to p do
        if j - i >= 0 then v := !v +. (ar.(i - 1) *. !buf.(j - i))
      done;
      push !v;
      (* Stop when past the direct MA/AR horizon and the recent tail
         is negligible. *)
      if j > p + q && abs_float !v < 1e-14 && (j < 2 || abs_float !buf.(j - 1) < 1e-14) then ()
      else grow (j + 1)
    end
  in
  grow 1;
  Array.sub !buf 0 !n

(* gamma of FARIMA(0,d,0), unnormalized: gamma(0) =
   Gamma(1-2d)/Gamma(1-d)^2, gamma(k) = gamma(0) * r(k). *)
let fractional_gamma ~d =
  let r = (Acf.farima ~d).Acf.r in
  let g0 =
    exp (Ss_stats.Special.log_gamma (1.0 -. (2.0 *. d))
         -. (2.0 *. Ss_stats.Special.log_gamma (1.0 -. d)))
  in
  fun k -> g0 *. r (abs k)

let make_acf ~d ~p ~q ~psi =
  let gamma_y = fractional_gamma ~d in
  let jmax = Array.length psi - 1 in
  (* w(m) = sum_j psi_j psi_{j-m}, m = -jmax..jmax (symmetric). *)
  let w = Array.make (jmax + 1) 0.0 in
  for m = 0 to jmax do
    let s = ref 0.0 in
    for j = m to jmax do
      s := !s +. (psi.(j) *. psi.(j - m))
    done;
    w.(m) <- !s
  done;
  let gamma_x k =
    let s = ref (w.(0) *. gamma_y k) in
    for m = 1 to jmax do
      s := !s +. (w.(m) *. (gamma_y (k + m) +. gamma_y (k - m)))
    done;
    !s
  in
  let g0 = gamma_x 0 in
  Acf.memoize
    (Acf.of_fun
       ~name:(Printf.sprintf "farima(d=%g,p=%d,q=%d)" d p q)
       (fun k -> gamma_x k /. g0))

let create ~d ~ar ~ma =
  if d <= -0.5 || d >= 0.5 then invalid_arg "Farima_pq.create: d outside (-0.5,0.5)";
  let psi = compute_psi ~ar ~ma in
  let acf_memo = lazy (make_acf ~d ~p:(Array.length ar) ~q:(Array.length ma) ~psi) in
  { d; ar = Array.copy ar; ma = Array.copy ma; psi; acf_memo }

let d t = t.d
let hurst t = t.d +. 0.5
let psi_weights t = Array.copy t.psi
let acf t = Lazy.force t.acf_memo

let generate t ~n rng = Hosking.generate_stream ~acf:(acf t) ~n rng

let generate_filtered t ~n rng =
  if n <= 0 then invalid_arg "Farima_pq.generate_filtered: n <= 0";
  let p = Array.length t.ar and q = Array.length t.ma in
  (* Exact fractional noise, then the ARMA recursion
     x_t = sum phi x_{t-i} + y_t + sum theta y_{t-j}, with a warmup
     prefix discarded to wash out the filter transient. *)
  let warmup = Stdlib.max 64 (4 * (p + q + 1)) in
  let total = n + warmup in
  let plan = Davies_harte.plan ~acf:(Acf.farima ~d:t.d) ~n:total () in
  let y = Davies_harte.generate plan rng in
  let x = Array.make total 0.0 in
  for i = 0 to total - 1 do
    let v = ref y.(i) in
    for j = 1 to q do
      if i - j >= 0 then v := !v +. (t.ma.(j - 1) *. y.(i - j))
    done;
    for j = 1 to p do
      if i - j >= 0 then v := !v +. (t.ar.(j - 1) *. x.(i - j))
    done;
    x.(i) <- !v
  done;
  let tail = Array.sub x warmup n in
  (* Standardize: downstream transforms expect zero mean, unit
     variance backgrounds. *)
  let std = Ss_stats.Descriptive.std tail in
  if std = 0.0 then tail else Array.map (fun v -> v /. std) tail
