module Rng = Ss_stats.Rng
module Fft = Ss_fft.Fft

type plan = {
  n : int;  (* requested path length *)
  m : int;  (* half-size of the circulant, a power of two >= n *)
  sqrt_lambda : float array;  (* sqrt of the 2m circulant eigenvalues, clipped at 0 *)
  min_eig : float;
  neg_mass : float;  (* eigenvalue mass clipped to zero *)
  pos_mass : float;
}

(* The standard approximate-circulant criterion: clipping negative
   eigenvalues to zero is harmless while the clipped mass is a
   negligible fraction of the total — the covariance error of the
   generated path is bounded by that ratio. *)
let max_clipped_ratio = 1e-4

let check_clipping ~acf p =
  if p.neg_mass > max_clipped_ratio *. p.pos_mass then
    invalid_arg
      (Printf.sprintf
         "Davies_harte.plan: the circulant embedding of ACF %s at n=%d is not nonnegative \
          definite (min eigenvalue %g, clipped mass ratio %.3g > %g); clip it anyway with \
          ~allow_clipping:true (vbrsim mux and abr: --allow-clipping), or use the hosking \
          backend"
         acf.Acf.name p.n p.min_eig (p.neg_mass /. p.pos_mass) max_clipped_ratio)

let plan ?(allow_clipping = false) ~acf ~n () =
  if n <= 0 then invalid_arg "Davies_harte.plan: n <= 0";
  let m = Fft.next_pow2 n in
  let two_m = 2 * m in
  (* Circulant first row: gamma(0..m), then mirrored gamma(m-1..1). *)
  let re = Array.make two_m 0.0 in
  let im = Array.make two_m 0.0 in
  for j = 0 to m do
    re.(j) <- acf.Acf.r j
  done;
  for j = m + 1 to two_m - 1 do
    re.(j) <- acf.Acf.r (two_m - j)
  done;
  Fft.forward re im;
  (* Eigenvalues are the (real) DFT of the symmetric first row. *)
  let min_eig = Array.fold_left Stdlib.min re.(0) re in
  let neg_mass = Array.fold_left (fun a l -> if l < 0.0 then a -. l else a) 0.0 re in
  let pos_mass = Array.fold_left (fun a l -> if l > 0.0 then a +. l else a) 0.0 re in
  if not (pos_mass > 0.0) then invalid_arg "Davies_harte.plan: degenerate spectrum";
  let sqrt_lambda = Array.map (fun l -> sqrt (Stdlib.max l 0.0)) re in
  let p = { n; m; sqrt_lambda; min_eig; neg_mass; pos_mass } in
  if not allow_clipping then check_clipping ~acf p;
  p

let plan_length p = p.n
let min_eigenvalue p = p.min_eig
let clipped_ratio p = p.neg_mass /. p.pos_mass

let generate_into p rng dst =
  if Array.length dst < p.n then
    invalid_arg "Davies_harte.generate_into: buffer shorter than the plan";
  let two_m = 2 * p.m in
  let scale = 1.0 /. sqrt (float_of_int two_m) in
  let re = Array.make two_m 0.0 in
  let im = Array.make two_m 0.0 in
  (* Hermitian random spectrum: a_0, a_m real; a_k = conj(a_{2m-k}). *)
  re.(0) <- p.sqrt_lambda.(0) *. Rng.gaussian rng *. scale;
  re.(p.m) <- p.sqrt_lambda.(p.m) *. Rng.gaussian rng *. scale;
  let half = scale /. sqrt 2.0 in
  for k = 1 to p.m - 1 do
    let u = Rng.gaussian rng and v = Rng.gaussian rng in
    let s = p.sqrt_lambda.(k) *. half in
    re.(k) <- s *. u;
    im.(k) <- s *. v;
    re.(two_m - k) <- s *. u;
    im.(two_m - k) <- -.s *. v
  done;
  Fft.forward re im;
  Array.blit re 0 dst 0 p.n

let generate p rng =
  let dst = Array.make p.n 0.0 in
  generate_into p rng dst;
  dst
