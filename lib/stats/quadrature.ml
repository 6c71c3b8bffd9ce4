(* Gauss–Hermite nodes by Newton iteration on the orthonormal
   physicists' Hermite recurrence (the classical `gauher` scheme),
   then rescaled to probabilists' convention so that weights sum to 1
   and [sum w f(x)] approximates a standard-normal expectation. *)

let pim4 = 0.7511255444649425 (* pi^{-1/4} *)
let sqrt_pi = 1.7724538509055160273

(* Evaluate orthonormal Hermite h~_n(x) and its derivative. *)
let hermite_eval n x =
  let p1 = ref pim4 in
  let p2 = ref 0.0 in
  for j = 1 to n do
    let p3 = !p2 in
    p2 := !p1;
    let fj = float_of_int j in
    p1 := (x *. sqrt (2.0 /. fj) *. !p2) -. (sqrt ((fj -. 1.0) /. fj) *. p3)
  done;
  let deriv = sqrt (2.0 *. float_of_int n) *. !p2 in
  (!p1, deriv)

let physicists_nodes n =
  let m = (n + 1) / 2 in
  let x = Array.make n 0.0 in
  let w = Array.make n 0.0 in
  let z = ref 0.0 in
  for i = 0 to m - 1 do
    (* Initial guesses per Numerical Recipes. *)
    let fn = float_of_int n in
    (z :=
       match i with
       | 0 -> sqrt ((2.0 *. fn) +. 1.0) -. (1.85575 *. (((2.0 *. fn) +. 1.0) ** (-0.16667)))
       | 1 -> !z -. (1.14 *. (fn ** 0.426) /. !z)
       | 2 -> (1.86 *. !z) -. (0.86 *. x.(0))
       | 3 -> (1.91 *. !z) -. (0.91 *. x.(1))
       | _ -> (2.0 *. !z) -. x.(i - 2));
    (* Newton iterations. *)
    let converged = ref false in
    let its = ref 0 in
    let pp = ref 1.0 in
    while (not !converged) && !its < 200 do
      incr its;
      let p, d = hermite_eval n !z in
      pp := d;
      let z1 = !z in
      z := z1 -. (p /. d);
      if abs_float (!z -. z1) <= 1e-15 *. (1.0 +. abs_float !z) then converged := true
    done;
    x.(i) <- !z;
    x.(n - 1 - i) <- -. !z;
    w.(i) <- 2.0 /. (!pp *. !pp);
    w.(n - 1 - i) <- w.(i)
  done;
  (x, w)

(* Shared by every domain: lookups and inserts happen under the
   mutex, the Newton build outside it, inserted if absent. A racing
   build of the same [n] computes the same bits; the first insert
   wins and every caller returns that one array. *)
let cache : (int, (float * float) array) Hashtbl.t = Hashtbl.create 8
let cache_mutex = Mutex.create ()

let hermite_nodes ~n =
  if n <= 0 || n > 256 then invalid_arg "Quadrature.hermite_nodes: n outside [1,256]";
  match Mutex.protect cache_mutex (fun () -> Hashtbl.find_opt cache n) with
  | Some nodes -> nodes
  | None ->
    let x, w = physicists_nodes n in
    let nodes =
      Array.init n (fun i -> (sqrt 2.0 *. x.(i), w.(i) /. sqrt_pi))
    in
    Mutex.protect cache_mutex (fun () ->
        match Hashtbl.find_opt cache n with
        | Some winner -> winner
        | None ->
          Hashtbl.add cache n nodes;
          nodes)

let gaussian_expectation ?(n = 96) f =
  let nodes = hermite_nodes ~n in
  Array.fold_left (fun acc (x, w) -> acc +. (w *. f x)) 0.0 nodes

let simpson ?(eps = 1e-10) ?(max_depth = 40) f ~lo ~hi =
  if hi < lo then invalid_arg "Quadrature.simpson: hi < lo";
  let simpson_rule a b fa fm fb = (b -. a) /. 6.0 *. (fa +. (4.0 *. fm) +. fb) in
  let rec go a b fa fm fb whole eps depth =
    let m = (a +. b) /. 2.0 in
    let lm = (a +. m) /. 2.0 and rm = (m +. b) /. 2.0 in
    let flm = f lm and frm = f rm in
    let left = simpson_rule a m fa flm fm in
    let right = simpson_rule m b fm frm fb in
    let delta = left +. right -. whole in
    if depth <= 0 || abs_float delta <= 15.0 *. eps then
      left +. right +. (delta /. 15.0)
    else
      go a m fa flm fm left (eps /. 2.0) (depth - 1)
      +. go m b fm frm fb right (eps /. 2.0) (depth - 1)
  in
  if hi = lo then 0.0
  else begin
    let m = (lo +. hi) /. 2.0 in
    let fa = f lo and fm = f m and fb = f hi in
    go lo hi fa fm fb (simpson_rule lo hi fa fm fb) eps max_depth
  end
