(* An all-float record, so OCaml stores it flat: [add] updates it in
   place without boxing a float or crossing the write barrier. The
   count is held as a float, exact below 2^53 observations; [count],
   the checkpoint codec and the variances convert at the edges. *)
type t = {
  mutable n : float;
  mutable mean : float;
  mutable m2 : float;  (* sum of squared deviations from the mean *)
  mutable min : float;
  mutable max : float;
}

let create () = { n = 0.0; mean = 0.0; m2 = 0.0; min = infinity; max = neg_infinity }

(* [n +. 1.0] is exact below 2^53, so [d /. n] divides by the exact
   count. Inlined into [Vt.add], so its argument is not boxed there. *)
let[@inline] add t x =
  let n = t.n +. 1.0 in
  t.n <- n;
  let d = x -. t.mean in
  let mean = t.mean +. (d /. n) in
  t.mean <- mean;
  t.m2 <- t.m2 +. (d *. (x -. mean));
  if x < t.min then t.min <- x;
  if x > t.max then t.max <- x

let add_at t a j = add t a.(j)
let count t = int_of_float t.n
let check_nonempty t name = if t.n = 0.0 then invalid_arg ("Online_stats." ^ name ^ ": empty")

let mean t =
  check_nonempty t "mean";
  t.mean

let variance t =
  check_nonempty t "variance";
  t.m2 /. t.n

let sample_variance t =
  if t.n < 2.0 then invalid_arg "Online_stats.sample_variance: fewer than two observations";
  t.m2 /. (t.n -. 1.0)

let std t = sqrt (variance t)

let min t =
  check_nonempty t "min";
  t.min

let max t =
  check_nonempty t "max";
  t.max

let merge a b =
  if a.n = 0.0 then { b with n = b.n }
  else if b.n = 0.0 then { a with n = a.n }
  else begin
    let na = a.n and nb = b.n in
    let n = na +. nb in
    let d = b.mean -. a.mean in
    {
      n;
      mean = a.mean +. (d *. nb /. n);
      m2 = a.m2 +. b.m2 +. (d *. d *. na *. nb /. n);
      min = Stdlib.min a.min b.min;
      max = Stdlib.max a.max b.max;
    }
  end

module W = Ss_checkpoint.W
module R = Ss_checkpoint.R

let corrupt fmt = Printf.ksprintf (fun s -> raise (Ss_checkpoint.Corrupt s)) fmt

let save t w =
  W.tag w "welford";
  W.int w (count t);
  W.float w t.mean;
  W.float w t.m2;
  W.float w t.min;
  W.float w t.max

let restore t r =
  R.tag r "welford";
  let n = R.int r in
  if n < 0 || n >= 1 lsl 53 then corrupt "welford: count %d outside [0, 2^53)" n;
  t.n <- float_of_int n;
  t.mean <- R.float r;
  t.m2 <- R.float r;
  t.min <- R.float r;
  t.max <- R.float r

module Vt = struct
  (* Streaming variance-time analysis: level j aggregates the input
     into blocks of m = 2^j samples and feeds each completed block
     mean into a Welford accumulator. The slope of log10 var(level
     mean) on log10 m is 2H - 2 for an FGN-like input, so the H
     estimate is 1 + slope/2 — the online form of
     Hurst.variance_time. Level j's open block is [sums.(j)] over
     [filled.(j)] samples; parallel arrays keep the sums unboxed. *)
  type nonrec t = { sums : float array; filled : int array; stats : t array }

  let create ?(levels = 7) () =
    if levels < 3 then invalid_arg "Online_stats.Vt.create: levels < 3";
    if levels > 30 then invalid_arg "Online_stats.Vt.create: levels > 30";
    {
      sums = Array.make levels 0.0;
      filled = Array.make levels 0;
      stats = Array.init levels (fun _ -> create ());
    }

  let[@inline] add t x =
    for j = 0 to Array.length t.sums - 1 do
      let m = 1 lsl j in
      let sum = t.sums.(j) +. x and filled = t.filled.(j) + 1 in
      if filled = m then begin
        add t.stats.(j) (sum /. float_of_int m);
        t.sums.(j) <- 0.0;
        t.filled.(j) <- 0
      end
      else begin
        t.sums.(j) <- sum;
        t.filled.(j) <- filled
      end
    done

  let add_at t a j = add t a.(j)
  let count t = count t.stats.(0)

  let min_blocks = 4

  let points t =
    List.init (Array.length t.stats) (fun j ->
        let l = t.stats.(j) in
        if l.n < float_of_int min_blocks then None
        else
          let v = variance l in
          if v <= 0.0 then None else Some (log10 (float_of_int (1 lsl j)), log10 v))
    |> List.filter_map Fun.id

  let estimate t =
    match points t with
    | pts when List.length pts >= 3 ->
      let fit = Regression.ols pts in
      Some (1.0 +. (fit.Regression.slope /. 2.0))
    | _ -> None

  (* [save]/[restore] in the bodies below are the outer Welford pair:
     these lets are not recursive, so the module-level bindings are
     still in scope on the right-hand side. *)
  let save t w =
    W.tag w "vt";
    W.int w (Array.length t.sums);
    Array.iteri
      (fun j l ->
        W.int w (1 lsl j);
        W.float w t.sums.(j);
        W.int w t.filled.(j);
        save l w)
      t.stats

  let restore t r =
    R.tag r "vt";
    let n = R.int r in
    if n <> Array.length t.sums then
      corrupt "vt: checkpoint has %d levels, estimator has %d" n (Array.length t.sums);
    Array.iteri
      (fun j l ->
        let m = R.int r in
        if m <> 1 lsl j then
          corrupt "vt: level block size %d in checkpoint, expected %d" m (1 lsl j);
        t.sums.(j) <- R.float r;
        let filled = R.int r in
        if filled < 0 || filled >= m then
          corrupt "vt: level %d filled %d outside [0, %d)" j filled m;
        t.filled.(j) <- filled;
        restore l r)
      t.stats
end

module P2 = struct
  type nonrec t = {
    p : float;
    q : float array;  (* marker heights *)
    pos : float array;  (* marker positions (1-based, as in the paper) *)
    desired : float array;
    incr : float array;  (* per-observation drift of the desired positions *)
    mutable n : int;
  }

  let create ~p =
    if not (p > 0.0 && p < 1.0) then invalid_arg "Online_stats.P2.create: p outside (0,1)";
    {
      p;
      q = Array.make 5 0.0;
      pos = [| 1.0; 2.0; 3.0; 4.0; 5.0 |];
      desired = [| 1.0; 1.0 +. (2.0 *. p); 1.0 +. (4.0 *. p); 3.0 +. (2.0 *. p); 5.0 |];
      incr = [| 0.0; p /. 2.0; p; (1.0 +. p) /. 2.0; 1.0 |];
      n = 0;
    }

  let p t = t.p
  let count t = t.n

  (* Piecewise-parabolic height adjustment of marker [i] in direction
     [d] (+1 or -1); falls back to linear interpolation when the
     parabola would leave the bracketing heights. *)
  let adjust t i d =
    let q = t.q and pos = t.pos in
    let d_f = float_of_int d in
    let np = pos.(i + 1) -. pos.(i) and nm = pos.(i) -. pos.(i - 1) in
    let parabolic =
      q.(i)
      +. (d_f /. (pos.(i + 1) -. pos.(i - 1))
         *. (((nm +. d_f) *. (q.(i + 1) -. q.(i)) /. np)
            +. ((np -. d_f) *. (q.(i) -. q.(i - 1)) /. nm)))
    in
    let h =
      if q.(i - 1) < parabolic && parabolic < q.(i + 1) then parabolic
      else q.(i) +. (d_f *. (q.(i + d) -. q.(i)) /. (pos.(i + d) -. pos.(i)))
    in
    q.(i) <- h;
    pos.(i) <- pos.(i) +. d_f

  let add t x =
    t.n <- t.n + 1;
    if t.n <= 5 then begin
      (* Insertion into the sorted prefix. *)
      let i = ref (t.n - 1) in
      t.q.(!i) <- x;
      while !i > 0 && t.q.(!i - 1) > t.q.(!i) do
        let tmp = t.q.(!i - 1) in
        t.q.(!i - 1) <- t.q.(!i);
        t.q.(!i) <- tmp;
        decr i
      done
    end
    else begin
      let q = t.q and pos = t.pos in
      let k =
        if x < q.(0) then begin
          q.(0) <- x;
          0
        end
        else if x >= q.(4) then begin
          q.(4) <- x;
          3
        end
        else begin
          let k = ref 0 in
          while x >= q.(!k + 1) do
            incr k
          done;
          !k
        end
      in
      for i = k + 1 to 4 do
        pos.(i) <- pos.(i) +. 1.0
      done;
      for i = 0 to 4 do
        t.desired.(i) <- t.desired.(i) +. t.incr.(i)
      done;
      for i = 1 to 3 do
        let d = t.desired.(i) -. pos.(i) in
        if
          (d >= 1.0 && pos.(i + 1) -. pos.(i) > 1.0)
          || (d <= -1.0 && pos.(i - 1) -. pos.(i) < -1.0)
        then adjust t i (if d >= 0.0 then 1 else -1)
      done
    end

  let quantile t =
    if t.n = 0 then invalid_arg "Online_stats.P2.quantile: empty";
    if t.n > 5 then t.q.(2)
    else begin
      (* Exact type-7 quantile on the sorted prefix. When the rank is
         integral the answer is that order statistic itself: the
         interpolation must not touch the neighbouring marker, whose
         weight-zero contribution would still poison the result with
         NaN if it holds an infinity (0 * inf = nan). *)
      let n = t.n in
      let h = t.p *. float_of_int (n - 1) in
      let lo = int_of_float (floor h) in
      let hi = Stdlib.min (lo + 1) (n - 1) in
      let w = h -. float_of_int lo in
      if w <= 0.0 || hi = lo then t.q.(lo)
      else if w >= 1.0 then t.q.(hi)
      else ((1.0 -. w) *. t.q.(lo)) +. (w *. t.q.(hi))
    end

  let save t w =
    W.tag w "p2";
    W.float w t.p;
    W.float_array w t.q;
    W.float_array w t.pos;
    W.float_array w t.desired;
    W.int w t.n

  let restore t r =
    R.tag r "p2";
    let p = R.float r in
    if Int64.bits_of_float p <> Int64.bits_of_float t.p then
      raise
        (Ss_checkpoint.Corrupt
           (Printf.sprintf "p2: checkpoint tracks p=%.17g, estimator tracks p=%.17g" p t.p));
    R.float_array_into r t.q;
    R.float_array_into r t.pos;
    R.float_array_into r t.desired;
    t.n <- R.int r
end
