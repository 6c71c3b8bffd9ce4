module Rng = Ss_stats.Rng
module Pool = Ss_parallel.Pool
module Fft = Ss_fft.Fft

(* Durbin–Levinson step: given phi_{k-1,.} (in [prev], length k-1),
   v_{k-1} and r(0..k) tabulated in [r], produce phi_{k,.} into
   [next] (length k) and return v_k. Shared by the table builder and
   the streaming generator, which tabulate the ACF once per run: an
   ACF closure can cost a [**] per call, and a step reads O(k)
   lags. *)
let check_phi ~k phi_kk =
  if Float.is_nan phi_kk || abs_float phi_kk >= 1.0 then
    invalid_arg
      (Printf.sprintf
         "Hosking: autocorrelation not positive definite at lag %d (phi=%g)" k phi_kk)

let dl_step ~r ~k ~prev ~next ~v_prev =
  let acc = ref r.(k) in
  for j = 1 to k - 1 do
    acc := !acc -. (prev.(j - 1) *. r.(k - j))
  done;
  let phi_kk = !acc /. v_prev in
  check_phi ~k phi_kk;
  next.(k - 1) <- phi_kk;
  for j = 1 to k - 1 do
    next.(j - 1) <- prev.(j - 1) -. (phi_kk *. prev.(k - j - 1))
  done;
  v_prev *. (1.0 -. (phi_kk *. phi_kk))

(* Pool-parallel variant of the step above. The chunk width is a
   fixed constant, never derived from the pool size: partial sums are
   per-chunk and combined in chunk order on the calling domain, so
   the floating-point result is identical for every domain count. *)
let dot_chunk = 2048

let dl_step_pool pool ~r ~k ~prev ~next ~v_prev =
  let terms = k - 1 in
  let chunks = (terms + dot_chunk - 1) / dot_chunk in
  let partials =
    Pool.run pool
      (Array.init chunks (fun c ->
           fun () ->
             let jlo = 1 + (c * dot_chunk) in
             let jhi = Stdlib.min terms (jlo + dot_chunk - 1) in
             let s = ref 0.0 in
             for j = jlo to jhi do
               s := !s +. (Array.unsafe_get prev (j - 1) *. r.(k - j))
             done;
             !s))
  in
  let acc = ref r.(k) in
  Array.iter (fun p -> acc := !acc -. p) partials;
  let phi_kk = !acc /. v_prev in
  check_phi ~k phi_kk;
  next.(k - 1) <- phi_kk;
  (* Elementwise update: chunking cannot change any value. *)
  Pool.parallel_for pool ~chunk:dot_chunk ~lo:1 ~hi:terms (fun j ->
      Array.unsafe_set next (j - 1)
        (Array.unsafe_get prev (j - 1) -. (phi_kk *. Array.unsafe_get prev (k - j - 1))));
  v_prev *. (1.0 -. (phi_kk *. phi_kk))

(* AR dot product sum_{j=1..k} row.(j-1) * win.(top - j), 4-way
   unrolled. A single accumulator carries the chain through the
   unrolled adds, so the floating-point summation order is exactly
   that of the naive left-to-right loop — the unrolling only removes
   loop overhead and exposes independent loads, it never reassociates
   the sum. This is what lets the block kernel stay bit-identical to
   the historical per-slot path. [win.(top - 1)] must be the most
   recent value and the window must be contiguous going back [k]
   entries; no bounds checks are performed. Inlined, because a float
   returned from a call is boxed: the per-source block kernel would
   allocate two minor words per slot. *)
let[@inline] ar_dot row win ~top ~k =
  let s = ref 0.0 in
  let j = ref 1 in
  let limit = k - 3 in
  while !j <= limit do
    let j0 = !j in
    let s0 = !s +. (Array.unsafe_get row (j0 - 1) *. Array.unsafe_get win (top - j0)) in
    let s1 = s0 +. (Array.unsafe_get row j0 *. Array.unsafe_get win (top - j0 - 1)) in
    let s2 = s1 +. (Array.unsafe_get row (j0 + 1) *. Array.unsafe_get win (top - j0 - 2)) in
    s := s2 +. (Array.unsafe_get row (j0 + 2) *. Array.unsafe_get win (top - j0 - 3));
    j := j0 + 4
  done;
  while !j <= k do
    s := !s +. (Array.unsafe_get row (!j - 1) *. Array.unsafe_get win (top - !j));
    incr j
  done;
  !s

(* Fast-math variant of [ar_dot]: four independent accumulators give
   the compiler/CPU four parallel dependency chains, roughly doubling
   throughput on long rows — at the price of REASSOCIATING the sum,
   so the result differs from [ar_dot] in the last ulps and is only
   eligible for the FFT kernel's sequential lags (never the exact
   paths, whose fixtures are bitwise). Same access pattern and
   contract as [ar_dot] otherwise. *)
let ar_dot_relaxed row win ~top ~k =
  let s0 = ref 0.0 and s1 = ref 0.0 and s2 = ref 0.0 and s3 = ref 0.0 in
  let j = ref 1 in
  let limit = k - 3 in
  while !j <= limit do
    let j0 = !j in
    s0 := !s0 +. (Array.unsafe_get row (j0 - 1) *. Array.unsafe_get win (top - j0));
    s1 := !s1 +. (Array.unsafe_get row j0 *. Array.unsafe_get win (top - j0 - 1));
    s2 := !s2 +. (Array.unsafe_get row (j0 + 1) *. Array.unsafe_get win (top - j0 - 2));
    s3 := !s3 +. (Array.unsafe_get row (j0 + 2) *. Array.unsafe_get win (top - j0 - 3));
    j := j0 + 4
  done;
  let s = ref ((!s0 +. !s2) +. (!s1 +. !s3)) in
  while !j <= k do
    s := !s +. (Array.unsafe_get row (!j - 1) *. Array.unsafe_get win (top - !j));
    incr j
  done;
  !s

module Table = struct
  type t = {
    rows : float array array;  (* rows.(k-1) = [| phi_{k,1}; ...; phi_{k,k} |] *)
    vars : float array;  (* vars.(k) = v_k, v_0 = 1 *)
    stds : float array;  (* sqrt of vars *)
    sums : float array;  (* sums.(k) = sum_j phi_{k,j}, sums.(0) = 0 *)
  }

  let length t = Array.length t.vars

  let build ~pool ~par_cutoff ~acf ~n =
    if n <= 0 || n > 20_000 then invalid_arg "Hosking.Table.make: n outside [1, 20000]";
    if par_cutoff < 2 then invalid_arg "Hosking.Table.make: par_cutoff < 2";
    let r = Acf.to_array acf ~n in
    let rows = Array.make (Stdlib.max 0 (n - 1)) [||] in
    let vars = Array.make n 1.0 in
    let sums = Array.make n 0.0 in
    let v = ref 1.0 in
    for k = 1 to n - 1 do
      let prev = if k = 1 then [||] else rows.(k - 2) in
      let next = Array.make k 0.0 in
      (* The k-recursion is inherently sequential; only the O(k)
         inner products of each step fan out, and only once they are
         long enough to amortize the dispatch. *)
      (v :=
         match pool with
         | Some p when k >= par_cutoff -> dl_step_pool p ~r ~k ~prev ~next ~v_prev:!v
         | _ -> dl_step ~r ~k ~prev ~next ~v_prev:!v);
      rows.(k - 1) <- next;
      vars.(k) <- !v;
      sums.(k) <- Array.fold_left ( +. ) 0.0 next
    done;
    { rows; vars; stds = Array.map sqrt vars; sums }

  let make ~acf ~n = build ~pool:None ~par_cutoff:4096 ~acf ~n

  let make_pooled ?pool ?(par_cutoff = 4096) ~acf ~n () = build ~pool ~par_cutoff ~acf ~n

  let check_k t k name =
    if k < 0 || k >= length t then invalid_arg ("Hosking.Table." ^ name ^ ": bad index")

  let cond_var t k =
    check_k t k "cond_var";
    t.vars.(k)

  let innovation_std t k =
    check_k t k "innovation_std";
    t.stds.(k)

  let row_sum t k =
    check_k t k "row_sum";
    t.sums.(k)

  let cond_mean t xs k =
    check_k t k "cond_mean";
    if k = 0 then 0.0 else ar_dot t.rows.(k - 1) xs ~top:k ~k
end

(* Uniformly-partitioned overlap-save plan for the frozen AR(order)
   filter: the coefficient vector h.(t) = phi_(t+1) is cut into
   [ktot = ceil(order/s)] partitions of [s] lags. Partition 0
   (lags 1..min(s,order)) reaches into the block being generated, so
   it stays sequential; partitions q >= 1 only read pre-block history
   and are applied in the frequency domain — their spectra H_q
   (real FFT of the zero-padded partition, length 2s) are precomputed
   here, once per (table, order), and shared by every generator and
   domain. The partition size is a fixed constant so the stream for a
   given seed never depends on tuning. *)
module Fft_plan = struct
  let partition = 128

  type t = {
    order : int;
    s : int;  (* partition size (lags per partition) *)
    ktot : int;  (* ceil (order / s) *)
    seq_k : int;  (* sequential lags per slot, min (s, order) *)
    rplan : Fft.Real.plan;  (* real transforms of length 2s *)
    hre : float array;  (* Re H_q at (q-1)*(s+1) + bin, q = 1..ktot-1 *)
    him : float array;
  }

  let order t = t.order
  let partition_size t = t.s

  let make ~table ~order =
    if order < 1 || order >= Table.length table then
      invalid_arg "Hosking.Fft_plan.make: order outside [1, table length)";
    let s = partition in
    let ktot = (order + s - 1) / s in
    let rplan = Fft.Real.plan ~n:(2 * s) in
    let row = table.Table.rows.(order - 1) in
    let pad = Array.make (2 * s) 0.0 in
    let np = Stdlib.max 0 (ktot - 1) in
    let stride = s + 1 in
    let hre = Array.make (Stdlib.max 1 (np * stride)) 0.0 in
    let him = Array.make (Stdlib.max 1 (np * stride)) 0.0 in
    let re = Array.make stride 0.0 and im = Array.make stride 0.0 in
    for qi = 0 to np - 1 do
      let q = qi + 1 in
      Array.fill pad 0 (2 * s) 0.0;
      for tt = 0 to s - 1 do
        let lag = (q * s) + tt in
        (* h_q.(tt) = phi_(q*s + tt + 1) = row.(q*s + tt) *)
        if lag < order then pad.(tt) <- row.(lag)
      done;
      Fft.Real.forward rplan pad ~off:0 ~re ~im;
      Array.blit re 0 hre (qi * stride) stride;
      Array.blit im 0 him (qi * stride) stride
    done;
    { order; s; ktot; seq_k = Stdlib.min s order; rplan; hre; him }
end

(* Streaming generator state. Two kernels share the module:

   - [Seq]: double-buffered ring — value k is written at both
     [k mod order] and [k mod order + order], so the last [order]
     values are always contiguous, ending at
     [((k-1) mod order) + order], and the window feeds [ar_dot]
     directly. Bit-identical to the historical per-slot path.

   - [Fft]: overlap-save over an {!Fft_plan} — the stream advances in
     blocks of [s] slots; the contribution of all lags > s to every
     in-block position comes from one inverse real FFT over the
     accumulated partition spectra, and only lags <= s stay
     sequential, cutting the per-slot cost from O(order) to
     O(order/s + log s) + s amortized. Seed-incompatible with the
     exact kernel by design (the FFT and [ar_dot_relaxed] reassociate
     the sums); statistically gated. *)
module Block = struct
  type fft_state = {
    plan : Fft_plan.t;
    hl : int;  (* history samples kept in [win]: ktot * s *)
    win : float array;  (* length hl + s: history ++ block in progress *)
    dlre : float array;  (* pair-block spectrum delay line, flat: *)
    dlim : float array;  (* slot * (s+1) + bin, ktot-1 slots *)
    mutable kp : int;  (* samples produced (always a multiple of s) *)
  }

  (* Per-domain scratch shared by every FFT-kernel generator: each of
     these arrays is fully rewritten on every use and nothing read
     from them survives one [produce]/[rebuild_delay] call, so no
     stream state lives here. Sharing them across the generators one
     domain services keeps ~7 kB of otherwise-cold arrays out of each
     source's per-visit working set — at fleet sizes where N per-source
     states outgrow the cache, reloading that scratch was pure memory
     traffic. Keyed by partition size; [qbase] is regrown if a larger
     partition count appears. *)
  type fft_scratch = {
    gbuf : float array;  (* s innovations per block *)
    accre : float array;  (* accumulated partition spectra, s+1 bins *)
    accim : float array;
    sre : float array;  (* pair-FFT scratch spectrum, s+1 bins *)
    sim : float array;
    hbuf : float array;  (* inverse-FFT output, 2s samples *)
    qbase : int array;  (* per-partition delay-line offsets *)
  }

  let fft_scratch_key : (int, fft_scratch) Hashtbl.t Domain.DLS.key =
    Domain.DLS.new_key (fun () -> Hashtbl.create 4)

  let fft_scratch_for ~s ~np =
    let tbl = Domain.DLS.get fft_scratch_key in
    match Hashtbl.find_opt tbl s with
    | Some sc when Array.length sc.qbase >= np -> sc
    | _ ->
      let sc =
        {
          gbuf = Array.make s 0.0;
          accre = Array.make (s + 1) 0.0;
          accim = Array.make (s + 1) 0.0;
          sre = Array.make (s + 1) 0.0;
          sim = Array.make (s + 1) 0.0;
          hbuf = Array.make (2 * s) 0.0;
          qbase = Array.make (Stdlib.max 1 np) 0;
        }
      in
      Hashtbl.replace tbl s sc;
      sc

  type impl =
    | Seq of float array  (* the double-buffered ring *)
    | Fft_os of fft_state

  type t = {
    table : Table.t;
    order : int;
    impl : impl;
    mutable k : int;  (* values served to the caller so far *)
    mutable scratch : float array;  (* batched innovations, grown on demand *)
  }

  let check_order ~who ~table ~order =
    if order < 1 || order >= Table.length table then
      invalid_arg (Printf.sprintf "Hosking.Block.%s: order outside [1, table length)" who)

  let create ?fft_plan ~table ~order () =
    check_order ~who:"create" ~table ~order;
    let impl =
      match fft_plan with
      | None -> Seq (Array.make (2 * order) 0.0)
      | Some plan ->
          if Fft_plan.order plan <> order then
            invalid_arg
              (Printf.sprintf "Hosking.Block.create: plan order %d, requested order %d"
                 (Fft_plan.order plan) order);
          let s = plan.Fft_plan.s in
          let hl = plan.Fft_plan.ktot * s in
          let dl = Stdlib.max 0 (plan.Fft_plan.ktot - 1) in
          Fft_os
            {
              plan;
              hl;
              win = Array.make (hl + s) 0.0;
              dlre = Array.make (Stdlib.max 1 (dl * (s + 1))) 0.0;
              dlim = Array.make (Stdlib.max 1 (dl * (s + 1))) 0.0;
              kp = 0;
            }
    in
    { table; order; impl; k = 0; scratch = [||] }

  let generated t = t.k

  (* Back to slot 0 in place: the next [fill] reads no history (slot k
     only reads the ring entries of slots 0..k-1), and the zeroed ring
     makes the state, checkpoint bytes included, a fresh generator's. *)
  let rewind t =
    match t.impl with
    | Seq ring ->
        Array.fill ring 0 (Array.length ring) 0.0;
        t.k <- 0
    | Fft_os _ -> invalid_arg "Hosking.Block.rewind: fft kernel"

  let deviates t =
    match t.impl with
    | Seq _ -> t.scratch
    | Fft_os _ -> invalid_arg "Hosking.Block.deviates: fft kernel"

  (* The innovations are independent of the generated values, so one
     [Rng.fill_gaussian] batch replaces [len] per-slot boxed calls —
     the same deviate sequence, read unboxed from a float array. The
     write position [p = k mod order] is carried incrementally and
     the frozen AR row/std are hoisted, so the steady-state slot cost
     is the [ar_dot] chain plus three stores. *)
  let fill_seq t ring rng buf ~off ~len =
    if Array.length t.scratch < len then t.scratch <- Array.make len 0.0;
    let g = t.scratch in
    Rng.fill_gaussian rng g ~off:0 ~len;
    let order = t.order in
    let rows = t.table.Table.rows in
    let stds = t.table.Table.stds in
    let frozen_row = if Array.length rows >= order then Array.unsafe_get rows (order - 1) else [||] in
    let frozen_std = Array.unsafe_get stds order in
    let k = ref t.k in
    let p = ref (t.k mod order) in
    for i = 0 to len - 1 do
      let kc = !k in
      let pp = !p in
      let m =
        if kc >= order then
          let top = if pp = 0 then 2 * order else pp + order in
          ar_dot frozen_row ring ~top ~k:order
        else if kc = 0 then 0.0
        else
          (* pre-steady-state: pp = kc, so the window top is kc + order *)
          ar_dot (Array.unsafe_get rows (kc - 1)) ring ~top:(pp + order) ~k:kc
      in
      let std = if kc >= order then frozen_std else Array.unsafe_get stds kc in
      let x = m +. (std *. Array.unsafe_get g i) in
      Array.unsafe_set ring pp x;
      Array.unsafe_set ring (pp + order) x;
      Array.unsafe_set buf (off + i) x;
      let pn = pp + 1 in
      p := if pn = order then 0 else pn;
      k := kc + 1
    done;
    t.k <- t.k + len

  (* --- Same-model lanes ------------------------------------------- *)

  (* [ar_dot] is one serial chain of dependent adds, so a single
     exact generator leaves most of the FP units idle. Generators
     that share a table, an order and a position read the same AR row
     at every slot; [fill_many] runs up to [group] of them side by
     side, one accumulator per lane, each lane adding its products in
     [ar_dot]'s j order from 0.0, so every lane's stream is bitwise
     its generator's own. The lanes' rings are gathered into one
     interleaved per-domain scratch (position-major: lane l of ring
     position p at [p * group + l]) and scattered back, so per-source
     state, RNG draw order and checkpoint bytes are those of [fill]. *)
  let group = 8

  type lane_scratch = {
    mutable il : float array;
    acc : float array;  (* the lanes' conditional means at one slot *)
    rings : float array array;  (* the lanes' rings during one call *)
  }

  let lane_key : lane_scratch Domain.DLS.key =
    Domain.DLS.new_key (fun () ->
        { il = [||]; acc = Array.make group 0.0; rings = Array.make group [||] })

  let ring_of t =
    match t.impl with
    | Seq ring -> ring
    | Fft_os _ -> invalid_arg "Hosking.Block.fill_many: fft kernel"

  let groupable a b =
    a != b && a.table == b.table && a.order = b.order && a.k = b.k
    && match (a.impl, b.impl) with Seq _, Seq _ -> true | _ -> false

  let fill_many ts rngs n buf offs ~len =
    if n < 1 || n > group || Array.length ts < n || Array.length rngs < n || Array.length offs < n
    then invalid_arg "Hosking.Block.fill_many: lane count outside [1, group] or arrays too short";
    let t0 = ts.(0) in
    ignore (ring_of t0 : float array);
    for l = 0 to n - 1 do
      let off = offs.(l) in
      if len < 0 || off < 0 || off + len > Array.length buf then
        invalid_arg "Hosking.Block.fill_many: range outside the buffer";
      for l' = 0 to l - 1 do
        if not (groupable ts.(l') ts.(l)) then
          invalid_arg "Hosking.Block.fill_many: generators differ in table, order or position"
      done
    done;
    (* Innovations first, lane by lane: each generator draws its [len]
       deviates exactly as [fill] would, in lane order. *)
    for l = 0 to n - 1 do
      let t = ts.(l) in
      if Array.length t.scratch < len then t.scratch <- Array.make len 0.0;
      Rng.fill_gaussian rngs.(l) t.scratch ~off:0 ~len
    done;
    let order = t0.order in
    let width = 2 * order in
    let sc = Domain.DLS.get lane_key in
    if Array.length sc.il < width * group then sc.il <- Array.make (width * group) 0.0;
    let il = sc.il and acc = sc.acc and rings = sc.rings in
    for l = 0 to n - 1 do
      rings.(l) <- ring_of ts.(l)
    done;
    (* Position-major, so [il] is written sequentially; absent lanes
       compute on zeros and are never scattered. *)
    for q = 0 to width - 1 do
      let b = q * group in
      for l = 0 to group - 1 do
        Array.unsafe_set il (b + l)
          (if l < n then Array.unsafe_get (Array.unsafe_get rings l) q else 0.0)
      done
    done;
    let rows = t0.table.Table.rows in
    let stds = t0.table.Table.stds in
    let frozen_row =
      if Array.length rows >= order then Array.unsafe_get rows (order - 1) else [||]
    in
    let frozen_std = Array.unsafe_get stds order in
    let k0 = t0.k in
    let p = ref (k0 mod order) in
    for i = 0 to len - 1 do
      let kc = k0 + i in
      let pp = !p in
      (* Same row, depth and window top as [fill_seq] at this slot. *)
      let row, depth, top =
        if kc >= order then (frozen_row, order, if pp = 0 then 2 * order else pp + order)
        else if kc = 0 then (frozen_row, 0, 0)
        else (Array.unsafe_get rows (kc - 1), kc, pp + order)
      in
      let a0 = ref 0.0 and a1 = ref 0.0 and a2 = ref 0.0 and a3 = ref 0.0 in
      let a4 = ref 0.0 and a5 = ref 0.0 and a6 = ref 0.0 and a7 = ref 0.0 in
      let b = ref ((top - 1) * group) in
      for j = 0 to depth - 1 do
        let c = Array.unsafe_get row j in
        let bb = !b in
        a0 := !a0 +. (c *. Array.unsafe_get il bb);
        a1 := !a1 +. (c *. Array.unsafe_get il (bb + 1));
        a2 := !a2 +. (c *. Array.unsafe_get il (bb + 2));
        a3 := !a3 +. (c *. Array.unsafe_get il (bb + 3));
        a4 := !a4 +. (c *. Array.unsafe_get il (bb + 4));
        a5 := !a5 +. (c *. Array.unsafe_get il (bb + 5));
        a6 := !a6 +. (c *. Array.unsafe_get il (bb + 6));
        a7 := !a7 +. (c *. Array.unsafe_get il (bb + 7));
        b := bb - group
      done;
      Array.unsafe_set acc 0 !a0;
      Array.unsafe_set acc 1 !a1;
      Array.unsafe_set acc 2 !a2;
      Array.unsafe_set acc 3 !a3;
      Array.unsafe_set acc 4 !a4;
      Array.unsafe_set acc 5 !a5;
      Array.unsafe_set acc 6 !a6;
      Array.unsafe_set acc 7 !a7;
      let std = if kc >= order then frozen_std else Array.unsafe_get stds kc in
      let lo = pp * group and hi = (pp + order) * group in
      for l = 0 to n - 1 do
        let t = Array.unsafe_get ts l in
        let x = Array.unsafe_get acc l +. (std *. Array.unsafe_get t.scratch i) in
        Array.unsafe_set il (lo + l) x;
        Array.unsafe_set il (hi + l) x;
        Array.unsafe_set buf (Array.unsafe_get offs l + i) x
      done;
      let pn = pp + 1 in
      p := if pn = order then 0 else pn
    done;
    for q = 0 to width - 1 do
      let b = q * group in
      for l = 0 to n - 1 do
        Array.unsafe_set (Array.unsafe_get rings l) q (Array.unsafe_get il (b + l))
      done
    done;
    for l = 0 to n - 1 do
      ts.(l).k <- ts.(l).k + len;
      rings.(l) <- [||]
    done

  (* --- FFT kernel ------------------------------------------------- *)

  (* [win] maps sample k to index [hl + k - kp] for the block in
     progress; completed history sits below [hl], the oldest retained
     sample being [kp - hl] (earlier entries are zero during warmup,
     which is exact: those lags do not exist yet). A pair block [a]
     is the 2s samples [a*s .. (a+2)*s); partition q of block
     r = kp/s consumes pair [r - q - 1], whose spectrum was computed
     when that pair completed, at the start of block [a + 2]. *)

  (* Produce the next [s] samples into [win.(hl .. hl+s-1)],
     consuming exactly [s] innovations — the RNG consumption pattern
     is therefore independent of how callers batch their pulls. *)
  let produce t st rng =
    let plan = st.plan in
    let s = plan.Fft_plan.s in
    let ktot = plan.Fft_plan.ktot in
    let sc = fft_scratch_for ~s ~np:(Stdlib.max 1 (ktot - 1)) in
    let hl = st.hl in
    let win = st.win in
    let r = st.kp / s in
    (* Retire the previous block into history. *)
    if r > 0 then Array.blit win s win 0 hl;
    (* Pair r-2 just completed: push its spectrum onto the delay
       line (overwriting the expired pair r-2-(ktot-1)). *)
    if ktot > 1 && r >= 2 then begin
      let stride = s + 1 in
      let slot = (r - 2) mod (ktot - 1) in
      Fft.Real.forward plan.Fft_plan.rplan win ~off:(hl - (2 * s)) ~re:sc.sre ~im:sc.sim;
      Array.blit sc.sre 0 st.dlre (slot * stride) stride;
      Array.blit sc.sim 0 st.dlim (slot * stride) stride
    end;
    let fft_ready = ktot > 1 && r >= ktot in
    if fft_ready then begin
      (* Accumulate sum_q H_q * Z_(r-q-1) bin-major with register
         accumulators and invert once: hbuf entries s-1 .. 2s-2 are
         the pre-block contributions to the s in-block positions (the
         aliased prefix is discarded). *)
      let stride = s + 1 in
      let np = ktot - 1 in
      let qb = sc.qbase in
      for q = 1 to np do
        qb.(q - 1) <- (r - q - 1) mod np * stride
      done;
      let hr = plan.Fft_plan.hre and hi = plan.Fft_plan.him in
      let dlr = st.dlre and dli = st.dlim in
      for b = 0 to s do
        let ar = ref 0.0 and ai = ref 0.0 in
        for qi = 0 to np - 1 do
          let hb = (qi * stride) + b in
          let zb = Array.unsafe_get qb qi + b in
          let hrb = Array.unsafe_get hr hb and hib = Array.unsafe_get hi hb in
          let zrb = Array.unsafe_get dlr zb and zib = Array.unsafe_get dli zb in
          ar := !ar +. ((hrb *. zrb) -. (hib *. zib));
          ai := !ai +. ((hrb *. zib) +. (hib *. zrb))
        done;
        Array.unsafe_set sc.accre b !ar;
        Array.unsafe_set sc.accim b !ai
      done;
      Fft.Real.inverse plan.Fft_plan.rplan ~re:sc.accre ~im:sc.accim sc.hbuf ~off:0
    end;
    let order = t.order in
    let rows = t.table.Table.rows in
    let stds = t.table.Table.stds in
    let frozen_row = Array.unsafe_get rows (order - 1) in
    let frozen_std = Array.unsafe_get stds order in
    let seq_k = plan.Fft_plan.seq_k in
    let g = sc.gbuf in
    Rng.fill_gaussian rng g ~off:0 ~len:s;
    let kp = st.kp in
    let hbuf = sc.hbuf in
    for i = 0 to s - 1 do
      let kc = kp + i in
      let top = hl + i in
      let m =
        if fft_ready then
          hbuf.(s - 1 + i) +. ar_dot_relaxed frozen_row win ~top ~k:seq_k
        else if kc >= order then ar_dot_relaxed frozen_row win ~top ~k:order
        else if kc = 0 then 0.0
        else ar_dot_relaxed (Array.unsafe_get rows (kc - 1)) win ~top ~k:kc
      in
      let std = if kc >= order then frozen_std else Array.unsafe_get stds kc in
      win.(top) <- m +. (std *. Array.unsafe_get g i)
    done;
    st.kp <- kp + s

  let fill_fft t st rng buf ~off ~len =
    let s = st.plan.Fft_plan.s in
    let off = ref off and left = ref len in
    while !left > 0 do
      if t.k = st.kp then produce t st rng;
      (* Unserved tail of the current block: win.(hl + k - (kp - s)). *)
      let lo = st.hl + s - (st.kp - t.k) in
      let chunk = Stdlib.min !left (st.kp - t.k) in
      Array.blit st.win lo buf !off chunk;
      t.k <- t.k + chunk;
      off := !off + chunk;
      left := !left - chunk
    done

  let fill t rng buf ~off ~len =
    if len < 0 || off < 0 || off + len > Array.length buf then
      invalid_arg "Hosking.Block.fill: range outside the buffer";
    match t.impl with
    | Seq ring -> fill_seq t ring rng buf ~off ~len
    | Fft_os st -> fill_fft t st rng buf ~off ~len

  (* Checkpoint state is the window plus the position counters —
     O(order), never O(horizon). The coefficient table, the partition
     spectra, and the pair-spectrum delay line are all re-derived on
     resume (the delay line is a pure function of [win]), so
     snapshots stay layout-independent; [scratch] is pure scratch. *)
  let save t w =
    let module W = Ss_checkpoint.W in
    match t.impl with
    | Seq ring ->
        W.tag w "hosking-block";
        W.int w t.order;
        W.int w t.k;
        W.float_array w ring
    | Fft_os st ->
        W.tag w "hosking-block-fft";
        W.int w t.order;
        W.int w st.plan.Fft_plan.s;
        W.int w st.kp;
        W.int w t.k;
        W.float_array w st.win

  (* Recompute the delay-line spectra from the time-domain window:
     at block r = kp/s the live pairs are r-2 .. r-ktot; pair r-2 is
     pushed by the next [produce], the rest are recoverable from
     [win] (pair a starts at win index a*s + hl + s - kp, in-range
     for every live pair). *)
  let rebuild_delay st =
    let plan = st.plan in
    let s = plan.Fft_plan.s in
    let ktot = plan.Fft_plan.ktot in
    if ktot > 1 then begin
      let sc = fft_scratch_for ~s ~np:(ktot - 1) in
      let stride = s + 1 in
      let r = st.kp / s in
      for a = Stdlib.max 0 (r - ktot) to r - 3 do
        let slot = a mod (ktot - 1) in
        Fft.Real.forward plan.Fft_plan.rplan st.win
          ~off:((a * s) + st.hl + s - st.kp)
          ~re:sc.sre ~im:sc.sim;
        Array.blit sc.sre 0 st.dlre (slot * stride) stride;
        Array.blit sc.sim 0 st.dlim (slot * stride) stride
      done
    end

  let restore t r =
    let module R = Ss_checkpoint.R in
    match t.impl with
    | Seq ring ->
        R.tag r "hosking-block";
        let order = R.int r in
        if order <> t.order then
          raise
            (Ss_checkpoint.Corrupt
               (Printf.sprintf "hosking-block: checkpoint order %d, generator order %d" order
                  t.order));
        t.k <- R.int r;
        R.float_array_into r ring
    | Fft_os st ->
        R.tag r "hosking-block-fft";
        let order = R.int r in
        if order <> t.order then
          raise
            (Ss_checkpoint.Corrupt
               (Printf.sprintf "hosking-block-fft: checkpoint order %d, generator order %d"
                  order t.order));
        let s = R.int r in
        if s <> st.plan.Fft_plan.s then
          raise
            (Ss_checkpoint.Corrupt
               (Printf.sprintf "hosking-block-fft: checkpoint partition %d, plan partition %d"
                  s st.plan.Fft_plan.s));
        st.kp <- R.int r;
        t.k <- R.int r;
        R.float_array_into r st.win;
        rebuild_delay st
end

let generate_into table rng buf =
  let n = Array.length buf in
  if n > Table.length table then invalid_arg "Hosking.generate_into: buffer too long";
  for k = 0 to n - 1 do
    let m = Table.cond_mean table buf k in
    buf.(k) <- m +. (Table.innovation_std table k *. Rng.gaussian rng)
  done

let generate table rng =
  let buf = Array.make (Table.length table) 0.0 in
  generate_into table rng buf;
  buf

(* The streaming generators reuse one pair of coefficient buffers
   across Durbin–Levinson steps (row k only ever reads row k-1), so
   the recursion allocates O(n) once instead of a fresh O(k) array
   per step — the same arithmetic, so output on a fixed seed is
   unchanged. *)
let generate_stream ~acf ~n rng =
  if n <= 0 then invalid_arg "Hosking.generate_stream: n <= 0";
  let r = Acf.to_array acf ~n in
  let xs = Array.make n 0.0 in
  xs.(0) <- Rng.gaussian rng;
  let prev = ref (Array.make (Stdlib.max 1 (n - 1)) 0.0) in
  let next = ref (Array.make (Stdlib.max 1 (n - 1)) 0.0) in
  let v = ref 1.0 in
  for k = 1 to n - 1 do
    v := dl_step ~r ~k ~prev:!prev ~next:!next ~v_prev:!v;
    let t = !prev in
    prev := !next;
    next := t;
    let row = !prev in
    let m = ar_dot row xs ~top:k ~k in
    xs.(k) <- m +. (sqrt !v *. Rng.gaussian rng)
  done;
  xs

let generate_truncated ~acf ~n ~max_order rng =
  if n <= 0 then invalid_arg "Hosking.generate_truncated: n <= 0";
  if max_order < 1 then invalid_arg "Hosking.generate_truncated: max_order < 1";
  if n <= max_order then generate_stream ~acf ~n rng
  else begin
    let r = Acf.to_array acf ~n:(max_order + 1) in
    let xs = Array.make n 0.0 in
    xs.(0) <- Rng.gaussian rng;
    let prev = ref (Array.make max_order 0.0) in
    let next = ref (Array.make max_order 0.0) in
    let v = ref 1.0 in
    for k = 1 to max_order do
      v := dl_step ~r ~k ~prev:!prev ~next:!next ~v_prev:!v;
      let t = !prev in
      prev := !next;
      next := t;
      let row = !prev in
      if k < n then xs.(k) <- ar_dot row xs ~top:k ~k +. (sqrt !v *. Rng.gaussian rng)
    done;
    (* Frozen AR(max_order) filter beyond the exact prefix. *)
    let row = !prev in
    let std = sqrt !v in
    for k = max_order + 1 to n - 1 do
      xs.(k) <- ar_dot row xs ~top:k ~k:max_order +. (std *. Rng.gaussian rng)
    done;
    xs
  end
