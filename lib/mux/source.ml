module Rng = Ss_stats.Rng
module Acf = Ss_fractal.Acf
module Hosking = Ss_fractal.Hosking
module Davies_harte = Ss_fractal.Davies_harte
module Transform = Ss_fractal.Transform
module Gop = Ss_video.Gop
module Frame = Ss_video.Frame
module Model = Ss_core.Model
module Mpeg = Ss_core.Mpeg

module W = Ss_checkpoint.W
module R = Ss_checkpoint.R

exception End_of_stream

type ckpt = { ck_save : W.t -> unit; ck_restore : R.t -> unit }

(* What [next_blocks] needs to advance an exact-Hosking [of_model]
   source as one lane of a group: its generator, its RNG, its horizon
   counter and its transform, all shared with the closures of [own],
   the block pull they were built for. *)
type lane = {
  blk : Hosking.Block.t;
  rng : Rng.t;
  remaining : int ref;
  h : Transform.t;
  own : float array -> int array -> int -> int -> int;
}

type t = {
  name : string;
  mean : float;
  sigma2 : float;
  hurst : float;
  pull : unit -> float * int;
  pull_block : float array -> int array -> int -> int -> int;
  ckpt : ckpt option;
  lane : lane option;
}

type backend = [ `Hosking | `Davies_harte ]
type kernel = [ `Exact | `Fft ]

(* Default block implementation over a scalar pull: one call per slot
   in slot order, so adapted sources consume their state (and their
   substreams) exactly as per-slot pulls would — the block path is
   bit-identical by construction. A mid-block [End_of_stream] ends
   the block short; later blocks keep returning 0 because the
   underlying pull keeps raising. *)
let block_of_pull pull =
  fun wbuf cbuf off len ->
    if len < 0 || off < 0 || off + len > Array.length wbuf || off + len > Array.length cbuf
    then invalid_arg "Source.pull_block: range outside the buffers";
    let i = ref 0 in
    (try
       while !i < len do
         let w, c = pull () in
         wbuf.(off + !i) <- w;
         cbuf.(off + !i) <- c;
         incr i
       done
     with End_of_stream -> ());
    !i

(* The scalar pull as a one-slot block pull, so scalar and block
   consumption interleave coherently on one source and are
   bit-identical by construction. *)
let pull_of_block pull_block =
  let w = [| 0.0 |] and c = [| 0 |] in
  fun () -> if pull_block w c 0 1 = 1 then (w.(0), c.(0)) else raise End_of_stream

let make ?pull_block ?ckpt ~name ~mean ~sigma2 ~hurst pull =
  if mean < 0.0 then invalid_arg "Source.make: mean < 0";
  if sigma2 < 0.0 then invalid_arg "Source.make: sigma2 < 0";
  if hurst <= 0.0 || hurst >= 1.0 then invalid_arg "Source.make: hurst outside (0,1)";
  let pull_block = match pull_block with Some f -> f | None -> block_of_pull pull in
  { name; mean; sigma2; hurst; pull; pull_block; ckpt; lane = None }

let supports_checkpoint t = Option.is_some t.ckpt

let save t w =
  match t.ckpt with
  | Some c ->
    W.tag w "source";
    W.string w t.name;
    c.ck_save w
  | None ->
    invalid_arg
      (Printf.sprintf
         "Source.save: source %S does not support checkpointing (hand-rolled pull \
          without ~ckpt)"
         t.name)

let restore t r =
  match t.ckpt with
  | Some c ->
    R.tag r "source";
    let name = R.string r in
    if not (String.equal name t.name) then
      raise
        (Ss_checkpoint.Corrupt
           (Printf.sprintf "source: checkpoint holds state for %S, restoring into %S" name
              t.name));
    c.ck_restore r
  | None ->
    invalid_arg
      (Printf.sprintf "Source.restore: source %S does not support checkpointing" t.name)

let next t = t.pull ()
let next_block t wbuf cbuf ~off ~len = t.pull_block wbuf cbuf off len

(* Shortest block the grouped path takes. A group gathers and
   scatters its rings once per block, O(order) per lane, which the
   side-by-side AR recursion repays after ~12 slots at order 512 and
   ~25 at orders 16 and 2048 (32-source runs on a 2.0 GHz Xeon, OCaml
   5.1 without flambda); shorter blocks, such as the 8-slot blocks of
   a run stopped at a threshold, stay per-source. *)
let min_group_len = 32

(* [s]'s lane when the grouped path may stand in for [s.pull_block]
   on a [len]-slot block: the block pull is still the one the lane
   was built for (a wrapper, or [{ s with pull_block }], is never
   bypassed) and the horizon covers the whole block. Returns the
   record's own option, so it allocates nothing. *)
let lane_for s len =
  match s.lane with
  | Some ln when ln.own == s.pull_block && !(ln.remaining) >= len -> s.lane
  | _ -> None

(* The model sources' foreground, in place: the marginal transform,
   then the zero clamp ([Stdlib.max 0.0 w] monomorphized — the same
   definition on a float comparison, NaN passed through — so no
   boxed polymorphic compare per slot), class 0. *)
let foreground h wbuf cbuf ~off ~len =
  Transform.apply_into h wbuf ~off ~len;
  for j = off to off + len - 1 do
    let w = Array.unsafe_get wbuf j in
    Array.unsafe_set wbuf j (if 0.0 >= w then 0.0 else w)
  done;
  Array.fill cbuf off len 0

(* Per-domain member list of the group [next_blocks] is forming;
   written and consumed within one call, before any user code runs. *)
type members = {
  mutable lanes : lane array;
  mutable blks : Hosking.Block.t array;
  mutable rngs : Rng.t array;
  offs : int array;
}

let members_key : members Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { lanes = [||]; blks = [||]; rngs = [||]; offs = Array.make Hosking.Block.group 0 })

let add_member mem k ln ~off =
  mem.lanes.(k) <- ln;
  mem.blks.(k) <- ln.blk;
  mem.rngs.(k) <- ln.rng;
  mem.offs.(k) <- off

let next_blocks sources ~lo ~hi ~skip wbuf cbuf ~stride ~len ~filled =
  let g = Hosking.Block.group in
  let mem = Domain.DLS.get members_key in
  let i = ref lo in
  while !i < hi do
    let i0 = !i in
    let s = sources.(i0) in
    if skip.(i0) then i := i0 + 1
    else
      match if len < min_group_len then None else lane_for s len with
      | None ->
        filled.(i0) <- s.pull_block wbuf cbuf (i0 * stride) len;
        i := i0 + 1
      | Some ln ->
        if Array.length mem.lanes = 0 then begin
          mem.lanes <- Array.make g ln;
          mem.blks <- Array.make g ln.blk;
          mem.rngs <- Array.make g ln.rng
        end;
        add_member mem 0 ln ~off:(i0 * stride);
        (* Extend over the consecutive sources that can join: live,
           grouped-path eligible, and groupable with every member so
           far (same table, order and position; distinct generators). *)
        let m = ref 1 in
        let open_ = ref true in
        while !open_ && !m < g && i0 + !m < hi do
          let j = i0 + !m in
          (match if skip.(j) then None else lane_for sources.(j) len with
          | Some ln' ->
            for k = 0 to !m - 1 do
              if not (Hosking.Block.groupable mem.blks.(k) ln'.blk) then open_ := false
            done;
            if !open_ then begin
              add_member mem !m ln' ~off:(j * stride);
              incr m
            end
          | None -> open_ := false)
        done;
        let m = !m in
        if m = 1 then filled.(i0) <- s.pull_block wbuf cbuf (i0 * stride) len
        else begin
          Hosking.Block.fill_many mem.blks mem.rngs m wbuf mem.offs ~len;
          for k = 0 to m - 1 do
            let ln = mem.lanes.(k) in
            ln.remaining := !(ln.remaining) - len;
            foreground ln.h wbuf cbuf ~off:mem.offs.(k) ~len;
            filled.(i0 + k) <- len
          done
        end;
        i := i0 + m
  done

let of_array ?(name = "array") ?(hurst = 0.5) ?(cycle = false) xs =
  if Array.length xs = 0 then invalid_arg "Source.of_array: empty array";
  let n = Array.length xs in
  let i = ref 0 in
  let pull () =
    if !i >= n then if cycle then i := 0 else raise End_of_stream;
    let v = xs.(!i) in
    incr i;
    (v, 0)
  in
  (* Native block path: segment blits from the backing array, classes
     all 0 — same replay order and the same exhaustion slot as the
     scalar pull. *)
  let pull_block wbuf cbuf off len =
    if len < 0 || off < 0 || off + len > Array.length wbuf || off + len > Array.length cbuf
    then invalid_arg "Source.pull_block: range outside the buffers";
    let filled = ref 0 in
    let continue = ref true in
    while !filled < len && !continue do
      if !i >= n then if cycle then i := 0 else continue := false;
      if !continue then begin
        let take = Stdlib.min (len - !filled) (n - !i) in
        Array.blit xs !i wbuf (off + !filled) take;
        i := !i + take;
        filled := !filled + take
      end
    done;
    Array.fill cbuf off !filled 0;
    !filled
  in
  let ckpt =
    {
      ck_save =
        (fun w ->
          W.tag w "array-src";
          W.int w !i);
      ck_restore =
        (fun r ->
          R.tag r "array-src";
          let i' = R.int r in
          if i' < 0 || i' > n then
            raise
              (Ss_checkpoint.Corrupt
                 (Printf.sprintf "array-src: replay index %d outside [0, %d]" i' n));
          i := i');
    }
  in
  make ~pull_block ~ckpt ~name ~mean:(Ss_stats.Descriptive.mean xs)
    ~sigma2:(Ss_stats.Descriptive.variance xs) ~hurst pull

(* Bounded LRU under a mutex, shared by the table and plan caches.
   Values are deterministic functions of the key, so eviction only
   costs a rebuild — a re-fit after eviction is bit-identical (unit
   tested). Builds happen OUTSIDE the lock (construction is
   O(order^2)), inserted if-absent on completion, so a cold start
   never serializes distinct keys behind one Durbin–Levinson fit —
   N shards warming N different models fit concurrently. Same-key
   racers do not duplicate the fit either: the first requester
   registers the key as [pending] and builds; later requesters wait
   on the condition variable and pick up the winner's entry, so
   concurrent lookups of one key always yield one shared (physically
   equal) table. A failed build unregisters the key, wakes the
   waiters, and lets the next requester retry. *)
module Cache = struct
  type 'a entry = { value : 'a; mutable last_use : int }

  type stats = { hits : int; misses : int; evictions : int }

  type 'a t = {
    tbl : (string * int, 'a entry) Hashtbl.t;
    pending : (string * int, unit) Hashtbl.t;  (* keys being built *)
    built : Condition.t;  (* a pending build completed or failed *)
    mutex : Mutex.t;
    mutable cap : int;
    mutable tick : int;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
  }

  let create cap =
    {
      tbl = Hashtbl.create 8;
      pending = Hashtbl.create 4;
      built = Condition.create ();
      mutex = Mutex.create ();
      cap;
      tick = 0;
      hits = 0;
      misses = 0;
      evictions = 0;
    }

  let evict_lru_locked t =
    let victim =
      Hashtbl.fold
        (fun k e acc ->
          match acc with
          | Some (_, stamp) when stamp <= e.last_use -> acc
          | _ -> Some (k, e.last_use))
        t.tbl None
    in
    match victim with
    | None -> ()
    | Some (k, _) ->
      Hashtbl.remove t.tbl k;
      t.evictions <- t.evictions + 1

  let stats t =
    Mutex.lock t.mutex;
    let s = { hits = t.hits; misses = t.misses; evictions = t.evictions } in
    Mutex.unlock t.mutex;
    s

  let set_capacity t cap =
    if cap < 1 then invalid_arg "Source.set_table_cache_capacity: capacity < 1";
    Mutex.lock t.mutex;
    t.cap <- cap;
    while Hashtbl.length t.tbl > t.cap do
      evict_lru_locked t
    done;
    Mutex.unlock t.mutex

  let length t =
    Mutex.lock t.mutex;
    let n = Hashtbl.length t.tbl in
    Mutex.unlock t.mutex;
    n

  let find_or_build t key build =
    let claim =
      Mutex.lock t.mutex;
      let rec decide () =
        match Hashtbl.find_opt t.tbl key with
        | Some e ->
          t.tick <- t.tick + 1;
          e.last_use <- t.tick;
          t.hits <- t.hits + 1;
          `Hit e.value
        | None ->
          if Hashtbl.mem t.pending key then begin
            (* Someone is fitting this key right now: wait for the
               completion broadcast instead of burning a domain on a
               duplicate O(order^2) fit, then re-check (the winner's
               entry is normally there; if the build failed or the
               entry was already evicted, retry as a builder). *)
            Condition.wait t.built t.mutex;
            decide ()
          end
          else begin
            Hashtbl.add t.pending key ();
            t.misses <- t.misses + 1;
            `Build
          end
      in
      let r = decide () in
      Mutex.unlock t.mutex;
      r
    in
    match claim with
    | `Hit v -> v
    | `Build ->
      let v =
        try build ()
        with e ->
          Mutex.lock t.mutex;
          Hashtbl.remove t.pending key;
          Condition.broadcast t.built;
          Mutex.unlock t.mutex;
          raise e
      in
      Mutex.lock t.mutex;
      Hashtbl.remove t.pending key;
      let winner =
        match Hashtbl.find_opt t.tbl key with
        | Some e ->
          (* Unreachable while pending dedup holds (only the claimant
             inserts this key), kept as insert-if-absent so a racing
             insert could never shadow an entry. *)
          t.tick <- t.tick + 1;
          e.last_use <- t.tick;
          e.value
        | None ->
          while Hashtbl.length t.tbl >= t.cap do
            evict_lru_locked t
          done;
          t.tick <- t.tick + 1;
          Hashtbl.add t.tbl key { value = v; last_use = t.tick };
          v
      in
      Condition.broadcast t.built;
      Mutex.unlock t.mutex;
      winner
end

(* One Hosking table (or Davies–Harte plan) per (background ACF,
   order/length) — N same-model sources share the O(order^2)
   coefficients. The key is the ACF's structural {!Acf.fingerprint},
   never its display name. *)
let default_cache_capacity = 16
let table_cache : Hosking.Table.t Cache.t = Cache.create default_cache_capacity
let plan_cache : Davies_harte.plan Cache.t = Cache.create default_cache_capacity
let fft_plan_cache : Hosking.Fft_plan.t Cache.t = Cache.create default_cache_capacity
let set_table_cache_capacity cap = Cache.set_capacity table_cache cap
let table_cache_length () = Cache.length table_cache

type cache_stats = Cache.stats = { hits : int; misses : int; evictions : int }

let cache_stats () =
  [
    ("hosking-table", Cache.stats table_cache);
    ("davies-harte-plan", Cache.stats plan_cache);
    ("hosking-fft-plan", Cache.stats fft_plan_cache);
  ]

let table_for ~acf ~order =
  if order < 1 || order > 19_999 then
    invalid_arg "Source.table_for: order outside [1, 19999]";
  Cache.find_or_build table_cache
    (Acf.fingerprint acf ~max_lag:order, order)
    (fun () -> Hosking.Table.make ~acf ~n:(order + 1))

(* The cache holds clipped plans and re-applies the embeddability
   refusal on every strict request, so one entry serves both kinds of
   request and a strict request after a permissive one still
   refuses. *)
let plan_for ?(allow_clipping = false) ~acf ~n () =
  if n < 1 then invalid_arg "Source.plan_for: n < 1";
  let plan =
    Cache.find_or_build plan_cache
      (Acf.fingerprint acf ~max_lag:n, n)
      (fun () -> Davies_harte.plan ~allow_clipping:true ~acf ~n ())
  in
  if not allow_clipping then Davies_harte.check_clipping ~acf plan;
  plan

let fft_plan_for ~acf ~order =
  if order < 1 || order > 19_999 then
    invalid_arg "Source.fft_plan_for: order outside [1, 19999]";
  Cache.find_or_build fft_plan_cache
    (Acf.fingerprint acf ~max_lag:order, order)
    (* The plan is a pure function of (ACF, order): the table lookup
       below hits (or populates) the table cache, and the partition
       spectra derived from any bit-identical re-fit are themselves
       bit-identical. *)
    (fun () -> Hosking.Fft_plan.make ~table:(table_for ~acf ~order) ~order)

let background_stream ~acf ~order rng =
  let blk = Hosking.Block.create ~table:(table_for ~acf ~order) ~order () in
  let buf = [| 0.0 |] in
  fun () ->
    Hosking.Block.fill blk rng buf ~off:0 ~len:1;
    buf.(0)

let check_horizon who horizon =
  match horizon with
  | Some h when h < 1 -> invalid_arg (who ^ ": horizon < 1")
  | _ -> ()

(* Background block filler: [fill buf off len] appends up to [len]
   fresh background values, returning the count (short only once a
   finite horizon is exhausted). The Hosking backend streams through
   the cache-blocked ring kernel (overlap-save FFT kernel under
   [`Fft]); the Davies–Harte backend materializes the whole
   fixed-horizon path in O(n log n) on first use and replays it — the
   kernel choice only governs the streaming Hosking recursion, so it
   is ignored there. The third component is the exact kernel's
   generator and horizon counter, which [of_model] exposes as a
   lane. *)
let bg_filler ~who ~acf ~order ~backend ~allow_clipping ~horizon ~kernel rng =
  let materialized n generate =
    if order < 1 || order > 19_999 then invalid_arg (who ^ ": order outside [1, 19999]");
    (* Deferred so construction consumes no randomness — like the
       Hosking streams, the generator state only advances on pulls.
       An explicit option (not [lazy]) so restore can reset it: the
       checkpoint stores the generator's *initial* state ([rng0],
       captured here) plus the replay position — O(1), never the
       O(horizon) path, which is regenerated bit-identically from
       [rng0] on the first post-restore pull. *)
    let rng0 = Rng.copy rng in
    let path = ref None in
    let ensure () =
      match !path with
      | Some xs -> xs
      | None ->
        let xs = generate rng in
        path := Some xs;
        xs
    in
    let pos = ref 0 in
    let fill buf off len =
      let xs = ensure () in
      let take = Stdlib.min len (n - !pos) in
      Array.blit xs !pos buf off take;
      pos := !pos + take;
      take
    in
    let ckpt =
      {
        ck_save =
          (fun w ->
            W.tag w "bg-materialized";
            Rng.save rng0 w;
            W.int w !pos);
        ck_restore =
          (fun r ->
            R.tag r "bg-materialized";
            Rng.restore rng0 r;
            Rng.copy_into ~src:rng0 ~dst:rng;
            let pos' = R.int r in
            if pos' < 0 || pos' > n then
              raise
                (Ss_checkpoint.Corrupt
                   (Printf.sprintf "bg-materialized: position %d outside [0, %d]" pos' n));
            pos := pos';
            path := None);
      }
    in
    (fill, ckpt, None)
  in
  match backend with
  | `Hosking ->
    let table = table_for ~acf ~order in
    let blk =
      match kernel with
      | `Exact -> Hosking.Block.create ~table ~order ()
      | `Fft -> Hosking.Block.create ~fft_plan:(fft_plan_for ~acf ~order) ~table ~order ()
    in
    let remaining = ref (match horizon with None -> max_int | Some h -> h) in
    let fill buf off len =
      let take = if len < !remaining then len else !remaining in
      Hosking.Block.fill blk rng buf ~off ~len:take;
      remaining := !remaining - take;
      take
    in
    let ckpt =
      {
        ck_save =
          (fun w ->
            W.tag w "bg-hosking";
            Rng.save rng w;
            Hosking.Block.save blk w;
            W.int w !remaining);
        ck_restore =
          (fun r ->
            R.tag r "bg-hosking";
            Rng.restore rng r;
            Hosking.Block.restore blk r;
            remaining := R.int r);
      }
    in
    (fill, ckpt, match kernel with `Exact -> Some (blk, remaining) | `Fft -> None)
  | `Davies_harte ->
    let n =
      match horizon with
      | Some h -> h
      | None ->
        invalid_arg
          (who
         ^ ": backend `Davies_harte synthesizes a fixed-length path; pass ~horizon (or use \
            `Hosking for open-ended streaming)")
    in
    let plan = plan_for ~allow_clipping ~acf ~n () in
    materialized n (Davies_harte.generate plan)

let of_model ?(name = "model") ?(order = 512) ?(backend = `Hosking) ?(kernel = `Exact)
    ?(allow_clipping = false) ?horizon model rng =
  check_horizon "Source.of_model" horizon;
  let acf = Model.background_acf model in
  let fill_bg, bg_ckpt, exact =
    bg_filler ~who:"Source.of_model" ~acf ~order ~backend ~allow_clipping ~horizon ~kernel rng
  in
  (* The FFT kernel is already seed-incompatible with the exact tier,
     so it rides the relaxed marginal transform for the same per-slot
     speed; only [`Exact] keeps the erf-backed CDF. *)
  let h =
    match kernel with
    | `Exact -> model.Model.transform
    | `Fft -> Transform.relax model.Model.transform
  in
  let _, sigma2 = Transform.moments h in
  let pull_block wbuf cbuf off len =
    if len < 0 || off < 0 || off + len > Array.length wbuf || off + len > Array.length cbuf
    then invalid_arg "Source.pull_block: range outside the buffers";
    let f = fill_bg wbuf off len in
    foreground h wbuf cbuf ~off ~len:f;
    f
  in
  (* The marginal transform is stateless: the background filler is the
     whole checkpointable state. *)
  let s =
    make ~pull_block ~ckpt:bg_ckpt ~name ~mean:model.Model.mean ~sigma2
      ~hurst:model.Model.hurst (pull_of_block pull_block)
  in
  let lane =
    Option.map (fun (blk, remaining) -> { blk; rng; remaining; h; own = pull_block }) exact
  in
  { s with lane }

(* The importance sampler's source: per block, the exact kernel fills
   the untwisted background (the history stays untwisted, so the
   conditional means are the original law's), each slot's innovation
   goes to [probe] in slot order, [shift k] is added, and [of_model]'s
   foreground runs. No lane: the grouped path never advances it. *)
let of_model_twisted_reusable ?(name = "model-is") ?(order = 512) ~shift ?probe model rng =
  let table = table_for ~acf:(Model.background_acf model) ~order in
  let blk = Hosking.Block.create ~table ~order () in
  let h = model.Model.transform in
  let _, sigma2 = Transform.moments h in
  let pull_block wbuf cbuf off len =
    if len < 0 || off < 0 || off + len > Array.length wbuf || off + len > Array.length cbuf
    then invalid_arg "Source.pull_block: range outside the buffers";
    let k0 = Hosking.Block.generated blk in
    Hosking.Block.fill blk rng wbuf ~off ~len;
    (match probe with
    | None -> ()
    | Some f ->
      let g = Hosking.Block.deviates blk in
      for i = 0 to len - 1 do
        let k = k0 + i in
        let std = Hosking.Table.innovation_std table (if k < order then k else order) in
        f ~k ~innovation:(std *. Array.unsafe_get g i)
      done);
    for i = 0 to len - 1 do
      wbuf.(off + i) <- wbuf.(off + i) +. shift (k0 + i)
    done;
    foreground h wbuf cbuf ~off ~len;
    len
  in
  let s =
    make ~pull_block ~name ~mean:model.Model.mean ~sigma2 ~hurst:model.Model.hurst
      (pull_of_block pull_block)
  in
  let rewind sub =
    Rng.copy_into ~src:sub ~dst:rng;
    Hosking.Block.rewind blk
  in
  (s, rewind)

let of_model_twisted ?name ?order ~shift ?probe model rng =
  fst (of_model_twisted_reusable ?name ?order ~shift ?probe model rng)

let of_mpeg ?(name = "mpeg") ?(order = 512) ?(backend = `Hosking) ?(kernel = `Exact)
    ?(allow_clipping = false) ?horizon ?(phase = 0) ?(priority = false) m rng =
  if phase < 0 then invalid_arg "Source.of_mpeg: phase < 0";
  check_horizon "Source.of_mpeg" horizon;
  let gop = m.Mpeg.gop in
  let fill_bg, bg_ckpt, _ =
    bg_filler ~who:"Source.of_mpeg" ~acf:m.Mpeg.background ~order ~backend ~allow_clipping
      ~horizon ~kernel rng
  in
  let klass kind =
    if not priority then 0
    else match kind with Frame.I -> 0 | Frame.P -> 1 | Frame.B -> 2
  in
  let transform =
    let exact kind = Ss_video.Composite.transform m.Mpeg.composite kind in
    match kernel with
    | `Exact -> exact
    | `Fft ->
      (* Relax each per-kind transform once up front — [transform] is
         called per slot in the block loop. *)
      let ti = Transform.relax (exact Frame.I) in
      let tp = Transform.relax (exact Frame.P) in
      let tb = Transform.relax (exact Frame.B) in
      function Frame.I -> ti | Frame.P -> tp | Frame.B -> tb
  in
  (* GOP-pattern-averaged per-slot moments: the process is
     cyclostationary, so average E[h_k] and E[h_k^2] over one
     pattern. *)
  let period = Gop.length gop in
  let mean, sigma2 =
    let sum_m = ref 0.0 and sum_m2 = ref 0.0 in
    for i = 0 to period - 1 do
      let h = transform (Gop.kind_at gop i) in
      let mk, vk = Transform.moments h in
      sum_m := !sum_m +. mk;
      sum_m2 := !sum_m2 +. vk +. (mk *. mk)
    done;
    let m1 = !sum_m /. float_of_int period in
    (m1, Stdlib.max 0.0 ((!sum_m2 /. float_of_int period) -. (m1 *. m1)))
  in
  let t = ref phase in
  let pull_block wbuf cbuf off len =
    if len < 0 || off < 0 || off + len > Array.length wbuf || off + len > Array.length cbuf
    then invalid_arg "Source.pull_block: range outside the buffers";
    let f = fill_bg wbuf off len in
    for j = off to off + f - 1 do
      let kind = Gop.kind_at gop !t in
      incr t;
      let w = Transform.apply1 (transform kind) (Array.unsafe_get wbuf j) in
      wbuf.(j) <- (if 0.0 >= w then 0.0 else w);
      cbuf.(j) <- klass kind
    done;
    f
  in
  let ckpt =
    {
      ck_save =
        (fun w ->
          bg_ckpt.ck_save w;
          W.tag w "mpeg-gop";
          W.int w !t);
      ck_restore =
        (fun r ->
          bg_ckpt.ck_restore r;
          R.tag r "mpeg-gop";
          t := R.int r);
    }
  in
  make ~pull_block ~ckpt ~name ~mean ~sigma2 ~hurst:m.Mpeg.i_model.Model.hurst
    (pull_of_block pull_block)
