module Online = Ss_stats.Online_stats

type source_report = {
  name : string;
  offered : float;
  admitted : float;
  lost : float;
  loss_fraction : float;
  mean_rate : float;
  peak_rate : float;
  corrupt_slots : int;
  throttled : float;
  discarded : float;
  departed_at : int option;
}

type report = {
  slots : int;
  service : float;
  buffer : float;
  offered_utilization : float;
  carried_utilization : float;
  loss_fraction : float;
  mean_queue : float;
  max_queue : float;
  queue_quantiles : (float * float) list;
  delay_quantiles : (float * float) list;
  class_delay_quantiles : (int * (float * float) list) list;
  overflow : (float * float) list;
  per_source : source_report array;
  first_passage : int option;
}

let max_classes = 64

(* Staging block: every source is advanced a block of slots at a time
   (through its block pull) before the sequential Lindley/admission
   loop consumes them. [staging_budget] bounds the staged elements
   (sources * block slots): at N = 10^5 sources a long stage would pin
   hundreds of MB, so the block shrinks as N grows (floor
   [min_block]). At small N the block stretches up to [max_block]
   instead: every block costs one barrier dispatch, and on a few-core
   machine the dispatch wake-up is the whole cost of a multi-domain
   pool, so fewer, longer blocks keep d>1 from losing to d=1. The block size only sets
   staging granularity, never arithmetic — the admission loop consumes
   the same per-slot values at any block size, so results are
   independent of all three constants.

   A run with [stop_above] stages [min_block] slots at a time: the
   slots staged past the stopping slot are drawn for nothing, and a
   short block keeps the per-run staging arrays small enough for the
   minor heap at the importance sampler's source counts. *)
let staging_budget = 1 lsl 20
let min_block = 8
let max_block = 2048

(* All-float mutable record for the Lindley state and the per-class
   scratch: float-only records are stored flat, so updating a field is
   an unboxed store. A field is still a memory cell, though: a chain of
   additions into one waits on a store and a reload per step. The
   admission loop's per-source sums are therefore local [float ref]s,
   which ocamlopt turns into unboxed mutable variables held in
   registers (no allocation on [:=]) as long as no closure captures
   them. *)
type slot_state = {
  mutable q : float;  (* Lindley queue *)
  mutable served : float;  (* total work served *)
  mutable room : float;  (* remaining admission room this slot *)
  mutable rem : float;  (* remaining service in the class replay *)
  mutable prefix : float;  (* class-backlog prefix sum *)
}

(* Monomorphic min/max: the polymorphic [Stdlib.min]/[Stdlib.max]
   box float arguments at every call. Identical to them for non-NaN
   floats, and every value reaching these is already sanitized. *)
let fmin (a : float) b = if a <= b then a else b
let fmax (a : float) b = if a >= b then a else b

(* ------------------------------------------------------------------ *)
(* Checkpoint/resume                                                   *)
(* ------------------------------------------------------------------ *)

module Ck = Ss_checkpoint

type checkpoint = {
  every : int;  (* minimum slots between snapshots *)
  save : slot:int -> (Ck.W.t -> unit) -> unit;
}

(* The engine's persistent accumulators, gathered in one record so the
   codec below has one explicit, auditable list of "what survives a
   resume". Everything NOT in here — staging buffers, per-slot and
   per-block scratch ([works]/[classes]/[class_sums]/[class_scale]/
   [class_adm], the source-major [tot]/[ctop]/[csum]/[fsc], the
   room/rem/prefix slot fields, shard transpose state) — is
   recomputed from scratch every slot or block, so a resumed run
   rebuilds it identically by construction.
   [es_traj_cls] is the one trajectory array that carries state across
   slots (residual per-(class, source) backlog cells); the other
   trajectory arrays are per-slot. *)
type engine_state = {
  es_sources : Source.t array;
  es_police : Police.t option;
  es_slots : int;
  es_service : float;
  es_buffer : float;
  es_quantiles : float list;
  es_departed : bool array;
  es_departed_at : int array;
  es_offered : float array;
  es_admitted : float array;
  es_lost : float array;
  es_peak : float array;
  es_corrupt : int array;
  es_throttled : float array;
  es_discarded : float array;
  es_st : slot_state;
  es_queue_stats : Online.t;
  es_q_quant : (float * Online.P2.t) array;
  es_d_quant : (float * Online.P2.t) array;
  es_class_backlog : float array;
  es_class_quant : (float * Online.P2.t) array option array;
  es_top_class : int ref;
  es_thr_hits : int array;
  es_traj_cls : float array;  (* [||] when no trajectory sink *)
}

(* Snapshots are taken only at block-boundary staging points, where
   every source sits exactly at slot [t] (it has produced slots
   0..t-1 and nothing further) and all accumulators reflect exactly
   those slots. Block size never enters the arithmetic, so a resumed
   run whose block boundaries land elsewhere still replays the same
   per-slot statement sequence — the basis of the resume ≡
   uninterrupted bitwise contract. *)
let save_engine es ~t w =
  let n = Array.length es.es_sources in
  Ck.W.tag w "mux-engine";
  Ck.W.int w t;
  Ck.W.int w n;
  Ck.W.int w es.es_slots;
  Ck.W.float w es.es_service;
  Ck.W.float w es.es_buffer;
  Ck.W.int w (Array.length es.es_q_quant);
  Ck.W.int w (Array.length es.es_thr_hits);
  Ck.W.bool w (es.es_traj_cls <> [||]);
  Ck.W.bool w (es.es_police <> None);
  for i = 0 to n - 1 do
    Ck.W.bool w es.es_departed.(i)
  done;
  Ck.W.int_array w es.es_departed_at;
  Ck.W.float_array w es.es_offered;
  Ck.W.float_array w es.es_admitted;
  Ck.W.float_array w es.es_lost;
  Ck.W.float_array w es.es_peak;
  Ck.W.int_array w es.es_corrupt;
  Ck.W.float_array w es.es_throttled;
  Ck.W.float_array w es.es_discarded;
  Ck.W.float w es.es_st.q;
  Ck.W.float w es.es_st.served;
  Online.save es.es_queue_stats w;
  Array.iter (fun (_, p2) -> Online.P2.save p2 w) es.es_q_quant;
  Array.iter (fun (_, p2) -> Online.P2.save p2 w) es.es_d_quant;
  Ck.W.int w !(es.es_top_class);
  Ck.W.float_array w es.es_class_backlog;
  (* Classes 0..top_class all hold estimators (created the first slot
     the class appeared); higher classes were never seen. *)
  for c = 0 to !(es.es_top_class) do
    match es.es_class_quant.(c) with
    | Some qs -> Array.iter (fun (_, p2) -> Online.P2.save p2 w) qs
    | None -> assert false
  done;
  Ck.W.int_array w es.es_thr_hits;
  if es.es_traj_cls <> [||] then
    (* Only rows 0..top_class can hold nonzero cells. *)
    for c = 0 to !(es.es_top_class) do
      for i = 0 to n - 1 do
        Ck.W.float w es.es_traj_cls.((c * n) + i)
      done
    done;
  Ck.W.tag w "mux-sources";
  Array.iter (fun s -> Source.save s w) es.es_sources;
  match es.es_police with Some p -> Police.save p w | None -> ()

(* Restores in place over a freshly constructed engine and returns the
   resume slot. The construction parameters (source count, slots,
   service, buffer, quantile/threshold counts, trajectory and policer
   presence) are verified against the snapshot first: the caller must
   rebuild the run identically before resuming, and a mismatch is a
   refusal, never a silent divergence. *)
let restore_engine es r =
  let fail fmt = Printf.ksprintf (fun s -> raise (Ck.Corrupt ("mux: " ^ s))) fmt in
  let n = Array.length es.es_sources in
  Ck.R.tag r "mux-engine";
  let t0 = Ck.R.int r in
  let check_int name saved live =
    if saved <> live then fail "checkpoint has %s %d, this run has %d" name saved live
  in
  let check_float name saved live =
    if Int64.bits_of_float saved <> Int64.bits_of_float live then
      fail "checkpoint has %s %.17g, this run has %.17g" name saved live
  in
  let check_bool name saved live =
    if saved <> live then
      fail "checkpoint %s %s, this run %s" name
        (if saved then "present" else "absent")
        (if live then "is" else "is not")
  in
  check_int "source count" (Ck.R.int r) n;
  check_int "slots" (Ck.R.int r) es.es_slots;
  check_float "service" (Ck.R.float r) es.es_service;
  check_float "buffer" (Ck.R.float r) es.es_buffer;
  check_int "quantile count" (Ck.R.int r) (Array.length es.es_q_quant);
  check_int "threshold count" (Ck.R.int r) (Array.length es.es_thr_hits);
  check_bool "trajectory" (Ck.R.bool r) (es.es_traj_cls <> [||]);
  check_bool "policer" (Ck.R.bool r) (es.es_police <> None);
  if t0 < 0 || t0 > es.es_slots then
    fail "resume slot %d outside [0, %d]" t0 es.es_slots;
  for i = 0 to n - 1 do
    es.es_departed.(i) <- Ck.R.bool r
  done;
  Ck.R.int_array_into r es.es_departed_at;
  Ck.R.float_array_into r es.es_offered;
  Ck.R.float_array_into r es.es_admitted;
  Ck.R.float_array_into r es.es_lost;
  Ck.R.float_array_into r es.es_peak;
  Ck.R.int_array_into r es.es_corrupt;
  Ck.R.float_array_into r es.es_throttled;
  Ck.R.float_array_into r es.es_discarded;
  es.es_st.q <- Ck.R.float r;
  es.es_st.served <- Ck.R.float r;
  Online.restore es.es_queue_stats r;
  Array.iter (fun (_, p2) -> Online.P2.restore p2 r) es.es_q_quant;
  Array.iter (fun (_, p2) -> Online.P2.restore p2 r) es.es_d_quant;
  let tc = Ck.R.int r in
  if tc < -1 || tc >= max_classes then fail "top class %d outside [-1, %d]" tc (max_classes - 1);
  es.es_top_class := tc;
  Ck.R.float_array_into r es.es_class_backlog;
  for c = 0 to tc do
    let qs =
      Array.of_list (List.map (fun p -> (p, Online.P2.create ~p)) es.es_quantiles)
    in
    Array.iter (fun (_, p2) -> Online.P2.restore p2 r) qs;
    es.es_class_quant.(c) <- Some qs
  done;
  Ck.R.int_array_into r es.es_thr_hits;
  if es.es_traj_cls <> [||] then
    for c = 0 to tc do
      for i = 0 to n - 1 do
        es.es_traj_cls.((c * n) + i) <- Ck.R.float r
      done
    done;
  Ck.R.tag r "mux-sources";
  Array.iter (fun s -> Source.restore s r) es.es_sources;
  (match es.es_police with Some p -> Police.restore p r | None -> ());
  t0

let validate_checkpoint ?checkpoint ?resume sources =
  if checkpoint <> None || resume <> None then begin
    (match checkpoint with
    | Some ck when ck.every < 1 -> invalid_arg "Mux.run: checkpoint interval < 1"
    | _ -> ());
    Array.iter
      (fun s ->
        if not (Source.supports_checkpoint s) then
          invalid_arg
            (Printf.sprintf
               "Mux.run: source %s does not support checkpointing (either a hand-rolled \
                Source.make pull without ~ckpt, or an importance-sampled source, whose \
                likelihood state lives outside the snapshot)"
               s.Source.name))
      sources
  end

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

(* Per-domain sub-muxes. The N sources are partitioned into [shards]
   contiguous shards (shard s owns [s*n/shards, (s+1)*n/shards));
   each shard advances all its sources a whole block of slots through
   their block pulls, into a source-major region of the stage only it
   writes. Shards synchronize only at the per-block
   {!Ss_parallel.Barrier}; there is no per-slot or per-source
   cross-domain traffic. The caller then admits the block, in one of
   two layouts decided once per run.

   Source-major admission, for every run with neither a policer nor
   a trajectory sink, reads the stage where the shards left it, in
   three passes per block:
   - pass A takes the sources in index order, each over its staged
     segment, and adds its sanitized work into the block's per-slot
     totals [tot] (and, once a class other than 0 appears, into the
     per-(class, slot) sums), so every slot sum gets its additions in
     source order;
   - pass B runs the slots in order: admission fractions, the
     Lindley step, class backlogs, statistics and [stop_above]. A slot
     whose every class with positive work fits admits exactly [tot]
     ([w *. 1.0 = w], and a class summing to <= 0 holds only +-0.0
     work, for which [w *. 0.0 = w]); a slot that cuts or refuses a
     class gathers its column and sums [w *. f] in source order;
   - pass C takes each source over the block's admitted slots (up to
     tau, or the block end) and updates its corrupt count, offered,
     peak, admitted and lost in slot order.
   The general slot-major layout, for policed and trajectory-capturing
   runs, has each shard also transpose its columns of the block into
   slot-major rows ([wrow]/[crow]); the admission loop then makes one
   pass over each slot's contiguous row, where the policer and the
   trajectory read per-source outcomes slot by slot.

   Bit-identity, by construction, at any (shards, domains, block) and
   in either layout: shards only decide WHICH task pulls a source's
   block — per-source pull order is unchanged, staged values are
   copied, never combined — and every floating-point reduction
   happens on the caller in a pinned order: slot sums in source order
   (pass A, and the general row pass), partial-slot admitted totals in
   source order (pass B), per-source totals in slot order (pass C).
   Pass C runs before the next block is staged, so snapshots still
   land only on block boundaries with every accumulator complete, and
   [save_engine]'s bytes do not depend on the layout. Integer
   per-source state merged at the barrier (departure flags and slots)
   is written only by the owning shard.

   With [stop_above] the admission loop ends after the first slot tau
   whose queue exceeds it (the importance sampler's first passage);
   every source has then produced the slots of tau's staging block,
   at most [min_block - 1] past tau, and the report covers slots
   0..tau. A class outside [0, max_classes) is refused at the first
   slot the loop examines that carries one, naming that slot's lowest
   such source; slots past tau are never examined. *)
let run ?pool ?shards ?(buffer = infinity) ?(thresholds = []) ?(quantiles = [ 0.5; 0.9; 0.99 ])
    ?stop_above ?police ?trajectory ?checkpoint ?resume ~service ~slots sources =
  if slots <= 0 then invalid_arg "Mux.run: slots <= 0";
  (match shards with Some s when s < 1 -> invalid_arg "Mux.run: shards < 1" | _ -> ());
  (match stop_above with
  | Some b when Float.is_nan b || b < 0.0 -> invalid_arg "Mux.run: stop_above is NaN or < 0"
  | _ -> ());
  validate_checkpoint ?checkpoint ?resume sources;
  if not (Float.is_finite service && service > 0.0) then
    invalid_arg "Mux.run: service must be finite and > 0";
  if Float.is_nan buffer || buffer < 0.0 then invalid_arg "Mux.run: buffer is NaN or < 0";
  let n = Array.length sources in
  if n = 0 then invalid_arg "Mux.run: no sources";
  List.iter
    (fun b -> if Float.is_nan b || b < 0.0 then invalid_arg "Mux.run: threshold is NaN or < 0")
    thresholds;
  (match police with
  | Some p when Police.size p <> n -> invalid_arg "Mux.run: policer sized for different sources"
  | _ -> ());
  let shards =
    match (shards, pool) with
    | Some s, _ -> s
    | None, Some p -> Ss_parallel.Pool.size p
    | None, None -> 1
  in
  let nshards = Stdlib.min shards n in
  let block =
    Stdlib.min slots
      (match stop_above with
      | Some _ -> min_block
      | None -> Stdlib.max min_block (Stdlib.min max_block (staging_budget / n)))
  in
  (* [infinity] never stops a run: no queue exceeds it. *)
  let stop_level = match stop_above with Some b -> b | None -> infinity in
  (* Snapshots only land on staging points, so a block longer than the
     requested cadence would silently skip them (a whole small run can
     be one block). Capping the block at [every] is bitwise-free:
     block size never enters the arithmetic. *)
  let block =
    match checkpoint with
    | Some ck -> Stdlib.max 1 (Stdlib.min block ck.every)
    | None -> block
  in
  let has_traj = trajectory <> None in
  let source_major = Option.is_none police && not has_traj in
  let departed = Array.make n false in
  let departed_at = Array.make n (-1) in
  (* Source-major staging (shard-local writes: source i owns
     [i*sstride .. i*sstride + block - 1]) and, on the general path
     only, its slot-major transpose (slot b of the block owns
     [b*rstride .. b*rstride + n - 1]). Both strides are padded past
     the logical row length: block and n are routinely powers of two,
     and an exact power-of-two byte stride makes every transpose-tile
     row alias the same cache sets (the 8 KB-stride pathology),
     turning the tiled transpose into pure conflict misses. One line
     of slack breaks the aliasing; the pad cells are never read. *)
  let sstride = block + 8 in
  let rstride = n + 8 in
  let wbuf = Array.make (sstride * n) 0.0 in
  let cbuf = Array.make (sstride * n) 0 in
  let wrow = if source_major then [||] else Array.make (block * rstride) 0.0 in
  let crow = if source_major then [||] else Array.make (block * rstride) 0 in
  (* Slots each source filled in the current block; written by the
     owning shard only. *)
  let filled_by = Array.make n 0 in
  (* A source whose block pull comes up short (the block analogue of
     raising [Source.End_of_stream]) departs cleanly: it contributes
     zero work in class 0 from that slot on. *)
  let settle_source t0 bs i =
    let off = i * sstride in
    if departed.(i) then begin
      Array.fill wbuf off bs 0.0;
      Array.fill cbuf off bs 0
    end
    else
      let f = filled_by.(i) in
      if f < bs then begin
        departed.(i) <- true;
        departed_at.(i) <- t0 + f;
        Array.fill wbuf (off + f) (bs - f) 0.0;
        Array.fill cbuf (off + f) (bs - f) 0
      end
  in
  let shard_lo = Array.init (nshards + 1) (fun s -> s * n / nshards) in
  let cur_t0 = ref 0 in
  let cur_bs = ref 0 in
  (* General path: a shard whose staged slots all carried class 0 —
     the overwhelmingly common single-class case — skips the class
     transpose, since its crow columns need only hold 0.
     [crow_zeroed] is the invariant that a shard's crow columns
     currently hold 0, letting consecutive all-class-0 blocks skip
     even the zero-fill. *)
  let crow_zeroed = Array.make nshards false in
  (* One task per shard per block: pull every owned source and, on the
     general path, restage the shard's columns slot-major. The
     transpose is tiled so each cache line of the source-major stage
     is read once and each line of the slot-major stage written once,
     instead of one miss per (source, slot). Neighbor shards share row
     cache lines only at their column boundary — bounded false
     sharing, no overlapping writes. *)
  let tile = 32 in
  let shard_task s =
    let t0 = !cur_t0 and bs = !cur_bs in
    let lo = shard_lo.(s) and hi = shard_lo.(s + 1) in
    let all0 = ref true in
    (* Fill, class-scan, and transpose one [tile]-wide group of
       sources at a time so the scan and the transpose read the
       freshly staged segments while they are still cache-hot,
       instead of sweeping the whole multi-megabyte stage cold three
       times per block. One [Source.next_blocks] call pulls the tile,
       advancing runs of same-model exact sources side by side. *)
    let i0 = ref lo in
    while !i0 < hi do
      let i1 = Stdlib.min hi (!i0 + tile) in
      Source.next_blocks sources ~lo:!i0 ~hi:i1 ~skip:departed wbuf cbuf ~stride:sstride ~len:bs
        ~filled:filled_by;
      for i = !i0 to i1 - 1 do
        settle_source t0 bs i
      done;
      if not source_major then begin
        for i = !i0 to i1 - 1 do
          let off = i * sstride in
          let z = ref true in
          for b = 0 to bs - 1 do
            if Array.unsafe_get cbuf (off + b) <> 0 then z := false
          done;
          if not !z then all0 := false
        done;
        let b0 = ref 0 in
        while !b0 < bs do
          let b1 = Stdlib.min bs (!b0 + tile) in
          for b = !b0 to b1 - 1 do
            let row = b * rstride in
            for i = !i0 to i1 - 1 do
              Array.unsafe_set wrow (row + i) (Array.unsafe_get wbuf ((i * sstride) + b))
            done
          done;
          b0 := b1
        done
      end;
      i0 := i1
    done;
    if source_major then ()
    else if !all0 then begin
      if not crow_zeroed.(s) then begin
        for b = 0 to block - 1 do
          Array.fill crow ((b * rstride) + lo) (hi - lo) 0
        done;
        crow_zeroed.(s) <- true
      end
    end
    else begin
      (* Rare multi-class block: restage the class row for the whole
         shard range. Cold re-read of cbuf, but only workloads whose
         classes actually vary pay for it. *)
      crow_zeroed.(s) <- false;
      let i0 = ref lo in
      while !i0 < hi do
        let i1 = Stdlib.min hi (!i0 + tile) in
        let b0 = ref 0 in
        while !b0 < bs do
          let b1 = Stdlib.min bs (!b0 + tile) in
          for b = !b0 to b1 - 1 do
            let row = b * rstride in
            for i = !i0 to i1 - 1 do
              Array.unsafe_set crow (row + i) (Array.unsafe_get cbuf ((i * sstride) + b))
            done
          done;
          b0 := b1
        done;
        i0 := i1
      done
    end
  in
  let barrier = Ss_parallel.Barrier.make ?pool ~tasks:nshards shard_task in
  let base = ref 0 in
  let filled = ref 0 in
  let works = Array.make n 0.0 in
  let classes = Array.make n 0 in
  let class_sums = Array.make max_classes 0.0 in
  let class_scale = Array.make max_classes 1.0 in
  let class_adm = Array.make max_classes 0.0 in
  let offered = Array.make n 0.0 in
  let admitted = Array.make n 0.0 in
  let lost = Array.make n 0.0 in
  let peak = Array.make n 0.0 in
  let corrupt = Array.make n 0 in
  let throttled = Array.make n 0.0 in
  let discarded = Array.make n 0.0 in
  let queue_stats = Online.create () in
  (* Quantile estimators as (probability, estimator) arrays: the hot
     loop indexes them with plain [for] loops instead of [List.iter]
     closures (a closure capture per slot). *)
  let q_quant = Array.of_list (List.map (fun p -> (p, Online.P2.create ~p)) quantiles) in
  let d_quant = Array.of_list (List.map (fun p -> (p, Online.P2.create ~p)) quantiles) in
  let nq = Array.length q_quant in
  (* The values the estimators take each slot — queue, queue delay,
     class delay — are written here and read in place
     ([Online.add_at], [Online.P2.add_at]): a float passed across the
     module boundary would be boxed at every call. *)
  let obs = Array.make 3 0.0 in
  (* Per-class virtual-delay tracking: class backlogs follow the same
     arrivals-then-service recursion as [q], kept strictly apart from
     the Lindley state so the queue floats never depend on it. *)
  let class_backlog = Array.make max_classes 0.0 in
  let class_quant : (float * Online.P2.t) array option array = Array.make max_classes None in
  let top_class = ref (-1) in
  let thr = Array.of_list thresholds in
  let thr_hits = Array.make (Array.length thr) 0 in
  (* Trajectory state is written only when a sink is present, so runs
     without one execute the identical float sequence. [traj_cls]
     holds the per-(class, source) backlog cells. *)
  let traj_served = if has_traj then Array.make n 0.0 else [||] in
  let traj_delay = if has_traj then Array.make n 0.0 else [||] in
  let traj_cls = if has_traj then Array.make (max_classes * n) 0.0 else [||] in
  (* Per-class virtual delay of the slot, read by each source's
     trajectory delay. *)
  let traj_class_delay = if has_traj then Array.make max_classes 0.0 else [||] in
  let unbounded = buffer = infinity in
  let st = { q = 0.0; served = 0.0; room = 0.0; rem = 0.0; prefix = 0.0 } in
  (* Source-major scratch, per slot of the block: the sanitized total
     work [tot], and once a class other than 0 appears ([multi]), the
     slot's top class [ctop] and the per-(class, slot) work sums
     [csum] (class c, slot b at [c * block + b]). [fsc] holds each
     (class, slot)'s admission fraction for pass C. [csum] and [fsc]
     grow by whole class rows, to the classes seen. [bad_slot] is the
     first slot of the block, in slot-major order, whose staged class
     is outside [0, max_classes), and [bad_src] its lowest such
     source. [whole] records that every admitted slot of the block so
     far admitted all its work. *)
  let tot = if source_major then Array.make block 0.0 else [||] in
  let ctop = if source_major then Array.make block 0 else [||] in
  let csum = ref [||] in
  let fsc = ref (if source_major && not unbounded then Array.make block 0.0 else [||]) in
  let crows = ref 0 in
  let multi = ref false in
  let bad_slot = ref max_int in
  let bad_src = ref 0 in
  let whole = ref true in
  (* Makes class rows [0, r) of [csum] hold zeros for the block's [bs]
     slots, keeping the rows already summed, and [fsc] as many rows. *)
  let class_rows r bs =
    if r * block > Array.length !csum then begin
      let grown = Array.make (r * block) 0.0 in
      Array.blit !csum 0 grown 0 (!crows * block);
      csum := grown;
      if not unbounded then fsc := Array.make (r * block) 0.0
    end;
    for c = !crows to r - 1 do
      Array.fill !csum (c * block) bs 0.0
    done;
    if r > !crows then crows := r
  in
  (* Pass A over the staged block. Two sources per sweep, [(s +. w_i)
     +. w_(i+1)], keep every slot total in source order. [w >= 0.0 &&
     w < infinity] is false exactly for NaN, negative and +inf work,
     the corrupt values, and keeps -0.0; the staged value itself is
     left as it is. A segment carrying a class other than 0 restarts
     the block in class-summing mode. *)
  let sum_block bs =
    Array.fill tot 0 bs 0.0;
    multi := false;
    bad_slot := max_int;
    whole := true;
    let i = ref 0 in
    while (not !multi) && !i < n do
      let o1 = !i * sstride in
      let z = ref 0 in
      if !i + 1 < n then begin
        let o2 = o1 + sstride in
        for b = 0 to bs - 1 do
          let w1 = Array.unsafe_get wbuf (o1 + b) in
          let w2 = Array.unsafe_get wbuf (o2 + b) in
          let w1 = if w1 >= 0.0 && w1 < infinity then w1 else 0.0 in
          let w2 = if w2 >= 0.0 && w2 < infinity then w2 else 0.0 in
          Array.unsafe_set tot b (Array.unsafe_get tot b +. w1 +. w2);
          z := !z lor Array.unsafe_get cbuf (o1 + b) lor Array.unsafe_get cbuf (o2 + b)
        done;
        i := !i + 2
      end
      else begin
        for b = 0 to bs - 1 do
          let w = Array.unsafe_get wbuf (o1 + b) in
          let w = if w >= 0.0 && w < infinity then w else 0.0 in
          Array.unsafe_set tot b (Array.unsafe_get tot b +. w);
          z := !z lor Array.unsafe_get cbuf (o1 + b)
        done;
        i := !i + 1
      end;
      if !z <> 0 then multi := true
    done;
    if !multi then begin
      Array.fill tot 0 bs 0.0;
      Array.fill ctop 0 bs 0;
      crows := 0;
      class_rows 1 bs;
      for i = 0 to n - 1 do
        let off = i * sstride in
        let top = ref 0 in
        for b = 0 to bs - 1 do
          let c = Array.unsafe_get cbuf (off + b) in
          if c < 0 || c >= max_classes then begin
            if b < !bad_slot then begin
              bad_slot := b;
              bad_src := i
            end
          end
          else if c > !top then top := c
        done;
        if !top >= !crows then class_rows (!top + 1) bs;
        let cs = !csum in
        for b = 0 to bs - 1 do
          let w = Array.unsafe_get wbuf (off + b) in
          let w = if w >= 0.0 && w < infinity then w else 0.0 in
          Array.unsafe_set tot b (Array.unsafe_get tot b +. w);
          let c = Array.unsafe_get cbuf (off + b) in
          if c >= 0 && c < max_classes then begin
            let k = (c * block) + b in
            Array.unsafe_set cs k (Array.unsafe_get cs k +. w);
            if c > Array.unsafe_get ctop b then Array.unsafe_set ctop b c
          end
        done
      done
    end
  in
  (* Pass C over the block's first [lim] slots, the ones pass B
     admitted. *)
  let account lim =
    let fs = !fsc and mc = !multi and all = unbounded || !whole in
    for i = 0 to n - 1 do
      let off = i * sstride in
      let o = ref (Array.unsafe_get offered i) in
      let a = ref (Array.unsafe_get admitted i) in
      let l = ref (Array.unsafe_get lost i) in
      let pk = ref (Array.unsafe_get peak i) in
      let bad = ref 0 in
      for b = 0 to lim - 1 do
        let w = Array.unsafe_get wbuf (off + b) in
        let w =
          if w >= 0.0 && w < infinity then w
          else begin
            incr bad;
            0.0
          end
        in
        o := !o +. w;
        if w > !pk then pk := w;
        if all then a := !a +. w
        else begin
          let c = if mc then Array.unsafe_get cbuf (off + b) else 0 in
          let f = Array.unsafe_get fs ((c * block) + b) in
          if f = 1.0 then a := !a +. w
          else begin
            let x = w *. f in
            a := !a +. x;
            l := !l +. (w -. x)
          end
        end
      done;
      Array.unsafe_set offered i !o;
      Array.unsafe_set admitted i !a;
      Array.unsafe_set lost i !l;
      Array.unsafe_set peak i !pk;
      Array.unsafe_set corrupt i (Array.unsafe_get corrupt i + !bad)
    done
  in
  let es =
    {
      es_sources = sources;
      es_police = police;
      es_slots = slots;
      es_service = service;
      es_buffer = buffer;
      es_quantiles = quantiles;
      es_departed = departed;
      es_departed_at = departed_at;
      es_offered = offered;
      es_admitted = admitted;
      es_lost = lost;
      es_peak = peak;
      es_corrupt = corrupt;
      es_throttled = throttled;
      es_discarded = discarded;
      es_st = st;
      es_queue_stats = queue_stats;
      es_q_quant = q_quant;
      es_d_quant = d_quant;
      es_class_backlog = class_backlog;
      es_class_quant = class_quant;
      es_top_class = top_class;
      es_thr_hits = thr_hits;
      es_traj_cls = traj_cls;
    }
  in
  let t0 = match resume with None -> 0 | Some r -> restore_engine es r in
  base := t0;
  let last_ck = ref t0 in
  (* The slot the run stopped at, -1 while it runs on. *)
  let first_passage = ref (-1) in
  let next = ref t0 in
  while !next < slots do
    let t = !next in
    next := t + 1;
    if t >= !base + !filled then begin
      if source_major then account !filled;
      (* All shards idle, every source exactly at slot [t] — the only
         points where a snapshot captures a consistent whole-run
         state. The snapshot is shard-count-independent — a run
         checkpointed at 4 shards resumes bitwise at 1, and vice
         versa. *)
      (match checkpoint with
      | Some ck when t - !last_ck >= ck.every ->
        last_ck := t;
        ck.save ~slot:t (save_engine es ~t)
      | _ -> ());
      base := t;
      let bs = Stdlib.min block (slots - t) in
      filled := bs;
      cur_t0 := t;
      cur_bs := bs;
      Ss_parallel.Barrier.run barrier;
      if source_major then sum_block bs
    end;
    (* The slot's admitted work, summed in source order. *)
    let adm = ref 0.0 in
    if source_major then begin
      (* Pass B: slot [b] of the staged block. *)
      let b = t - !base in
      if b = !bad_slot then begin
        let i = !bad_src in
        invalid_arg
          (Printf.sprintf "Mux.run: source %s yielded class %d" sources.(i).Source.name
             cbuf.((i * sstride) + b))
      end;
      let top = if !multi then ctop.(b) else 0 in
      if top > !top_class then begin
        for c = !top_class + 1 to top do
          class_quant.(c) <-
            Some (Array.of_list (List.map (fun p -> (p, Online.P2.create ~p)) quantiles))
        done;
        top_class := top
      end;
      if unbounded then begin
        adm := tot.(b);
        if !multi then
          for c = 0 to top do
            class_adm.(c) <- !csum.((c * block) + b)
          done
        else class_adm.(0) <- tot.(b)
      end
      else begin
        (* Strict-priority admission, as on the general path below,
           keeping each class's fraction for pass C. *)
        let fs = !fsc in
        let fits = ref true in
        st.room <- fmax 0.0 (buffer +. service -. st.q);
        for c = 0 to top do
          let s = if !multi then !csum.((c * block) + b) else tot.(b) in
          let f = if s <= 0.0 then 0.0 else if s <= st.room then 1.0 else st.room /. s in
          fs.((c * block) + b) <- f;
          st.room <- fmax 0.0 (st.room -. (s *. f));
          class_adm.(c) <- s *. f;
          if s > 0.0 && f <> 1.0 then fits := false
        done;
        if !fits then adm := tot.(b)
        else begin
          (* Some class was cut or refused: gather the slot's column. *)
          whole := false;
          for i = 0 to n - 1 do
            let off = (i * sstride) + b in
            let w = Array.unsafe_get wbuf off in
            let w = if w >= 0.0 && w < infinity then w else 0.0 in
            let c = if !multi then Array.unsafe_get cbuf off else 0 in
            adm := !adm +. (w *. fs.((c * block) + b))
          done
        end
      end
    end
    else begin
    let row = (t - !base) * rstride in
    let max_class = ref 0 in
    (* Accounting pass over slot t's contiguous row. Under an unbounded
       buffer the admission accumulation is fused in — each
       accumulator still sees its additions in source order. *)
    for i = 0 to n - 1 do
      let w0 = Array.unsafe_get wrow (row + i) in
      let c = Array.unsafe_get crow (row + i) in
      (* Graceful degradation: corrupt work (NaN, negative, infinite)
         is zeroed, counted against the source, and reported to the
         policer instead of poisoning the Lindley recursion. [w0 <> w0]
         is the (allocation-free) NaN test. *)
      let was_corrupt = w0 <> w0 || w0 < 0.0 || w0 = infinity in
      let w =
        if was_corrupt then begin
          corrupt.(i) <- corrupt.(i) + 1;
          (match police with Some p -> Police.note_corrupt p ~slot:t i | None -> ());
          0.0
        end
        else w0
      in
      if c < 0 || c >= max_classes then
        invalid_arg (Printf.sprintf "Mux.run: source %s yielded class %d" sources.(i).Source.name c);
      (* Each branch writes its (work, class) outcome straight into
         [works]/[classes] — a cross-branch tuple here would allocate
         every slot. *)
      (match police with
      | None ->
        works.(i) <- w;
        classes.(i) <- c
      | Some p ->
        if Police.evicted p i then begin
          discarded.(i) <- discarded.(i) +. w;
          works.(i) <- 0.0;
          classes.(i) <- c
        end
        else begin
          (* The policer judges the work the source tried to send;
             the buffer sees the throttled remainder. Corrupt slots
             went to [note_corrupt] instead — a NaN would poison the
             moment estimates. The policer reads the work from the
             row, so the float is not boxed for the call. *)
          if not was_corrupt then Police.observe_at p ~slot:t i wrow (row + i);
          let cap = Police.cap p i in
          if w > cap then begin
            throttled.(i) <- throttled.(i) +. (w -. cap);
            works.(i) <- cap
          end
          else works.(i) <- w;
          let d = Police.demotion p i in
          classes.(i) <- (if d = 0 then c else Stdlib.min (max_classes - 1) (c + d))
        end);
      let w = works.(i) in
      let c = classes.(i) in
      offered.(i) <- offered.(i) +. w;
      if w > peak.(i) then peak.(i) <- w;
      if c > !max_class then max_class := c;
      class_sums.(c) <- class_sums.(c) +. w;
      if unbounded then begin
        adm := !adm +. w;
        admitted.(i) <- admitted.(i) +. w
      end
    done;
    if !max_class > !top_class then begin
      for c = !top_class + 1 to !max_class do
        class_quant.(c) <-
          Some (Array.of_list (List.map (fun p -> (p, Online.P2.create ~p)) quantiles))
      done;
      top_class := !max_class
    end;
    if unbounded then
      for c = 0 to !max_class do
        class_adm.(c) <- class_sums.(c);
        class_sums.(c) <- 0.0
      done
    else begin
      (* Work served during the slot frees space for the slot's own
         arrivals; classes are admitted in strict priority order and
         a class that does not fit shares the remaining room
         proportionally to offered work. *)
      st.room <- fmax 0.0 (buffer +. service -. st.q);
      for c = 0 to !max_class do
        let s = class_sums.(c) in
        let f =
          if s <= 0.0 then 0.0 else if s <= st.room then 1.0 else st.room /. s
        in
        class_scale.(c) <- f;
        st.room <- fmax 0.0 (st.room -. (s *. f));
        class_adm.(c) <- s *. f;
        class_sums.(c) <- 0.0
      done;
      for i = 0 to n - 1 do
        let w = works.(i) in
        let a = w *. class_scale.(classes.(i)) in
        adm := !adm +. a;
        admitted.(i) <- admitted.(i) +. a;
        lost.(i) <- lost.(i) +. (w -. a)
      done
    end
    end;
    if has_traj then
      for i = 0 to n - 1 do
        traj_served.(i) <- 0.0;
        let a = works.(i) *. class_scale.(classes.(i)) in
        let idx = (classes.(i) * n) + i in
        traj_cls.(idx) <- traj_cls.(idx) +. a
      done;
    st.served <- st.served +. fmin service (st.q +. !adm);
    st.q <- fmax 0.0 (st.q +. !adm -. service);
    (* Replay the slot on the class backlogs: arrivals, then strict
       priority service of the slot's capacity; the trajectory splits
       a class's served work over its sources' backlog cells. *)
    st.rem <- service;
    for c = 0 to !top_class do
      let b = class_backlog.(c) +. class_adm.(c) in
      class_adm.(c) <- 0.0;
      let take = fmin st.rem b in
      class_backlog.(c) <- b -. take;
      st.rem <- st.rem -. take;
      if has_traj && take > 0.0 then begin
        let frac = take /. b in
        let base = c * n in
        for i = 0 to n - 1 do
          let v = traj_cls.(base + i) in
          if v > 0.0 then begin
            let s = v *. frac in
            traj_served.(i) <- traj_served.(i) +. s;
            traj_cls.(base + i) <- v -. s
          end
        done
      end
    done;
    st.prefix <- 0.0;
    for c = 0 to !top_class do
      st.prefix <- st.prefix +. class_backlog.(c);
      obs.(2) <- st.prefix /. service;
      if has_traj then traj_class_delay.(c) <- obs.(2);
      match class_quant.(c) with
      | Some qs ->
        for j = 0 to Array.length qs - 1 do
          Online.P2.add_at (snd qs.(j)) obs 2
        done
      | None -> ()
    done;
    (match trajectory with
    | None -> ()
    | Some f ->
      for i = 0 to n - 1 do
        traj_delay.(i) <- traj_class_delay.(classes.(i))
      done;
      f ~slot:t ~served:traj_served ~delays:traj_delay);
    obs.(0) <- st.q;
    obs.(1) <- st.q /. service;
    Online.add_at queue_stats obs 0;
    for j = 0 to nq - 1 do
      Online.P2.add_at (snd q_quant.(j)) obs 0
    done;
    for j = 0 to nq - 1 do
      Online.P2.add_at (snd d_quant.(j)) obs 1
    done;
    for j = 0 to Array.length thr - 1 do
      if st.q > thr.(j) then thr_hits.(j) <- thr_hits.(j) + 1
    done;
    if st.q > stop_level then begin
      first_passage := t;
      next := slots
    end
  done;
  if source_major then
    account (if !first_passage < 0 then !filled else !first_passage - !base + 1);
  let slots = if !first_passage < 0 then slots else !first_passage + 1 in
  let fslots = float_of_int slots in
  let total_offered = Array.fold_left ( +. ) 0.0 offered in
  let total_lost = Array.fold_left ( +. ) 0.0 lost in
  {
    slots;
    service;
    buffer;
    offered_utilization = total_offered /. fslots /. service;
    carried_utilization = st.served /. (service *. fslots);
    loss_fraction = (if total_offered > 0.0 then total_lost /. total_offered else 0.0);
    mean_queue = Online.mean queue_stats;
    max_queue = Online.max queue_stats;
    queue_quantiles =
      Array.to_list (Array.map (fun (p, p2) -> (p, Online.P2.quantile p2)) q_quant);
    delay_quantiles =
      Array.to_list (Array.map (fun (p, p2) -> (p, Online.P2.quantile p2)) d_quant);
    class_delay_quantiles =
      (let acc = ref [] in
       for c = !top_class downto 0 do
         match class_quant.(c) with
         | Some qs when Array.for_all (fun (_, p2) -> Online.P2.count p2 > 0) qs ->
           acc :=
             (c, Array.to_list (Array.map (fun (p, p2) -> (p, Online.P2.quantile p2)) qs))
             :: !acc
         | _ -> ()
       done;
       !acc);
    overflow =
      List.mapi (fun j b -> (b, float_of_int thr_hits.(j) /. fslots)) thresholds;
    per_source =
      Array.init n (fun i ->
          {
            name = sources.(i).Source.name;
            offered = offered.(i);
            admitted = admitted.(i);
            lost = lost.(i);
            loss_fraction = (if offered.(i) > 0.0 then lost.(i) /. offered.(i) else 0.0);
            mean_rate = offered.(i) /. fslots;
            peak_rate = peak.(i);
            corrupt_slots = corrupt.(i);
            throttled = throttled.(i);
            discarded = discarded.(i);
            departed_at =
              (* A stopped run may have staged a departure past its
                 last slot. *)
              (if departed_at.(i) < 0 || departed_at.(i) >= slots then None
               else Some departed_at.(i));
          });
    first_passage = (if !first_passage < 0 then None else Some !first_passage);
  }

(* ------------------------------------------------------------------ *)
(* Report equality                                                     *)
(* ------------------------------------------------------------------ *)

let feq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let pair_list_eq xs ys =
  List.length xs = List.length ys
  && List.for_all2 (fun (a1, b1) (a2, b2) -> feq a1 a2 && feq b1 b2) xs ys

let equal_source_report a b =
  String.equal a.name b.name && feq a.offered b.offered && feq a.admitted b.admitted
  && feq a.lost b.lost
  && feq a.loss_fraction b.loss_fraction
  && feq a.mean_rate b.mean_rate && feq a.peak_rate b.peak_rate
  && a.corrupt_slots = b.corrupt_slots
  && feq a.throttled b.throttled && feq a.discarded b.discarded
  && a.departed_at = b.departed_at

let equal_report a b =
  a.slots = b.slots && feq a.service b.service && feq a.buffer b.buffer
  && feq a.offered_utilization b.offered_utilization
  && feq a.carried_utilization b.carried_utilization
  && feq a.loss_fraction b.loss_fraction
  && feq a.mean_queue b.mean_queue && feq a.max_queue b.max_queue
  && pair_list_eq a.queue_quantiles b.queue_quantiles
  && pair_list_eq a.delay_quantiles b.delay_quantiles
  && List.length a.class_delay_quantiles = List.length b.class_delay_quantiles
  && List.for_all2
       (fun (c1, qs1) (c2, qs2) -> c1 = c2 && pair_list_eq qs1 qs2)
       a.class_delay_quantiles b.class_delay_quantiles
  && pair_list_eq a.overflow b.overflow
  && Array.length a.per_source = Array.length b.per_source
  && Array.for_all2 equal_source_report a.per_source b.per_source
  && a.first_passage = b.first_passage

let pp_report ppf r =
  let pct x = 100.0 *. x in
  Format.fprintf ppf "slots             %d@." r.slots;
  Format.fprintf ppf "service           %.1f work/slot@." r.service;
  (if r.buffer = infinity then Format.fprintf ppf "buffer            unbounded@."
   else Format.fprintf ppf "buffer            %.1f@." r.buffer);
  Format.fprintf ppf "offered load      %.1f%% of service@." (pct r.offered_utilization);
  Format.fprintf ppf "carried load      %.1f%% of service@." (pct r.carried_utilization);
  Format.fprintf ppf "loss fraction     %.4g@." r.loss_fraction;
  Format.fprintf ppf "mean queue        %.1f@." r.mean_queue;
  Format.fprintf ppf "max queue         %.1f@." r.max_queue;
  List.iter
    (fun (p, q) -> Format.fprintf ppf "queue q(%.2f)      %.1f@." p q)
    r.queue_quantiles;
  List.iter
    (fun (p, d) -> Format.fprintf ppf "delay q(%.2f)      %.2f slots@." p d)
    r.delay_quantiles;
  if List.length r.class_delay_quantiles > 1 then
    List.iter
      (fun (c, qs) ->
        List.iter
          (fun (p, d) ->
            Format.fprintf ppf "class %d delay q(%.2f)  %.2f slots@." c p d)
          qs)
      r.class_delay_quantiles;
  if r.overflow <> [] then begin
    Format.fprintf ppf "overflow:@.";
    List.iter
      (fun (b, p) ->
        Format.fprintf ppf "  Pr(Q > %8.0f)  %.5g  %s@." b p
          (if p > 0.0 then Printf.sprintf "(log10 %.3f)" (log10 p) else ""))
      r.overflow
  end;
  Format.fprintf ppf "per source:@.";
  Format.fprintf ppf "  %-12s  %12s  %12s  %10s  %10s@." "name" "offered" "lost"
    "loss-frac" "peak-rate";
  Array.iter
    (fun s ->
      Format.fprintf ppf "  %-12s  %12.4g  %12.4g  %10.4g  %10.4g@." s.name s.offered
        s.lost s.loss_fraction s.peak_rate)
    r.per_source;
  let troubled =
    Array.to_list r.per_source
    |> List.filter (fun s ->
           s.corrupt_slots > 0 || s.throttled > 0.0 || s.discarded > 0.0
           || s.departed_at <> None)
  in
  if troubled <> [] then begin
    Format.fprintf ppf "incidents:@.";
    Format.fprintf ppf "  %-12s  %8s  %12s  %12s  %10s@." "name" "corrupt" "throttled"
      "discarded" "departed";
    List.iter
      (fun s ->
        Format.fprintf ppf "  %-12s  %8d  %12.4g  %12.4g  %10s@." s.name s.corrupt_slots
          s.throttled s.discarded
          (match s.departed_at with None -> "-" | Some t -> string_of_int t))
      troubled
  end
