(* A deliberately naive multiplexer: the test oracle for [Mux.run].

   One slot at a time and one source at a time, in index order: the
   model's definition, with no staging buffer, shard, pool, block or
   fast lane. Its float operations are the engine's, in the engine's
   order, so the two agree bitwise and any difference is an engine
   bug. Arguments are not validated: callers pass what [Mux.run]
   accepts. [observe], which the engine does not have, is called after
   every slot with the slot and its queue. *)

module Mux = Ss_mux.Mux
module Source = Ss_mux.Source
module Police = Ss_mux.Police
module Online = Ss_stats.Online_stats
module P2 = Online.P2

let max_classes = 64

let run ?(buffer = infinity) ?(thresholds = []) ?(quantiles = [ 0.5; 0.9; 0.99 ])
    ?(stop_above = infinity) ?observe ?police ?trajectory ~service ~slots sources =
  let n = Array.length sources in
  let estimators () = List.map (fun p -> (p, P2.create ~p)) quantiles in
  let quantiles_of = List.map (fun (p, e) -> (p, P2.quantile e)) in
  let departed_at = Array.make n None in
  let offered = Array.make n 0.0 and admitted = Array.make n 0.0 in
  let lost = Array.make n 0.0 and peak = Array.make n 0.0 in
  let throttled = Array.make n 0.0 and discarded = Array.make n 0.0 in
  let corrupt = Array.make n 0 in
  let q = ref 0.0 and served = ref 0.0 in
  let queue = Online.create () in
  let queue_est = estimators () and delay_est = estimators () in
  (* Classes 0..top have delay estimators: every class up to the
     highest one seen so far, fed from the slot it first appeared. *)
  let top = ref (-1) in
  let class_est = Array.make max_classes [] in
  let backlog = Array.make max_classes 0.0 in
  (* Residual admitted work per (class, source), for the trajectory. *)
  let cells = Array.make_matrix max_classes n 0.0 in
  let hits = Array.make (List.length thresholds) 0 in
  let slot t =
    (* Arrivals. A source that raised [End_of_stream] has departed and
       sends nothing; corrupt work (NaN, negative, infinite) is zeroed
       and counted; the policer throttles, demotes or discards. *)
    let work = Array.make n 0.0 and cls = Array.make n 0 in
    for i = 0 to n - 1 do
      let w, c =
        if departed_at.(i) <> None then (0.0, 0)
        else
          try Source.next sources.(i)
          with Source.End_of_stream ->
            departed_at.(i) <- Some t;
            (0.0, 0)
      in
      let bad = Float.is_nan w || w < 0.0 || w = infinity in
      let w =
        if bad then begin
          corrupt.(i) <- corrupt.(i) + 1;
          Option.iter (fun p -> Police.note_corrupt p ~slot:t i) police;
          0.0
        end
        else w
      in
      if c < 0 || c >= max_classes then invalid_arg "Mux_oracle.run: class out of range";
      let w, c =
        match police with
        | None -> (w, c)
        | Some p when Police.evicted p i ->
          discarded.(i) <- discarded.(i) +. w;
          (0.0, c)
        | Some p ->
          if not bad then Police.observe p ~slot:t i w;
          let cap = Police.cap p i in
          let w =
            if w > cap then begin
              throttled.(i) <- throttled.(i) +. (w -. cap);
              cap
            end
            else w
          in
          let d = Police.demotion p i in
          (w, if d = 0 then c else min (max_classes - 1) (c + d))
      in
      work.(i) <- w;
      cls.(i) <- c;
      offered.(i) <- offered.(i) +. w;
      if w > peak.(i) then peak.(i) <- w
    done;
    let sums = Array.make max_classes 0.0 in
    Array.iteri (fun i w -> sums.(cls.(i)) <- sums.(cls.(i)) +. w) work;
    let seen = Array.fold_left max 0 cls in
    for c = !top + 1 to seen do
      class_est.(c) <- estimators ()
    done;
    top := max !top seen;
    (* Admission. The room of a slot is [buffer + service - q]: work
       served during the slot frees space for its own arrivals. Classes
       are admitted in priority order; a class that does not fit the
       remaining room admits the fraction that does. *)
    let frac = Array.make max_classes 1.0 in
    if buffer < infinity then begin
      let room = ref (Float.max 0.0 (buffer +. service -. !q)) in
      for c = 0 to !top do
        let s = sums.(c) in
        frac.(c) <- (if s <= 0.0 then 0.0 else if s <= !room then 1.0 else !room /. s);
        room := Float.max 0.0 (!room -. (s *. frac.(c)))
      done
    end;
    let adm = ref 0.0 in
    for i = 0 to n - 1 do
      let a = work.(i) *. frac.(cls.(i)) in
      adm := !adm +. a;
      admitted.(i) <- admitted.(i) +. a;
      lost.(i) <- lost.(i) +. (work.(i) -. a);
      cells.(cls.(i)).(i) <- cells.(cls.(i)).(i) +. a
    done;
    (* Lindley step. *)
    served := !served +. Float.min service (!q +. !adm);
    q := Float.max 0.0 (!q +. !adm -. service);
    (* Strict-priority service of the class backlogs; within a class,
       each source is served in proportion to its backlog cell. *)
    let rem = ref service and slot_served = Array.make n 0.0 in
    for c = 0 to !top do
      let b = backlog.(c) +. (sums.(c) *. frac.(c)) in
      let take = Float.min !rem b in
      backlog.(c) <- b -. take;
      rem := !rem -. take;
      if take > 0.0 then begin
        let share = take /. b in
        Array.iteri
          (fun i v ->
            if v > 0.0 then begin
              let s = v *. share in
              slot_served.(i) <- slot_served.(i) +. s;
              cells.(c).(i) <- v -. s
            end)
          cells.(c)
      end
    done;
    (* A class-c arrival waits behind the backlog of classes 0..c. *)
    let ahead = Array.make max_classes 0.0 and acc = ref 0.0 in
    for c = 0 to !top do
      acc := !acc +. backlog.(c);
      ahead.(c) <- !acc;
      List.iter (fun (_, e) -> P2.add e (!acc /. service)) class_est.(c)
    done;
    Option.iter
      (fun f ->
        f ~slot:t ~served:slot_served ~delays:(Array.map (fun c -> ahead.(c) /. service) cls))
      trajectory;
    Online.add queue !q;
    List.iter (fun (_, e) -> P2.add e !q) queue_est;
    List.iter (fun (_, e) -> P2.add e (!q /. service)) delay_est;
    List.iteri (fun j b -> if !q > b then hits.(j) <- hits.(j) + 1) thresholds;
    Option.iter (fun f -> f t !q) observe
  in
  (* The run stops after the first slot whose queue exceeds
     [stop_above] and covers slots 0..that slot. *)
  let rec go t =
    if t = slots then None
    else begin
      slot t;
      if !q > stop_above then Some t else go (t + 1)
    end
  in
  let first_passage = go 0 in
  let slots = match first_passage with Some t -> t + 1 | None -> slots in
  let fslots = float_of_int slots in
  let sum = Array.fold_left ( +. ) 0.0 in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  {
    Mux.slots;
    service;
    buffer;
    offered_utilization = sum offered /. fslots /. service;
    carried_utilization = !served /. (service *. fslots);
    loss_fraction = ratio (sum lost) (sum offered);
    mean_queue = Online.mean queue;
    max_queue = Online.max queue;
    queue_quantiles = quantiles_of queue_est;
    delay_quantiles = quantiles_of delay_est;
    class_delay_quantiles = List.init (!top + 1) (fun c -> (c, quantiles_of class_est.(c)));
    overflow = List.mapi (fun j b -> (b, float_of_int hits.(j) /. fslots)) thresholds;
    per_source =
      Array.init n (fun i ->
          {
            Mux.name = sources.(i).Source.name;
            offered = offered.(i);
            admitted = admitted.(i);
            lost = lost.(i);
            loss_fraction = ratio lost.(i) offered.(i);
            mean_rate = offered.(i) /. fslots;
            peak_rate = peak.(i);
            corrupt_slots = corrupt.(i);
            throttled = throttled.(i);
            discarded = discarded.(i);
            departed_at = departed_at.(i);
          });
    first_passage;
  }
