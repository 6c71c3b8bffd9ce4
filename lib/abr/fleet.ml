module Rng = Ss_stats.Rng
module Fanout = Ss_parallel.Fanout

type summary = {
  mean : float;
  std : float;
  min : float;
  max : float;
  q10 : float;
  q50 : float;
  q90 : float;
}

type report = {
  clients : int;
  policy : string;
  chunks : int;
  qoe : summary;
  rebuffer_ratio : summary;
  bitrate_mbps : summary;
  startup_s : summary;
  rebuffer_s_total : float;
  zero_rebuffer_fraction : float;
  mean_level : float;
  mean_switches : float;
}

(* Exact (type-7) quantile of a sorted copy — fleets are small enough
   that sorting per metric is free next to the simulation itself. *)
let quantile_sorted a p =
  let n = Array.length a in
  if n = 1 then a.(0)
  else begin
    let h = p *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor h) in
    let hi = if lo + 1 > n - 1 then n - 1 else lo + 1 in
    let w = h -. float_of_int lo in
    if w <= 0.0 || hi = lo then a.(lo)
    else ((1.0 -. w) *. a.(lo)) +. (w *. a.(hi))
  end

let summarize values =
  let n = Array.length values in
  if n = 0 then invalid_arg "Fleet.summarize: empty";
  let nf = float_of_int n in
  let mean = Array.fold_left ( +. ) 0.0 values /. nf in
  let var =
    Array.fold_left (fun acc v -> acc +. ((v -. mean) *. (v -. mean))) 0.0 values
    /. nf
  in
  let sorted = Array.copy values in
  Array.sort compare sorted;
  {
    mean;
    std = sqrt var;
    min = sorted.(0);
    max = sorted.(n - 1);
    q10 = quantile_sorted sorted 0.1;
    q50 = quantile_sorted sorted 0.5;
    q90 = quantile_sorted sorted 0.9;
  }

module Ck = Ss_checkpoint

type checkpoint = {
  every : int;  (* clients between snapshots *)
  save : clients_done:int -> (Ck.W.t -> unit) -> unit;
}

let save_prefix ~policy_name ~clients ~clients_done results w =
  Ck.W.tag w "abr-fleet";
  Ck.W.string w policy_name;
  Ck.W.int w clients;
  Ck.W.int w clients_done;
  for j = 0 to clients_done - 1 do
    match results.(j) with
    | Some res -> Client.save_result res w
    | None -> assert false
  done

let restore_prefix ~policy_name ~clients results r =
  Ck.R.tag r "abr-fleet";
  let fail fmt = Printf.ksprintf (fun s -> raise (Ck.Corrupt ("fleet: " ^ s))) fmt in
  let saved_policy = Ck.R.string r in
  if saved_policy <> policy_name then
    fail "checkpoint ran policy %s, this run uses %s" saved_policy policy_name;
  let saved_clients = Ck.R.int r in
  if saved_clients <> clients then
    fail "checkpoint has %d clients, this run has %d" saved_clients clients;
  let clients_done = Ck.R.int r in
  if clients_done < 0 || clients_done > clients then
    fail "finished-client count %d outside [0, %d]" clients_done clients;
  for j = 0 to clients_done - 1 do
    results.(j) <- Some (Client.read_result r)
  done;
  clients_done

let run ?pool ~rng ~clients ~policy ~ladder ~trajectory ?(config = Client.default)
    ?checkpoint ?resume () =
  if clients <= 0 then invalid_arg "Fleet.run: clients <= 0";
  (match checkpoint with
  | Some ck when ck.every < 1 -> invalid_arg "Fleet.run: checkpoint interval < 1"
  | _ -> ());
  let nsrc = trajectory.Trajectory.sources in
  if trajectory.Trajectory.filled < trajectory.Trajectory.slots then
    invalid_arg "Fleet.run: trajectory not fully filled";
  (* Each row is checked once here, on the caller, and every client of
     that source (on any domain) shares its link: a bad row is refused
     before any client runs or a resume restores its prefix. *)
  let links =
    Array.init nsrc (fun i ->
        try
          Client.link ~bandwidth:(Trajectory.bandwidth trajectory i)
            ~delays:(Trajectory.delay trajectory i) ~slot_s:trajectory.Trajectory.slot_s ()
        with Invalid_argument msg ->
          invalid_arg (Printf.sprintf "Fleet.run: source %d: %s" i msg))
  in
  let run_client sub j =
    let start = Rng.int_range sub 0 (trajectory.Trajectory.slots - 1) in
    Client.run ~config ~policy ~ladder ~link:links.(j mod nsrc) ~start ()
  in
  let results =
    match (checkpoint, resume) with
    | None, None -> Fanout.map ?pool ~rng ~n:clients run_client
    | _ ->
      (* Checkpointing lane: {!Fanout.map} is [Rng.split_n] plus an
         indexed map, so this sequential loop over the same splits is
         bit-identical to the pooled fan-out — and a resumed run only
         replays the splits, never the finished clients. Snapshot
         granularity is one whole client (each client is
         self-contained); the saved prefix is the completed results in
         client order. *)
      let subs = Rng.split_n rng clients in
      let out : Client.result option array = Array.make clients None in
      let start_j =
        match resume with
        | None -> 0
        | Some r -> restore_prefix ~policy_name:policy.Policy.name ~clients out r
      in
      let last = ref start_j in
      for j = start_j to clients - 1 do
        out.(j) <- Some (run_client subs.(j) j);
        match checkpoint with
        | Some ck when j + 1 - !last >= ck.every && j + 1 < clients ->
          last := j + 1;
          ck.save ~clients_done:(j + 1)
            (save_prefix ~policy_name:policy.Policy.name ~clients ~clients_done:(j + 1)
               out)
        | _ -> ()
      done;
      Array.map
        (function Some res -> res | None -> assert false)
        out
  in
  let metric f = Array.map f results in
  let nf = float_of_int clients in
  let report =
    {
      clients;
      policy = policy.Policy.name;
      chunks = config.Client.chunks;
      qoe = summarize (metric (fun r -> r.Client.qoe));
      rebuffer_ratio = summarize (metric (fun r -> r.Client.rebuffer_ratio));
      bitrate_mbps = summarize (metric (fun r -> r.Client.mean_bitrate_mbps));
      startup_s = summarize (metric (fun r -> r.Client.startup_s));
      rebuffer_s_total =
        Array.fold_left (fun acc r -> acc +. r.Client.rebuffer_s) 0.0 results;
      zero_rebuffer_fraction =
        float_of_int
          (Array.fold_left
             (fun acc r -> if r.Client.rebuffer_events = 0 then acc + 1 else acc)
             0 results)
        /. nf;
      mean_level =
        Array.fold_left (fun acc r -> acc +. r.Client.mean_level) 0.0 results
        /. nf;
      mean_switches =
        Array.fold_left
          (fun acc r -> acc +. float_of_int r.Client.switches)
          0.0 results
        /. nf;
    }
  in
  (report, results)

let pp_summary ppf s =
  Format.fprintf ppf "mean %.4g  sd %.4g  p10 %.4g  p50 %.4g  p90 %.4g" s.mean
    s.std s.q10 s.q50 s.q90

let pp_report ppf r =
  Format.fprintf ppf "fleet: %d clients, policy %s, %d chunks each@." r.clients
    r.policy r.chunks;
  Format.fprintf ppf "  qoe            %a@." pp_summary r.qoe;
  Format.fprintf ppf "  bitrate (Mbps) %a@." pp_summary r.bitrate_mbps;
  Format.fprintf ppf "  rebuffer ratio %a@." pp_summary r.rebuffer_ratio;
  Format.fprintf ppf "  startup (s)    %a@." pp_summary r.startup_s;
  Format.fprintf ppf
    "  total stall %.2f s  zero-stall clients %.1f%%  mean level %.2f  mean switches %.1f@."
    r.rebuffer_s_total
    (100.0 *. r.zero_rebuffer_fraction)
    r.mean_level r.mean_switches
