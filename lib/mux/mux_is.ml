module Rng = Ss_stats.Rng
module Mc = Ss_queueing.Mc
module Model = Ss_core.Model
module Twist = Ss_fastsim.Twist
module Likelihood = Ss_fastsim.Likelihood
module Valley = Ss_fastsim.Valley

type config = {
  model : Model.t;
  sources : int;
  order : int;
  service : float;
  buffer : float;
  slots : int;
  twist : float;
  profile : Twist.t;
  scales : float array;
  plans : Likelihood.plan array;
}

let scaled_profile profile scale =
  if scale = 1.0 then profile
  else
    match Twist.constant_value profile with
    | Some m -> Twist.constant (scale *. m)
    | None -> Twist.of_fun (fun k -> scale *. Twist.shift profile k)

let make_config ~model ~sources ?(order = 256) ?(backend = `Hosking) ~service ~buffer ~slots
    ~twist ?profile ?scales () =
  (match (backend : Source.backend) with
  | `Hosking -> ()
  | `Davies_harte ->
    (* The likelihood ratio is accumulated from the per-step Hosking
       innovations; a materialized Davies-Harte path never produces
       them, so importance sampling cannot run on it. *)
    invalid_arg
      "Mux_is.make_config: backend `Davies_harte cannot drive importance sampling (the \
       streaming likelihood needs per-step Hosking innovations); use the default `Hosking \
       backend");
  if sources <= 0 then invalid_arg "Mux_is.make_config: sources <= 0";
  (* NaN passes every unguarded bound test: a NaN buffer is never
     crossed and a NaN twist zeroes every slot as corrupt, so both
     would estimate p = 0 without an error. *)
  if not (Float.is_finite service && service > 0.0) then
    invalid_arg "Mux_is.make_config: service must be finite and > 0";
  if not (Float.is_finite buffer && buffer >= 0.0) then
    invalid_arg "Mux_is.make_config: buffer must be finite and >= 0";
  if not (Float.is_finite twist) then invalid_arg "Mux_is.make_config: twist must be finite";
  if slots <= 0 then invalid_arg "Mux_is.make_config: slots <= 0";
  let profile = match profile with Some p -> p | None -> Twist.constant twist in
  let scales =
    match scales with
    | None -> Array.make sources 1.0
    | Some s ->
      if Array.length s <> sources then
        invalid_arg "Mux_is.make_config: scales length <> sources";
      Array.iter
        (fun v ->
          if not (Float.is_finite v && v >= 0.0) then
            invalid_arg "Mux_is.make_config: scale must be finite and >= 0")
        s;
      Array.copy s
  in
  let table = Source.table_for ~acf:(Model.background_acf model) ~order in
  (* One likelihood plan per distinct scale; identical scales share. *)
  let plan_cache = Hashtbl.create 4 in
  let plans =
    Array.map
      (fun s ->
        match Hashtbl.find_opt plan_cache s with
        | Some p -> p
        | None ->
          let p = Likelihood.plan ~table ~profile:(scaled_profile profile s) in
          Hashtbl.add plan_cache s p;
          p)
      scales
  in
  { model; sources; order; service; buffer; slots; twist; profile; scales; plans }

type replication = {
  hit : bool;
  log_weight : float;
  stop_slot : int;
}

(* One replication's reusable state: the [n] twisted sources with
   their rewinds, their likelihood streams, and per source the running
   log ratio after each slot, so the weight at the stopping slot
   survives the slots staged past it. *)
type workspace = {
  ws_cfg : config;
  srcs : Source.t array;
  rewinds : (Rng.t -> unit) array;
  liks : Likelihood.stream array;
  log_ratios : float array array;
}

let make_workspace cfg =
  let liks = Array.map Likelihood.stream_of_plan cfg.plans in
  let log_ratios = Array.map (fun _ -> Array.make cfg.slots 0.0) cfg.plans in
  let built =
    Array.mapi
      (fun i plan ->
        let lik = liks.(i) and lr = log_ratios.(i) in
        (* The generator is overwritten by every rewind. *)
        Source.of_model_twisted_reusable
          ~name:(Printf.sprintf "is%d" i)
          ~order:cfg.order
          ~shift:(Twist.shift (Likelihood.plan_profile plan))
          ~probe:(fun ~k ~innovation ->
            Likelihood.stream_step lik ~k ~innovation;
            lr.(k) <- Likelihood.stream_log_ratio lik)
          cfg.model (Rng.create ~seed:0))
      cfg.plans
  in
  { ws_cfg = cfg; srcs = Array.map fst built; rewinds = Array.map snd built; liks; log_ratios }

(* One workspace per domain, for the last config it served: a fresh
   set of sources per replication would put every source's O(order)
   ring on the major heap. *)
let workspace_key : workspace option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let workspace cfg =
  let cell = Domain.DLS.get workspace_key in
  match !cell with
  | Some ws when ws.ws_cfg == cfg -> ws
  | _ ->
    let ws = make_workspace cfg in
    cell := Some ws;
    ws

let replicate cfg rng =
  let ws = workspace cfg in
  (* Substreams are split in source-index order on the replication's
     own substream, so the replication is a pure function of [rng]
     regardless of how replications are distributed over domains. *)
  Array.iteri
    (fun i rewind ->
      rewind (Rng.split rng);
      Likelihood.stream_reset ws.liks.(i))
    ws.rewinds;
  let r =
    Mux.run ~quantiles:[] ~stop_above:cfg.buffer ~service:cfg.service ~slots:cfg.slots ws.srcs
  in
  match r.Mux.first_passage with
  | None -> { hit = false; log_weight = neg_infinity; stop_slot = cfg.slots }
  | Some t ->
    (* Likelihood ratio of the joint (independent-sources) path at the
       stopping time: the product of per-source ratios, each cut off
       at the innovations drawn up to slot [t]. *)
    let lw = Array.fold_left (fun acc lr -> acc +. lr.(t)) 0.0 ws.log_ratios in
    { hit = true; log_weight = lw; stop_slot = t + 1 }

let estimate ?pool cfg ~replications rng =
  if replications <= 0 then invalid_arg "Mux_is.estimate: replications <= 0";
  let samples =
    Ss_parallel.Fanout.map ?pool ~rng ~n:replications (fun sub _ ->
        (replicate cfg sub).log_weight)
  in
  Mc.estimate_of_log_samples samples

let mean_stop_slot ?pool cfg ~replications rng =
  if replications <= 0 then invalid_arg "Mux_is.mean_stop_slot: replications <= 0";
  let total =
    Ss_parallel.Fanout.fold ?pool ~rng ~n:replications ~f:( + ) ~init:0 (fun sub _ ->
        (replicate cfg sub).stop_slot)
  in
  float_of_int total /. float_of_int replications

let eval_of ?pool ~config ~replications ~twist rng =
  estimate ?pool (config ~twist) ~replications rng

let sweep ?pool ~config ~twists ~replications rng =
  Valley.sweep_by ~eval:(eval_of ?pool ~config ~replications) ~twists rng

let auto ?pool ~config ?lo ?hi ?coarse ~replications rng =
  Valley.auto_by ~eval:(eval_of ?pool ~config ~replications) ?lo ?hi ?coarse rng
