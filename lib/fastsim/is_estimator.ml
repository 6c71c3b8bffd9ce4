module Rng = Ss_stats.Rng
module Table = Ss_fractal.Hosking.Table
module Mc = Ss_queueing.Mc

type arrival = int -> float -> float
type backend = [ `Hosking | `Davies_harte of Ss_fractal.Davies_harte.plan ]

type config = {
  table : Table.t;
  arrival : arrival;
  service : float;
  buffer : float;
  horizon : int;
  twist : float;
  profile : Twist.t;
  lik_plan : Likelihood.plan;
  initial_workload : float;
  full_start : bool;
  backend : backend;
}

let make_config ~table ~arrival ~service ~buffer ~horizon ~twist ?profile
    ?(full_start = false) ?(initial_workload = 0.0) ?(backend = `Hosking) () =
  (* NaN passes every unguarded bound test: a NaN or infinite buffer
     is never crossed, so the estimate would read p = 0 without an
     error. *)
  if not (Float.is_finite service && service > 0.0) then
    invalid_arg "Is_estimator: service must be finite and > 0";
  if not (Float.is_finite buffer && buffer >= 0.0) then
    invalid_arg "Is_estimator: buffer must be finite and >= 0";
  if not (Float.is_finite twist) then invalid_arg "Is_estimator: twist must be finite";
  if horizon <= 0 || horizon > Table.length table then
    invalid_arg "Is_estimator: horizon outside table length";
  if initial_workload < 0.0 then invalid_arg "Is_estimator: initial_workload < 0";
  let profile = match profile with Some p -> p | None -> Twist.constant twist in
  (match backend with
  | `Hosking -> ()
  | `Davies_harte plan ->
    (* Exact-synthesis backend: the whole background path is drawn
       under the untwisted law, so there are no per-step innovations
       to accumulate a likelihood from — it is plain Monte Carlo and
       only valid at zero twist. *)
    (match Twist.constant_value profile with
    | Some v when v = 0.0 -> ()
    | _ ->
      invalid_arg
        "Is_estimator: backend `Davies_harte is exact plain Monte Carlo and requires a zero \
         twist (no likelihood reweighting is possible without per-step innovations)");
    if Ss_fractal.Davies_harte.plan_length plan < horizon then
      invalid_arg "Is_estimator: Davies-Harte plan shorter than the horizon");
  let lik_plan = Likelihood.plan ~table ~profile in
  {
    table;
    arrival;
    service;
    buffer;
    horizon;
    twist;
    profile;
    lik_plan;
    initial_workload;
    full_start;
    backend;
  }

type replication = {
  hit : bool;
  weight : float;
  log_weight : float;
  stop_step : int;
}

(* Plain-MC replication on an exactly synthesized background path:
   first passage of the workload over the buffer, all weights 1
   (zero twist was enforced at config time). Unlike the Hosking walk
   this is exact at {e every} lag, not just up to the table order —
   the cross-backend agreement gate in the bench leans on that. *)
let replicate_davies_harte cfg plan rng =
  let xs = Array.make (Ss_fractal.Davies_harte.plan_length plan) 0.0 in
  Ss_fractal.Davies_harte.generate_into plan rng xs;
  let w = ref 0.0 in
  let result = ref None in
  let k = ref 0 in
  while !result = None && !k < cfg.horizon do
    let y = cfg.arrival !k xs.(!k) in
    w := !w +. y -. cfg.service;
    if cfg.initial_workload +. !w > cfg.buffer then
      result := Some { hit = true; weight = 1.0; log_weight = 0.0; stop_step = !k + 1 };
    incr k
  done;
  match !result with
  | Some r -> r
  | None ->
    if cfg.full_start && !w > 0.0 then
      { hit = true; weight = 1.0; log_weight = 0.0; stop_step = cfg.horizon }
    else { hit = false; weight = 0.0; log_weight = neg_infinity; stop_step = cfg.horizon }

let replicate_hosking cfg rng =
  let table = cfg.table in
  let lik = Likelihood.of_plan cfg.lik_plan in
  (* Background path under the twisted law, built incrementally:
     x'_k = (cond mean of untwisted past) + innovation + m_k.
     Storing the *untwisted* values keeps cond_mean applicable. *)
  let xs = Array.make cfg.horizon 0.0 in
  let w = ref 0.0 in
  let result = ref None in
  let k = ref 0 in
  while !result = None && !k < cfg.horizon do
    let m = Table.cond_mean table xs !k in
    let innovation = Table.innovation_std table !k *. Rng.gaussian rng in
    xs.(!k) <- m +. innovation;
    Likelihood.step lik ~k:!k ~innovation;
    let x_twisted = xs.(!k) +. Twist.shift cfg.profile !k in
    let y = cfg.arrival !k x_twisted in
    w := !w +. y -. cfg.service;
    if cfg.initial_workload +. !w > cfg.buffer then begin
      let lw = Likelihood.log_ratio lik in
      result := Some { hit = true; weight = exp lw; log_weight = lw; stop_step = !k + 1 }
    end;
    incr k
  done;
  match !result with
  | Some r -> r
  | None ->
    (* No first passage within the horizon. With a full initial
       buffer the queue is still above b at time k when q0 + W_k > b
       (q0 = b, i.e. W_k > 0). *)
    if cfg.full_start && !w > 0.0 then
      let lw = Likelihood.log_ratio lik in
      { hit = true; weight = exp lw; log_weight = lw; stop_step = cfg.horizon }
    else { hit = false; weight = 0.0; log_weight = neg_infinity; stop_step = cfg.horizon }

let replicate cfg rng =
  match cfg.backend with
  | `Hosking -> replicate_hosking cfg rng
  | `Davies_harte plan -> replicate_davies_harte cfg plan rng

let estimate ?pool cfg ~replications rng =
  if replications <= 0 then invalid_arg "Is_estimator.estimate: replications <= 0";
  let samples =
    Ss_parallel.Fanout.map ?pool ~rng ~n:replications (fun sub _ ->
        (replicate cfg sub).log_weight)
  in
  Mc.estimate_of_log_samples samples

let mean_stop_step ?pool cfg ~replications rng =
  if replications <= 0 then invalid_arg "Is_estimator.mean_stop_step: replications <= 0";
  let total =
    Ss_parallel.Fanout.fold ?pool ~rng ~n:replications ~f:( + ) ~init:0 (fun sub _ ->
        (replicate cfg sub).stop_step)
  in
  float_of_int total /. float_of_int replications
