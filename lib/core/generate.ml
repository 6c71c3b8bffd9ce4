module Hosking = Ss_fractal.Hosking
module Davies_harte = Ss_fractal.Davies_harte
module Transform = Ss_fractal.Transform

type generator =
  | Hosking_stream
  | Hosking_table of Hosking.Table.t
  | Davies_harte

(* Keyed on the background's structural fingerprint, not its name:
   a compensated background is named after its target dependence
   only, so models with different marginals share a name. *)
let table_cache : (string * int, Hosking.Table.t) Hashtbl.t = Hashtbl.create 8
let plan_cache : (string * int, Davies_harte.plan) Hashtbl.t = Hashtbl.create 8

let cached cache model ~n build =
  let acf = Model.background_acf model in
  let key = (Ss_fractal.Acf.fingerprint acf ~max_lag:n, n) in
  match Hashtbl.find_opt cache key with
  | Some v -> v
  | None ->
    let v = build acf in
    Hashtbl.add cache key v;
    v

let table model ~n = cached table_cache model ~n (fun acf -> Hosking.Table.make ~acf ~n)
let dh_plan model ~n = cached plan_cache model ~n (fun acf -> Davies_harte.plan ~acf ~n ())

let background model ~n gen rng =
  if n <= 0 then invalid_arg "Generate.background: n <= 0";
  match gen with
  | Hosking_stream -> Hosking.generate_stream ~acf:(Model.background_acf model) ~n rng
  | Hosking_table t ->
    if Hosking.Table.length t < n then
      invalid_arg "Generate.background: table shorter than n";
    let buf = Array.make n 0.0 in
    Hosking.generate_into t rng buf;
    buf
  | Davies_harte -> Davies_harte.generate (dh_plan model ~n) rng

let foreground model ~n gen rng =
  Transform.apply model.Model.transform (background model ~n gen rng)

let arrival_fn model =
  let h = model.Model.transform in
  fun _i x -> Transform.apply1 h x
