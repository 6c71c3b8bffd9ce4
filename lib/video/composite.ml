module Transform = Ss_fractal.Transform
module Dist = Ss_stats.Dist
module Empirical = Ss_stats.Empirical
module Timeseries = Ss_stats.Timeseries

type t = {
  gop : Gop.t;
  fps : float;
  h_i : Transform.t;
  h_p : Transform.t option;  (* a GOP may lack P or B frames *)
  h_b : Transform.t option;
}

let transform_of_sizes sizes =
  Transform.of_empirical (Empirical.of_data sizes)

let of_trace trace =
  let need kind =
    let xs = Trace.of_kind trace kind in
    if Array.length xs = 0 then
      invalid_arg
        (Printf.sprintf "Composite.of_trace: no %c frames in trace" (Frame.to_char kind));
    xs
  in
  let opt kind =
    if Gop.count_in_pattern trace.Trace.gop kind = 0 then None
    else Some (transform_of_sizes (need kind))
  in
  {
    gop = trace.Trace.gop;
    fps = trace.Trace.fps;
    h_i = transform_of_sizes (need Frame.I);
    h_p = opt Frame.P;
    h_b = opt Frame.B;
  }

let gop t = t.gop

let transform t kind =
  match kind with
  | Frame.I -> t.h_i
  | Frame.P -> (
    match t.h_p with
    | Some h -> h
    | None -> invalid_arg "Composite.transform: GOP has no P frames")
  | Frame.B -> (
    match t.h_b with
    | Some h -> h
    | None -> invalid_arg "Composite.transform: GOP has no B frames")

let apply t x =
  let sizes =
    Array.mapi
      (fun i v -> Stdlib.max 0.0 (Transform.apply1 (transform t (Gop.kind_at t.gop i)) v))
      x
  in
  Trace.make ~name:"composite-model" ~fps:t.fps ~gop:t.gop sizes

let mean_attenuation t =
  let per_kind =
    List.filter_map
      (fun kind ->
        let count = Gop.count_in_pattern t.gop kind in
        if count = 0 then None
        else Some (float_of_int count, Transform.attenuation (transform t kind)))
      [ Frame.I; Frame.P; Frame.B ]
  in
  let total = List.fold_left (fun a (w, _) -> a +. w) 0.0 per_kind in
  List.fold_left (fun a (w, v) -> a +. (w *. v)) 0.0 per_kind /. total

let i_acf_target _t ~reference ~max_lag =
  let i_sizes = Trace.of_kind reference Frame.I in
  if Array.length i_sizes <= max_lag + 1 then
    invalid_arg "Composite.i_acf_target: too few I frames for requested lag";
  Timeseries.acf_points i_sizes ~max_lag
