module Acf = Ss_fractal.Acf
module Acf_fit = Ss_fractal.Acf_fit
module Hosking = Ss_fractal.Hosking
module Davies_harte = Ss_fractal.Davies_harte
module Composite = Ss_video.Composite
module Trace = Ss_video.Trace
module Gop = Ss_video.Gop
module Frame = Ss_video.Frame
module Transform = Ss_fractal.Transform

type t = {
  i_model : Model.t;
  i_diag : Fit.diagnostics;
  composite : Composite.t;
  background : Acf.t;
  gop : Gop.t;
  fps : float;
}

let fit ?(i_max_lag = 80) trace =
  let i_sizes = Trace.of_kind trace Frame.I in
  let i_model, i_diag = Fit.fit ~max_lag:i_max_lag i_sizes in
  let composite = Composite.of_trace trace in
  (* Foreground target at frame rate: the I-frame fit stretched by
     the I period (Eq 15). The background must compensate for the
     composite transform family; use the frame-count-weighted average
     of the per-type Hermite correlation responses and invert it
     pointwise (the exact form of the paper's mean-attenuation
     division). *)
  let period = Gop.i_period trace.Trace.gop in
  let target = Acf_fit.rescaled_acf i_diag.Fit.raw_fit ~period in
  let responses =
    List.filter_map
      (fun kind ->
        let count = Gop.count_in_pattern trace.Trace.gop kind in
        if count = 0 then None
        else
          Some
            ( float_of_int count,
              Transform.response (Composite.transform composite kind) ))
      [ Frame.I; Frame.P; Frame.B ]
  in
  let total_weight = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 responses in
  let mean_response r =
    List.fold_left (fun acc (w, rho) -> acc +. (w *. rho r)) 0.0 responses /. total_weight
  in
  let background =
    Acf.memoize
      (Acf.of_fun
         ~name:(Printf.sprintf "mpeg-inv(%s)" target.Acf.name)
         (fun k -> Transform.invert_response mean_response ~target:(target.Acf.r k)))
  in
  {
    i_model;
    i_diag;
    composite;
    background;
    gop = trace.Trace.gop;
    fps = trace.Trace.fps;
  }

let generate t ~n rng =
  let plan = Davies_harte.plan ~acf:t.background ~n () in
  let x = Davies_harte.generate plan rng in
  Composite.apply t.composite x

let generate_hosking t ~n rng =
  let x = Hosking.generate_stream ~acf:t.background ~n rng in
  Composite.apply t.composite x

let background_table t ~n = Hosking.Table.make ~acf:t.background ~n

let arrival_fn t =
  fun i x ->
    let kind = Gop.kind_at t.gop i in
    Stdlib.max 0.0 (Transform.apply1 (Composite.transform t.composite kind) x)
