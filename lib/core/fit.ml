module Hurst = Ss_fractal.Hurst
module Acf_fit = Ss_fractal.Acf_fit
module Transform = Ss_fractal.Transform
module Dist = Ss_stats.Dist
module Empirical = Ss_stats.Empirical
module Timeseries = Ss_stats.Timeseries
module D = Ss_stats.Descriptive

type diagnostics = {
  h_variance_time : Hurst.estimate;
  h_rs : Hurst.estimate;
  h_adopted : float;
  acf_points : (int * float) list;
  raw_fit : Acf_fit.params;
  compensated : Acf_fit.params;
  attenuation : float;
}

type attenuation_method =
  | Quadrature
  | Measured of { n : int; lags : int list; rng : Ss_stats.Rng.t }

let hurst_round h =
  let rounded = Float.round (h /. 0.05) *. 0.05 in
  Stdlib.max 0.55 (Stdlib.min 0.95 rounded)

let fit ?(max_lag = 500) ?knee_candidates ?(attenuation = Quadrature) sizes =
  if Array.length sizes < 10 * max_lag then
    invalid_arg "Fit.fit: series too short for requested max_lag";
  (* Step 1: Hurst estimation. *)
  let h_vt = Hurst.variance_time sizes in
  let h_rs = Hurst.rs sizes in
  let h_adopted = hurst_round ((h_vt.Hurst.h +. h_rs.Hurst.h) /. 2.0) in
  let beta = 2.0 -. (2.0 *. h_adopted) in
  (* Step 2: composite knee fit with beta pinned by H. *)
  let acf_points = Timeseries.acf_points sizes ~max_lag in
  let raw_fit = Acf_fit.fit ?knee_candidates ~fixed_beta:beta acf_points in
  (* Marginal: histogram inversion of the empirical distribution. *)
  let transform = Transform.of_empirical (Empirical.of_data sizes) in
  (* Step 3: attenuation factor. *)
  let a =
    match attenuation with
    | Quadrature -> Transform.attenuation transform
    | Measured { n; lags; rng } ->
      Transform.attenuation_measured ~acf:(Acf_fit.to_acf raw_fit) ~n ~lags rng transform
  in
  let a = Stdlib.max 0.05 (Stdlib.min 1.0 a) in
  (* Step 4: derive the background autocorrelation. The paper's Eq-14
     linear compensation is computed for the diagnostics; the model
     itself uses the exact Hermite inversion of the transform's
     correlation response, which degrades gracefully when [a] is far
     from 1 (heavy-tailed marginals) where dividing by [a] would clip
     near-unity correlations and break positive definiteness. *)
  let compensated = Acf_fit.compensate raw_fit ~a in
  let dependence = Model.Srd_lrd raw_fit in
  let model =
    {
      Model.transform;
      dependence;
      background = Model.background_of_dependence ~transform dependence;
      hurst = h_adopted;
      attenuation = a;
      mean = D.mean sizes;
    }
  in
  ( model,
    {
      h_variance_time = h_vt;
      h_rs;
      h_adopted;
      acf_points;
      raw_fit;
      compensated;
      attenuation = a;
    } )

let fit_trace ?max_lag trace = fit ?max_lag trace.Ss_video.Trace.sizes

let refine ?(rounds = 4) ?(gain = 0.8) ?(paths = 4) ?(path_length = 32_768) model ~target rng =
  if rounds < 1 then invalid_arg "Fit.refine: rounds < 1";
  if gain <= 0.0 || gain > 2.0 then invalid_arg "Fit.refine: gain outside (0,2]";
  if paths < 1 then invalid_arg "Fit.refine: paths < 1";
  if target = [] then invalid_arg "Fit.refine: empty target";
  let max_lag = List.fold_left (fun a (k, _) -> Stdlib.max a k) 0 target in
  if max_lag < 1 || max_lag >= path_length then
    invalid_arg "Fit.refine: target lags must lie in [1, path_length)";
  let measure m =
    (* Average sample ACF over independent paths to tame LRD noise. *)
    match Ss_fractal.Davies_harte.plan ~acf:(Model.background_acf m) ~n:path_length () with
    | exception Invalid_argument _ -> None
    | plan ->
      let acc = Array.make (max_lag + 1) 0.0 in
      for _ = 1 to paths do
        let x = Ss_fractal.Davies_harte.generate plan (Ss_stats.Rng.split rng) in
        let y = Transform.apply m.Model.transform x in
        let r = D.acf y ~max_lag in
        Array.iteri (fun i v -> acc.(i) <- acc.(i) +. v) r
      done;
      Some (Array.map (fun v -> v /. float_of_int paths) acc)
  in
  let residuals measured =
    List.map (fun (k, t) -> t -. measured.(k)) target
  in
  let rms errs =
    sqrt (List.fold_left (fun a e -> a +. (e *. e)) 0.0 errs /. float_of_int (List.length errs))
  in
  (* Updates live in Fisher-z space: z = atanh r, adjusted by the
     gain-scaled residual, mapped back with tanh. Near |r| = 1 this
     turns additive corrections into gentle ones, which keeps the
     adjusted sequence inside the positive-definite cone far more
     reliably than clamped addition. *)
  let clamp v = Stdlib.max (-0.999) (Stdlib.min 0.9999 v) in
  let adjust r corr = tanh (Float.atanh (clamp r) +. corr) in
  (* Corrections at the target lags, cosine-tapered to zero over the
     last quarter of the lag range so the adjusted ACF has no jump at
     the boundary (jumps break positive definiteness). *)
  let taper_start = 3 * max_lag / 4 in
  let taper k =
    if k <= taper_start then 1.0
    else begin
      let t =
        float_of_int (k - taper_start) /. float_of_int (Stdlib.max 1 (max_lag - taper_start))
      in
      0.5 *. (1.0 +. cos (Float.pi *. t))
    end
  in
  let adjusted_background m errs step_gain round =
    let corr = Array.make (max_lag + 1) 0.0 in
    List.iter2 (fun (k, _) e -> corr.(k) <- step_gain *. e *. taper k) target errs;
    let base = Model.background_acf m in
    Ss_fractal.Acf.memoize
      (Ss_fractal.Acf.of_fun
         ~name:(Printf.sprintf "%s+iter%d" base.Ss_fractal.Acf.name round)
         (fun k ->
           if k <= max_lag then adjust (base.Ss_fractal.Acf.r k) corr.(k)
           else base.Ss_fractal.Acf.r k))
  in
  (* Invariant: [m] is generatable and [measured] is its averaged
     foreground ACF. A step that leaves the positive-definite cone is
     retried with halved gain (twice) before iteration stops with the
     last good model. *)
  let rec go round m measured history =
    let errs = residuals measured in
    let history = rms errs :: history in
    if round >= rounds then (m, List.rev history)
    else begin
      let rec try_step step_gain attempts =
        let m' = Model.with_background m (adjusted_background m errs step_gain round) in
        match measure m' with
        | Some measured' -> Some (m', measured')
        | None -> if attempts <= 0 then None else try_step (step_gain /. 2.0) (attempts - 1)
      in
      match try_step gain 2 with
      | None -> (m, List.rev history)
      | Some (m', measured') -> go (round + 1) m' measured' history
    end
  in
  match measure model with
  | None -> invalid_arg "Fit.refine: initial model not generatable"
  | Some measured -> go 1 model measured []
