module Online = Ss_stats.Online_stats

type config = {
  window : int;
  warmup_windows : int;
  mean_tol : float;
  sigma2_tol : float;
  hurst_tol : float;
  violation_factor : float;
  envelope_sigmas : float;
  hurst_min_windows : int;
  grace : int;
  evict_after : int;
  corrupt_limit : int;
}

let default =
  {
    window = 512;
    warmup_windows = 1;
    mean_tol = 0.15;
    sigma2_tol = 1.5;
    hurst_tol = 0.15;
    violation_factor = 2.0;
    envelope_sigmas = 3.0;
    hurst_min_windows = 8;
    grace = 2;
    evict_after = 3;
    corrupt_limit = 16;
  }

type verdict = Conforming | Drifting of Admission.descr | Violating of string

type event =
  | Flagged of verdict
  | Renegotiated of Admission.descr
  | Demoted of int
  | Throttle_set of float
  | Evicted

type incident = { slot : int; source : string; event : event }

type state = {
  mutable declared : Admission.descr;
  mutable win : Online.t;
  vt : Online.Vt.t;
  mutable filled : int;
  mutable windows : int;  (* closed windows so far *)
  mutable consec_bad : int;  (* consecutive non-conforming windows *)
  mutable strikes : int;  (* escalation-ladder position *)
  mutable demote : int;  (* accumulated priority demotion *)
  mutable cap : float;  (* per-slot work cap; infinity = none *)
  mutable evicted : bool;
  mutable detected_at : int;  (* slot of first flag; -1 = never *)
  mutable corrupt : int;
  mutable measured : Admission.descr option;  (* last closed window *)
}

type t = {
  config : config;
  cac : Admission.t option;
  states : state array;
  mutable incidents : incident list;  (* reverse chronological *)
}

let validate_config c =
  if c.window < 2 then invalid_arg "Police.create: window < 2";
  if c.warmup_windows < 0 then invalid_arg "Police.create: warmup_windows < 0";
  if not (c.mean_tol > 0.0) then invalid_arg "Police.create: mean_tol <= 0";
  if not (c.sigma2_tol > 0.0) then invalid_arg "Police.create: sigma2_tol <= 0";
  if not (c.hurst_tol > 0.0) then invalid_arg "Police.create: hurst_tol <= 0";
  if not (c.violation_factor > 1.0) then invalid_arg "Police.create: violation_factor <= 1";
  if not (c.envelope_sigmas > 0.0) then invalid_arg "Police.create: envelope_sigmas <= 0";
  if c.hurst_min_windows < 1 then invalid_arg "Police.create: hurst_min_windows < 1";
  if c.grace < 1 then invalid_arg "Police.create: grace < 1";
  if c.evict_after < 1 then invalid_arg "Police.create: evict_after < 1";
  if c.corrupt_limit < 1 then invalid_arg "Police.create: corrupt_limit < 1"

let create ?(config = default) ?cac descrs =
  validate_config config;
  if Array.length descrs = 0 then invalid_arg "Police.create: no sources";
  {
    config;
    cac;
    states =
      Array.map
        (fun d ->
          (match Admission.validate d with
          | Some reason -> invalid_arg ("Police.create: " ^ reason)
          | None -> ());
          {
            declared = d;
            win = Online.create ();
            vt = Online.Vt.create ();
            filled = 0;
            windows = 0;
            consec_bad = 0;
            strikes = 0;
            demote = 0;
            cap = infinity;
            evicted = false;
            detected_at = -1;
            corrupt = 0;
            measured = None;
          })
        descrs;
    incidents = [];
  }

let size t = Array.length t.states

let check t i name =
  if i < 0 || i >= size t then invalid_arg (Printf.sprintf "Police.%s: source %d" name i)

let record t ~slot i event =
  t.incidents <- { slot; source = t.states.(i).declared.Admission.name; event } :: t.incidents

let flag t ~slot i verdict =
  let s = t.states.(i) in
  if s.detected_at < 0 then s.detected_at <- slot;
  record t ~slot i (Flagged verdict)

let do_evict t ~slot i =
  let s = t.states.(i) in
  if not s.evicted then begin
    s.evicted <- true;
    record t ~slot i Evicted;
    match t.cac with
    | Some cac -> ignore (Admission.evict cac ~name:s.declared.Admission.name)
    | None -> ()
  end

let set_cap t ~slot i cap =
  let s = t.states.(i) in
  if s.cap <> cap then begin
    s.cap <- cap;
    record t ~slot i (Throttle_set cap)
  end

let envelope c (d : Admission.descr) =
  d.Admission.mean +. (c.envelope_sigmas *. sqrt (Stdlib.max 0.0 d.Admission.sigma2))

(* Escalation ladder for persistent drift: first renegotiate the
   contract against the measured model (the CAC decides with the old
   contract released), then demote the source's priority class, then
   clamp it at its declared envelope, then evict. [strikes] is
   sticky: a source that has exhausted renegotiation does not get a
   second one by briefly conforming. *)
let escalate t ~slot i (measured : Admission.descr) =
  let c = t.config in
  let s = t.states.(i) in
  (match s.strikes with
  | 0 ->
    let granted =
      match t.cac with
      | None -> true
      | Some cac -> (
        match Admission.renegotiate cac ~name:s.declared.Admission.name measured with
        | Admission.Admit _ -> true
        | Admission.Reject _ -> false)
    in
    if granted then begin
      s.declared <- measured;
      record t ~slot i (Renegotiated measured)
    end
    else begin
      s.demote <- s.demote + 1;
      s.strikes <- 1;
      record t ~slot i (Demoted s.demote)
    end
  | 1 ->
    set_cap t ~slot i (envelope c s.declared);
    s.strikes <- 2
  | _ -> do_evict t ~slot i);
  s.consec_bad <- 0

let close_window t ~slot i =
  let c = t.config in
  let s = t.states.(i) in
  let mu = Online.mean s.win in
  let v = Online.variance s.win in
  let d = s.declared in
  (* The variance-time estimate needs many aggregation blocks before
     its high levels say anything; an immature estimate would make
     the first renegotiated contract inherit a noise value of H. *)
  let h_meas =
    if s.windows + 1 < c.hurst_min_windows then None
    else
      match Online.Vt.estimate s.vt with
      | Some h -> Some (Stdlib.min 0.99 (Stdlib.max 0.01 h))
      | None -> None
  in
  let measured =
    {
      Admission.name = d.Admission.name;
      mean = mu;
      sigma2 = Stdlib.max 0.0 v;
      hurst = (match h_meas with Some h -> h | None -> d.Admission.hurst);
    }
  in
  s.measured <- Some measured;
  s.windows <- s.windows + 1;
  s.win <- Online.create ();
  s.filled <- 0;
  if s.windows > c.warmup_windows then begin
    (* Under the declared FGN model the window-of-W mean has standard
       deviation sqrt(sigma2) * W^(H-1) — for H = 0.9, W = 512 that
       is ~0.54 sqrt(sigma2), nothing like the 1/sqrt(W) of i.i.d.
       input — so conformance bands must be LRD-aware or every honest
       long-memory source gets flagged. *)
    let sigma_w =
      sqrt (Stdlib.max 0.0 d.Admission.sigma2)
      *. (float_of_int c.window ** (d.Admission.hurst -. 1.0))
    in
    let mean_band = Stdlib.max (c.mean_tol *. d.Admission.mean) (c.envelope_sigmas *. sigma_w) in
    let verdict =
      if Float.is_nan mu then Violating "window mean is NaN"
      else if
        (* Outright violation is gross: the declared variance-time
           law is asymptotic and honest scene-driven sources overshoot
           the 3-sigma drift band a few percent of the time, so the
           violation line sits at twice the drift sigmas AND a
           multiple of the declared mean. *)
        mu
        > Stdlib.max
            (c.violation_factor *. d.Admission.mean)
            (d.Admission.mean +. (2.0 *. c.envelope_sigmas *. sigma_w))
      then
        Violating
          (Printf.sprintf "window mean %.4g exceeds %.2fx declared mean %.4g" mu
             c.violation_factor d.Admission.mean)
      else if Float.abs (mu -. d.Admission.mean) > mean_band then Drifting measured
      else if v > d.Admission.sigma2 *. (1.0 +. c.sigma2_tol) then Drifting measured
      else
        match h_meas with
        | Some h when Float.abs (h -. d.Admission.hurst) > c.hurst_tol -> Drifting measured
        | _ -> Conforming
    in
    match verdict with
    | Conforming ->
      s.consec_bad <- 0;
      if s.cap < infinity then set_cap t ~slot i infinity
    | Drifting _ ->
      flag t ~slot i verdict;
      s.consec_bad <- s.consec_bad + 1;
      if s.consec_bad >= c.grace then escalate t ~slot i measured
    | Violating _ ->
      flag t ~slot i verdict;
      s.consec_bad <- s.consec_bad + 1;
      set_cap t ~slot i (envelope c d);
      if s.strikes < 2 then s.strikes <- 2;
      if s.consec_bad >= c.evict_after then do_evict t ~slot i
  end

(* The work is read from [a.(j)] by the accumulators themselves: a
   float passed to a function in another module is boxed at the call
   (dune's dev profile compiles with [-opaque], so nothing inlines
   across modules). *)
let observe_at t ~slot i a j =
  check t i "observe";
  let s = t.states.(i) in
  if not s.evicted then begin
    Online.add_at s.win a j;
    Online.Vt.add_at s.vt a j;
    s.filled <- s.filled + 1;
    if s.filled >= t.config.window then close_window t ~slot i
  end

let observe t ~slot i w = observe_at t ~slot i [| w |] 0

let note_corrupt t ~slot i =
  check t i "note_corrupt";
  let s = t.states.(i) in
  if not s.evicted then begin
    s.corrupt <- s.corrupt + 1;
    if s.corrupt >= t.config.corrupt_limit then begin
      flag t ~slot i
        (Violating (Printf.sprintf "%d corrupt slots (limit %d)" s.corrupt t.config.corrupt_limit));
      do_evict t ~slot i
    end
  end

let cap t i =
  check t i "cap";
  t.states.(i).cap

let demotion t i =
  check t i "demotion";
  t.states.(i).demote

let evicted t i =
  check t i "evicted";
  t.states.(i).evicted

let detected_at t i =
  check t i "detected_at";
  let d = t.states.(i).detected_at in
  if d < 0 then None else Some d

let declared t i =
  check t i "declared";
  t.states.(i).declared

let measured t i =
  check t i "measured";
  t.states.(i).measured

let corrupt_slots t i =
  check t i "corrupt_slots";
  t.states.(i).corrupt

let incidents t = List.rev t.incidents
let incident_count t = List.length t.incidents

(* --- checkpoint codec --------------------------------------------- *)

module W = Ss_checkpoint.W
module R = Ss_checkpoint.R

let corrupt fmt = Printf.ksprintf (fun s -> raise (Ss_checkpoint.Corrupt s)) fmt

let save_verdict w = function
  | Conforming -> W.u8 w 0
  | Drifting d ->
    W.u8 w 1;
    Admission.save_descr w d
  | Violating reason ->
    W.u8 w 2;
    W.string w reason

let read_verdict r =
  match R.u8 r with
  | 0 -> Conforming
  | 1 -> Drifting (Admission.read_descr r)
  | 2 -> Violating (R.string r)
  | v -> corrupt "police: unknown verdict tag %d" v

let save_event w = function
  | Flagged v ->
    W.u8 w 0;
    save_verdict w v
  | Renegotiated d ->
    W.u8 w 1;
    Admission.save_descr w d
  | Demoted k ->
    W.u8 w 2;
    W.int w k
  | Throttle_set cap ->
    W.u8 w 3;
    W.float w cap
  | Evicted -> W.u8 w 4

let read_event r =
  match R.u8 r with
  | 0 -> Flagged (read_verdict r)
  | 1 -> Renegotiated (Admission.read_descr r)
  | 2 -> Demoted (R.int r)
  | 3 -> Throttle_set (R.float r)
  | 4 -> Evicted
  | v -> corrupt "police: unknown event tag %d" v

let save_state w s =
  Admission.save_descr w s.declared;
  Online.save s.win w;
  Online.Vt.save s.vt w;
  W.int w s.filled;
  W.int w s.windows;
  W.int w s.consec_bad;
  W.int w s.strikes;
  W.int w s.demote;
  W.float w s.cap;
  W.bool w s.evicted;
  W.int w s.detected_at;
  W.int w s.corrupt;
  W.option w Admission.save_descr s.measured

let restore_state r s =
  s.declared <- Admission.read_descr r;
  Online.restore s.win r;
  Online.Vt.restore s.vt r;
  s.filled <- R.int r;
  s.windows <- R.int r;
  s.consec_bad <- R.int r;
  s.strikes <- R.int r;
  s.demote <- R.int r;
  s.cap <- R.float r;
  s.evicted <- R.bool r;
  s.detected_at <- R.int r;
  s.corrupt <- R.int r;
  s.measured <- R.option r Admission.read_descr

let save t w =
  W.tag w "police";
  W.int w (Array.length t.states);
  Array.iter (save_state w) t.states;
  W.int w (List.length t.incidents);
  List.iter
    (fun { slot; source; event } ->
      W.int w slot;
      W.string w source;
      save_event w event)
    t.incidents;
  W.option w (fun w cac -> Admission.save cac w) t.cac

let restore t r =
  R.tag r "police";
  let n = R.int r in
  if n <> Array.length t.states then
    corrupt "police: checkpoint has %d sources, policer has %d" n (Array.length t.states);
  Array.iter (restore_state r) t.states;
  let k = R.int r in
  if k < 0 then corrupt "police: negative incident count";
  t.incidents <-
    List.init k (fun _ ->
        let slot = R.int r in
        let source = R.string r in
        let event = read_event r in
        { slot; source; event });
  match (R.bool r, t.cac) with
  | true, Some cac -> Admission.restore cac r
  | false, None -> ()
  | true, None -> corrupt "police: checkpoint carries CAC state but the policer has no CAC"
  | false, Some _ -> corrupt "police: checkpoint has no CAC state but the policer has a CAC"

let pp_descr ppf (d : Admission.descr) =
  Fmt.pf ppf "mean %.4g sigma2 %.4g H %.3f" d.Admission.mean d.Admission.sigma2
    d.Admission.hurst

let pp_verdict ppf = function
  | Conforming -> Fmt.pf ppf "conforming"
  | Drifting d -> Fmt.pf ppf "drifting (measured %a)" pp_descr d
  | Violating reason -> Fmt.pf ppf "violating: %s" reason

let pp_event ppf = function
  | Flagged v -> pp_verdict ppf v
  | Renegotiated d -> Fmt.pf ppf "renegotiated (%a)" pp_descr d
  | Demoted k -> Fmt.pf ppf "demoted (+%d classes)" k
  | Throttle_set cap ->
    if cap = infinity then Fmt.pf ppf "throttle lifted" else Fmt.pf ppf "throttled at %.4g/slot" cap
  | Evicted -> Fmt.pf ppf "evicted"

let pp_incident ppf { slot; source; event } =
  Fmt.pf ppf "slot %d  %-12s  %a" slot source pp_event event
