module Rng = Ss_stats.Rng
module W = Ss_checkpoint.W
module R = Ss_checkpoint.R

type event =
  | Drift of { start : int; ramp : int; factor : float }
  | Burst of { rate : float; mean_len : float; amplitude : float }
  | Stall of { start : int; len : int }
  | Dropout of { rate : float; mean_len : float }
  | Corrupt of { rate : float }
  | Misdeclare of { mean : float option; sigma2 : float option; hurst : float option }

let check_prob name p =
  if Float.is_nan p || p < 0.0 || p > 1.0 then
    invalid_arg (Printf.sprintf "Fault: %s rate %g outside [0,1]" name p)

let check_pos name x =
  if Float.is_nan x || x <= 0.0 then
    invalid_arg (Printf.sprintf "Fault: %s %g must be positive" name x)

let check_scale name x =
  if Float.is_nan x || x < 0.0 || x = infinity then
    invalid_arg (Printf.sprintf "Fault: %s %g not a finite nonnegative scale" name x)

let check_slots name v =
  if v < 0 then
    invalid_arg (Printf.sprintf "Fault: %s %d is negative (must be a slot count >= 0)" name v)

let validate = function
  | Drift { start; ramp; factor } ->
    check_slots "drift start" start;
    check_slots "drift ramp" ramp;
    check_scale "drift factor" factor
  | Burst { rate; mean_len; amplitude } ->
    check_prob "burst" rate;
    check_pos "burst mean length" mean_len;
    check_scale "burst amplitude" amplitude
  | Stall { start; len } ->
    check_slots "stall start" start;
    check_slots "stall len" len
  | Dropout { rate; mean_len } ->
    check_prob "dropout" rate;
    check_pos "dropout mean length" mean_len
  | Corrupt { rate } -> check_prob "corrupt" rate
  | Misdeclare { mean; sigma2; hurst } -> (
    (match mean with
    | Some m when Float.is_nan m || m < 0.0 ->
      invalid_arg (Printf.sprintf "Fault: misdeclared mean %g must be >= 0" m)
    | _ -> ());
    (match sigma2 with
    | Some s when Float.is_nan s || s < 0.0 ->
      invalid_arg (Printf.sprintf "Fault: misdeclared sigma2 %g must be >= 0" s)
    | _ -> ());
    match hurst with
    | Some h when Float.is_nan h || h <= 0.0 || h >= 1.0 ->
      invalid_arg (Printf.sprintf "Fault: misdeclared hurst %g outside (0,1)" h)
    | _ -> ())

(* Geometric-ish episode process: each quiet slot starts an episode
   with probability [rate]; episode lengths are rounded exponentials
   of mean [mean_len] (min 1). Returns a per-slot "inside an episode"
   predicate plus the residual-length cell, which together with the
   substream state is the whole episode state a checkpoint must
   carry. Draws exactly one uniform on quiet slots and one more on
   episode starts, so the schedule is a pure function of the
   substream. *)
let episodes rng ~rate ~mean_len =
  let remaining = ref 0 in
  let inside () =
    if !remaining > 0 then begin
      decr remaining;
      true
    end
    else if Rng.bernoulli rng rate then begin
      let len =
        Stdlib.max 1 (int_of_float (Float.round (-.mean_len *. log1p (-.Rng.float rng))))
      in
      remaining := len - 1;
      true
    end
    else false
  in
  (inside, remaining)

(* A compiled event: a block transform plus its checkpoint codec.
   [apply w ~slot off f] transforms [w.(off) .. w.(off + f - 1)], the
   work of slots [slot .. slot + f - 1], in slot order. Scripted events
   (drift, stall) and misdeclaration are pure functions of the slot
   index — nothing to save; the stochastic ones carry their substream
   (and episode residual). *)
type compiled = {
  apply : float array -> slot:int -> int -> int -> unit;
  ev_save : W.t -> unit;
  ev_restore : R.t -> unit;
}

let stateless apply =
  { apply; ev_save = (fun w -> W.tag w "ev-pure"); ev_restore = (fun r -> R.tag r "ev-pure") }

let episodic rng ~rate ~mean_len mk =
  let inside, remaining = episodes rng ~rate ~mean_len in
  {
    apply = mk inside;
    ev_save =
      (fun w ->
        W.tag w "ev-episodic";
        Rng.save rng w;
        W.int w !remaining);
    ev_restore =
      (fun r ->
        R.tag r "ev-episodic";
        Rng.restore rng r;
        remaining := R.int r);
  }

let compile rng event =
  validate event;
  match event with
  | Drift { start; ramp; factor } ->
    stateless (fun w ~slot off f ->
        for j = off to off + f - 1 do
          let t = slot + j - off in
          if t >= start then begin
            (* [Stdlib.min 1.0 p], without boxing its arguments. *)
            let progress =
              if ramp <= 0 then 1.0
              else
                let p = float_of_int (t - start + 1) /. float_of_int ramp in
                if 1.0 <= p then 1.0 else p
            in
            w.(j) <- w.(j) *. (1.0 +. ((factor -. 1.0) *. progress))
          end
        done)
  | Burst { rate; mean_len; amplitude } ->
    episodic rng ~rate ~mean_len (fun inside w ~slot:_ off f ->
        for j = off to off + f - 1 do
          if inside () then w.(j) <- w.(j) *. amplitude
        done)
  | Stall { start; len = stall } ->
    stateless (fun w ~slot off f ->
        for j = off to off + f - 1 do
          let t = slot + j - off in
          if t >= start && t < start + stall then w.(j) <- 0.0
        done)
  | Dropout { rate; mean_len } ->
    episodic rng ~rate ~mean_len (fun inside w ~slot:_ off f ->
        for j = off to off + f - 1 do
          if inside () then w.(j) <- 0.0
        done)
  | Corrupt { rate } ->
    {
      apply =
        (fun w ~slot:_ off f ->
          for j = off to off + f - 1 do
            if Rng.bernoulli rng rate then
              w.(j) <- (if Rng.bool rng then Float.nan else -1.0 -. w.(j))
          done);
      ev_save =
        (fun w ->
          W.tag w "ev-corrupt";
          Rng.save rng w);
      ev_restore =
        (fun r ->
          R.tag r "ev-corrupt";
          Rng.restore rng r);
    }
  | Misdeclare _ -> stateless (fun _ ~slot:_ _ _ -> ())

let misdeclared spec (src : Source.t) =
  List.fold_left
    (fun (m, s, h) -> function
      | Misdeclare { mean; sigma2; hurst } ->
        ( Option.value mean ~default:m,
          Option.value sigma2 ~default:s,
          Option.value hurst ~default:h )
      | _ -> (m, s, h))
    (src.Source.mean, src.Source.sigma2, src.Source.hurst)
    spec

let wrap ?name ~rng spec (src : Source.t) =
  match spec with
  | [] -> src
  | _ ->
    List.iter validate spec;
    (* One substream per event, split in spec order on the caller, so
       each stochastic schedule is a fixed function of (seed, source
       index, event index) — the Fanout discipline. *)
    let transforms = Array.of_list (List.map (fun ev -> compile (Rng.split rng) ev) spec) in
    let t = ref 0 in
    (* Pull a block from the wrapped source, then apply the events in
       spec order, each over the whole block. This is the slot-by-slot
       composition: each event's state advances on its own draws in
       slot order, so the schedules are the same at any block split,
       and a later event sees the value the earlier ones left at that
       slot. The scalar pull is this at one slot. *)
    let pull_block wbuf cbuf off len =
      let f = src.Source.pull_block wbuf cbuf off len in
      let slot = !t in
      t := slot + f;
      for e = 0 to Array.length transforms - 1 do
        transforms.(e).apply wbuf ~slot off f
      done;
      f
    in
    let mean, sigma2, hurst = misdeclared spec src in
    let name = match name with Some n -> n | None -> src.Source.name ^ "!" in
    (* The wrapper checkpoints as: inner source state, then the slot
       counter, then each event's state in spec order — available only
       when the wrapped source itself supports checkpointing. *)
    let ckpt =
      match src.Source.ckpt with
      | None -> None
      | Some _ ->
        Some
          {
            Source.ck_save =
              (fun w ->
                Source.save src w;
                W.tag w "fault-wrap";
                W.int w !t;
                Array.iter (fun ev -> ev.ev_save w) transforms);
            ck_restore =
              (fun r ->
                Source.restore src r;
                R.tag r "fault-wrap";
                t := R.int r;
                Array.iter (fun ev -> ev.ev_restore r) transforms);
          }
    in
    Source.make ~pull_block ?ckpt ~name ~mean ~sigma2 ~hurst (Source.pull_of_block pull_block)

let wrap_all ~rng specs sources =
  let n = Array.length sources in
  List.iter
    (fun (target, _) ->
      match target with
      | Some i when i < 0 || i >= n ->
        invalid_arg (Printf.sprintf "Fault.wrap_all: target %d outside [0,%d)" i n)
      | _ -> ())
    specs;
  let spec_for i =
    List.concat_map
      (fun (target, evs) ->
        match target with Some j when j <> i -> [] | _ -> evs)
      specs
  in
  (* Always split one substream per source, in index order, whether
     or not that source carries faults: the schedule of source [i] is
     then independent of which other sources are targeted. *)
  let subs = Rng.split_n rng n in
  Array.mapi (fun i src -> wrap ~rng:subs.(i) (spec_for i) src) sources

(* --- spec parsing ------------------------------------------------- *)

let known_kinds =
  "drift@START+RAMPxFACTOR, burst@RATE+LENxAMP, stall@START+LEN, dropout@RATE+LEN, \
   corrupt@RATE, mean=V, sigma2=V, hurst=V"

(* The event kind is identified by its prefix (before '@' or '=')
   first, then its arguments are parsed against that kind's one
   syntax — so a typo'd argument reports the kind's expected shape,
   and an unknown kind lists every known one, instead of the generic
   "unrecognized event" a try-them-all chain produces. *)
let parse_event s =
  let s = String.trim s in
  let scan kind expected scanner =
    try scanner () with
    | Scanf.Scan_failure _ | Failure _ | End_of_file ->
      invalid_arg
        (Printf.sprintf "Fault.parse: malformed %s event %S — expected %s" kind s expected)
  in
  let ev =
    match (String.index_opt s '@', String.index_opt s '=') with
    | Some i, _ -> (
      match String.sub s 0 i with
      | "drift" ->
        scan "drift" "drift@START+RAMPxFACTOR (slots, slots, scale)" (fun () ->
            Scanf.sscanf s "drift@%d+%dx%f%!" (fun start ramp factor ->
                Drift { start; ramp; factor }))
      | "burst" ->
        scan "burst" "burst@RATE+LENxAMP (rate in [0,1], mean length, amplitude)" (fun () ->
            Scanf.sscanf s "burst@%f+%fx%f%!" (fun rate mean_len amplitude ->
                Burst { rate; mean_len; amplitude }))
      | "stall" ->
        scan "stall" "stall@START+LEN (slots, slots)" (fun () ->
            Scanf.sscanf s "stall@%d+%d%!" (fun start len -> Stall { start; len }))
      | "dropout" ->
        scan "dropout" "dropout@RATE+LEN (rate in [0,1], mean length)" (fun () ->
            Scanf.sscanf s "dropout@%f+%f%!" (fun rate mean_len -> Dropout { rate; mean_len }))
      | "corrupt" ->
        scan "corrupt" "corrupt@RATE (rate in [0,1])" (fun () ->
            Scanf.sscanf s "corrupt@%f%!" (fun rate -> Corrupt { rate }))
      | kind ->
        invalid_arg
          (Printf.sprintf "Fault.parse: unknown fault kind %S in event %S; known kinds: %s"
             kind s known_kinds))
    | None, Some i -> (
      let field = String.sub s 0 i in
      let value () =
        scan field (field ^ "=VALUE (a float)") (fun () ->
            Scanf.sscanf s "%_s@=%f%!" (fun v -> v))
      in
      match field with
      | "mean" -> Misdeclare { mean = Some (value ()); sigma2 = None; hurst = None }
      | "sigma2" -> Misdeclare { mean = None; sigma2 = Some (value ()); hurst = None }
      | "hurst" -> Misdeclare { mean = None; sigma2 = None; hurst = Some (value ()) }
      | field ->
        invalid_arg
          (Printf.sprintf
             "Fault.parse: unknown misdeclare field %S in event %S; known kinds: %s" field s
             known_kinds))
    | None, None ->
      invalid_arg
        (Printf.sprintf "Fault.parse: unrecognized event %S; known kinds: %s" s known_kinds)
  in
  validate ev;
  ev

let parse_group s =
  match String.index_opt s ':' with
  | None -> invalid_arg (Printf.sprintf "Fault.parse: group %S lacks 'target:'" s)
  | Some i ->
    let target = String.trim (String.sub s 0 i) in
    let events = String.sub s (i + 1) (String.length s - i - 1) in
    let target =
      if target = "*" then None
      else
        match int_of_string_opt target with
        | Some j when j >= 0 -> Some j
        | _ -> invalid_arg (Printf.sprintf "Fault.parse: bad target %S" target)
    in
    let events =
      String.split_on_char ',' events
      |> List.filter (fun s -> String.trim s <> "")
      |> List.map parse_event
    in
    if events = [] then invalid_arg (Printf.sprintf "Fault.parse: group %S has no events" s);
    (target, events)

let parse s =
  let groups =
    String.split_on_char ';' s |> List.filter (fun s -> String.trim s <> "")
  in
  if groups = [] then invalid_arg "Fault.parse: empty spec";
  List.map parse_group groups

let pp_event ppf = function
  | Drift { start; ramp; factor } -> Fmt.pf ppf "drift@%d+%dx%g" start ramp factor
  | Burst { rate; mean_len; amplitude } -> Fmt.pf ppf "burst@%g+%gx%g" rate mean_len amplitude
  | Stall { start; len } -> Fmt.pf ppf "stall@%d+%d" start len
  | Dropout { rate; mean_len } -> Fmt.pf ppf "dropout@%g+%g" rate mean_len
  | Corrupt { rate } -> Fmt.pf ppf "corrupt@%g" rate
  | Misdeclare { mean; sigma2; hurst } ->
    let field name = function None -> [] | Some v -> [ Printf.sprintf "%s=%g" name v ] in
    Fmt.pf ppf "%s"
      (String.concat "," (field "mean" mean @ field "sigma2" sigma2 @ field "hurst" hurst))
