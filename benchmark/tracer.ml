(* Spans and busy counters recorded from the benchmark's own code,
   around calls into the libraries' public functions. [span] and the
   wrappers take a [t option]: with [None] (the untraced run) they add
   one match and nothing else. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Aggregated busy time for calls too frequent to keep one span each
   (block pulls, per-slot trajectory sinks). [ns] covers only the
   [timed_slots] of the calls that were timed. *)
type counter = {
  mutable calls : int;
  mutable slots : int;
  mutable timed_slots : int;
  mutable ns : int;
}

type t = {
  mutable spans : Bstats.span array;
  mutable len : int;
  mutable current : int;  (** index of the innermost open span, or -1 *)
  counters : (string, counter) Hashtbl.t;
}

let create () = { spans = [||]; len = 0; current = -1; counters = Hashtbl.create 8 }

let span tr name f =
  match tr with
  | None -> f ()
  | Some t ->
    if t.len = Array.length t.spans then begin
      let empty = { Bstats.name = ""; start_ns = 0; end_ns = 0; parent = -1 } in
      let bigger = Array.make (Stdlib.max 64 (2 * t.len)) empty in
      Array.blit t.spans 0 bigger 0 t.len;
      t.spans <- bigger
    end;
    let id = t.len and parent = t.current in
    t.spans.(id) <- { Bstats.name; start_ns = now_ns (); end_ns = 0; parent };
    t.len <- id + 1;
    t.current <- id;
    Fun.protect
      ~finally:(fun () ->
        t.spans.(id) <- { (t.spans.(id)) with end_ns = now_ns () };
        t.current <- parent)
      f

let spans t = Array.sub t.spans 0 t.len

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
    let c = { calls = 0; slots = 0; timed_slots = 0; ns = 0 } in
    Hashtbl.add t.counters name c;
    c

(* Busy time of all calls, extrapolated from the timed ones. *)
let busy_ns c =
  if c.timed_slots = 0 then 0
  else int_of_float (float_of_int c.ns *. float_of_int c.slots /. float_of_int c.timed_slots)

let counter_ns t name =
  match Hashtbl.find_opt t.counters name with Some c -> busy_ns c | None -> 0

let record c ~t0 ~slots =
  c.ns <- c.ns + (now_ns () - t0);
  c.timed_slots <- c.timed_slots + slots

(* Summed durations of every span of that name. *)
let total_ns t name =
  Array.fold_left
    (fun acc (s : Bstats.span) -> if s.name = name then acc + (s.end_ns - s.start_ns) else acc)
    0 (spans t)

(* Summed self time (duration minus the union of child spans) of
   every span of that name. *)
let self_ns t name =
  let all = spans t in
  let acc = ref 0 in
  Array.iteri (fun i s -> if s.Bstats.name = name then acc := !acc + Bstats.self_ns all i) all;
  !acc

let durations_ms t name =
  Array.to_list (spans t)
  |> List.filter_map (fun (s : Bstats.span) ->
         if s.name = name then Some (float_of_int (s.end_ns - s.start_ns) *. 1e-6) else None)

(* Pulls are timed one call in [sample]. A clock read costs ~40 ns
   and serializes the pipeline, which in a memory-bound staging loop
   of ~1 us block pulls costs more than the read itself; 7 is coprime
   with the power-of-two source counts, so timed calls rotate over
   sources. *)
let sample = 7

(* The same stream, re-wrapped so every block or scalar pull adds to
   the counter: the engine sees identical slots. *)
let timed_source c (src : Ss_mux.Source.t) =
  let pull_block w cb off len =
    c.calls <- c.calls + 1;
    let t0 = if c.calls mod sample = 0 then now_ns () else -1 in
    let n = src.Ss_mux.Source.pull_block w cb off len in
    if t0 >= 0 then record c ~t0 ~slots:n;
    c.slots <- c.slots + n;
    n
  in
  let pull () =
    c.calls <- c.calls + 1;
    let t0 = if c.calls mod sample = 0 then now_ns () else -1 in
    let r = src.Ss_mux.Source.pull () in
    if t0 >= 0 then record c ~t0 ~slots:1;
    c.slots <- c.slots + 1;
    r
  in
  Ss_mux.Source.make ~pull_block ?ckpt:src.Ss_mux.Source.ckpt ~name:src.Ss_mux.Source.name
    ~mean:src.Ss_mux.Source.mean ~sigma2:src.Ss_mux.Source.sigma2
    ~hurst:src.Ss_mux.Source.hurst pull

let wrap_sources tr name srcs =
  match tr with
  | None -> srcs
  | Some t ->
    let c = counter t name in
    Array.map (timed_source c) srcs

let timed_sink c sink ~slot ~served ~delays =
  let t0 = now_ns () in
  sink ~slot ~served ~delays;
  record c ~t0 ~slots:1;
  c.calls <- c.calls + 1;
  c.slots <- c.slots + 1

let wrap_sink tr name sink =
  match tr with None -> sink | Some t -> timed_sink (counter t name) sink

let to_json t ~workload ~seed ~layers =
  let span_json (s : Bstats.span) =
    Jsonv.Obj
      [
        ("name", Jsonv.Str s.Bstats.name);
        ("start_ns", Jsonv.Num (float_of_int s.Bstats.start_ns));
        ("end_ns", Jsonv.Num (float_of_int s.Bstats.end_ns));
        ("parent", if s.Bstats.parent < 0 then Jsonv.Null else Jsonv.Num (float_of_int s.Bstats.parent));
      ]
  in
  let counters =
    Hashtbl.fold
      (fun k c acc ->
        ( k,
          Jsonv.Obj
            [
              ("calls", Jsonv.Num (float_of_int c.calls));
              ("slots", Jsonv.Num (float_of_int c.slots));
              ("timed_slots", Jsonv.Num (float_of_int c.timed_slots));
              ("ns", Jsonv.Num (float_of_int c.ns));
            ] )
        :: acc)
      t.counters []
    |> List.sort compare
  in
  Jsonv.Obj
    [
      ("workload", Jsonv.Str workload);
      ("seed", Jsonv.Num (float_of_int seed));
      ("spans", Jsonv.Arr (Array.to_list (Array.map span_json (spans t))));
      ("counters", Jsonv.Obj counters);
      ("layers", Jsonv.Obj (List.map (fun (k, v) -> (k, Jsonv.Num v)) layers));
    ]
