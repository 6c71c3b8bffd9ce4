(* Benchmark entry point. See README.md in this directory.

     main.exe --workload W --seed S --seconds N --trace 0|1
     main.exe series --seeds A-B --seconds N [--trace 0|1] --out FILE
     main.exe compare A.json B.json
     main.exe smoke --spec BENCHMARK.json

   Every measured run happens in a fresh child process of this
   executable, one at a time, on one domain. *)

module W = Workloads

let now_s () = float_of_int (Tracer.now_ns ()) *. 1e-9
let out_dir = "_bench"
let vbrsim_default = "_build/default/bin/vbrsim.exe"

(* ------------------------------------------------------------------ *)
(* Metric table: the single source of truth BENCHMARK.json mirrors.   *)

type better = Lower | Higher

type metric = { name : string; unit_ : string; better : better; bound : float }

let better_str = function Lower -> "lower" | Higher -> "higher"

let end_to_end =
  [
    { name = "ops_per_s"; unit_ = "ops/s"; better = Higher; bound = 0.25 };
    { name = "setup_s"; unit_ = "s"; better = Lower; bound = 0.25 };
    { name = "peak_rss_mb"; unit_ = "MB"; better = Lower; bound = 0.05 };
  ]

let per_layer =
  List.map
    (fun (name, unit_, better) -> { name; unit_; better; bound = nan })
    [
      ("video.trace_load_s", "s", Lower);
      ("core.fit_s", "s", Lower);
      ("mux.source.build_s", "s", Lower);
      ("mux.source.pull_ns_per_slot", "ns", Lower);
      ("mux.source.pull_share", "fraction", Lower);
      ("mux.engine.self_ns_per_slot", "ns", Lower);
      ("mux.engine.share", "fraction", Lower);
      ("mux.fault.share", "fraction", Lower);
      ("mux.police.share", "fraction", Lower);
      ("mux.police.incidents", "count", Higher);
      ("checkpoint.share", "fraction", Lower);
      ("checkpoint.snapshots", "count", Higher);
      ("checkpoint.bytes_per_snapshot", "bytes", Lower);
      ("abr.trajectory.share", "fraction", Lower);
      ("abr.fleet.share", "fraction", Lower);
      ("mux_is.hit_ratio", "fraction", Higher);
      ("mux_is.normalized_variance", "ratio", Lower);
      ("mux_is.slots_per_replication", "slots", Lower);
      ("gc.minor_words_per_op", "words/op", Lower);
      ("gc.major_words_per_op", "words/op", Lower);
      ("gc.major_collections", "count", Lower);
      ("trace.overhead_frac", "fraction", Lower);
    ]

let machine =
  Printf.sprintf "cores %d, OCaml %s, flambda %b, %s/%s"
    (Domain.recommended_domain_count ())
    Machine_info.ocaml_version Machine_info.flambda Machine_info.architecture
    Machine_info.system

(* ------------------------------------------------------------------ *)
(* Child processes                                                     *)

type child = {
  wall_s : float;
  ok : bool;  (** exited 0 and printed a complete record *)
  fields : (string * string) list;
}

let field c k = List.assoc_opt k c.fields
let num c k = match field c k with Some v -> float_of_string v | None -> nan

(* Runs [prog args] with SS_DOMAINS=1, returning its stdout; the
   child is killed if it outlives [timeout] seconds. *)
let spawn ?(timeout = 170.0) prog args =
  let env =
    Array.append [| "SS_DOMAINS=1" |]
      (Array.of_list
         (List.filter
            (fun kv -> not (String.starts_with ~prefix:"SS_DOMAINS=" kv))
            (Array.to_list (Unix.environment ()))))
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let t0 = now_s () in
  let pid =
    Unix.create_process_env prog (Array.of_list (prog :: args)) env Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let rec drain () =
    let left = timeout -. (now_s () -. t0) in
    if left <= 0.0 then false
    else
      match Unix.select [ rd ] [] [] left with
      | [], _, _ -> false
      | _ -> (
        match Unix.read rd chunk 0 (Bytes.length chunk) with
        | 0 -> true
        | k ->
          Buffer.add_subbytes buf chunk 0 k;
          drain ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
  in
  let finished = drain () in
  if not finished then (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  Unix.close rd;
  let _, status = Unix.waitpid [] pid in
  let wall = now_s () -. t0 in
  (finished && status = Unix.WEXITED 0, Buffer.contents buf, wall)

let run_child ~trace ~seed ~dir ~size ~mode ?spans (w : W.t) =
  let args =
    [ "child"; "--workload"; w.W.name; "--seed"; string_of_int seed; "--trace-file"; trace;
      "--dir"; dir; "--size"; size; "--mode"; mode ]
    @ match spans with Some p -> [ "--spans"; p ] | None -> []
  in
  let ok, out, wall_s = spawn Sys.executable_name args in
  let fields =
    List.filter_map
      (fun line ->
        match String.index_opt line ' ' with
        | Some i -> Some (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1))
        | None -> None)
      (String.split_on_char '\n' out)
  in
  { wall_s; ok = ok && List.mem_assoc "end" fields; fields }

(* The process's peak resident set so far, in MB. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun l ->
         if String.starts_with ~prefix:"VmHWM:" l then
           Scanf.sscanf l "VmHWM: %d kB" (fun kb -> Some (float_of_int kb /. 1024.0))
         else None)
  |> Option.value ~default:nan

(* What a child prints: one "key value" per line, "end" last. *)
let child_main ~workload ~seed ~trace_file ~dir ~size ~mode ~spans =
  let t_start = Tracer.now_ns () in
  let w = W.find workload in
  let size = match size with "smoke" -> w.W.smoke | _ -> w.W.full in
  let tr = if mode = "traced" then Some (Tracer.create ()) else None in
  let run = w.W.prepare { W.trace_path = trace_file; seed; dir; size; tr } in
  let t_setup = Tracer.now_ns () in
  Printf.printf "setup_s %.9f\n" (float_of_int (t_setup - t_start) *. 1e-9);
  if mode <> "setup" then begin
    let g0 = Gc.quick_stat () in
    let t0 = Tracer.now_ns () in
    let r = run () in
    let t1 = Tracer.now_ns () in
    let g1 = Gc.quick_stat () in
    (* The peak of the run itself, before the checks below allocate. *)
    Printf.printf "rss_mb %.6f\n" (peak_rss_mb ());
    Printf.printf "run_s %.9f\nops %.17g\ndigest %s\n"
      (float_of_int (t1 - t0) *. 1e-9)
      r.W.ops (r.W.digest ());
    Printf.printf "gc.minor_words %.17g\ngc.major_words %.17g\ngc.major_collections %d\n"
      (g1.Gc.minor_words -. g0.Gc.minor_words)
      (g1.Gc.major_words -. g0.Gc.major_words)
      (g1.Gc.major_collections - g0.Gc.major_collections);
    List.iter
      (fun (name, ok) -> Printf.printf "check %s %d\n" name (if ok then 1 else 0))
      (r.W.verify ());
    let layers = r.W.layers () in
    List.iter (fun (name, v) -> Printf.printf "layer %s %.17g\n" name v) layers;
    match (tr, spans) with
    | Some t, Some path ->
      let doc = Jsonv.to_string (Tracer.to_json t ~workload ~seed ~layers) in
      let valid = Result.is_ok (Ss_json.validate doc) in
      Printf.printf "check spans.strict_json %d\n" (if valid then 1 else 0);
      Out_channel.with_open_bin path (fun oc -> output_string oc doc)
    | _ -> ()
  end;
  print_endline "end ."

(* ------------------------------------------------------------------ *)
(* One benchmark run: one workload, one seed                           *)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let mkdir_p path = if not (Sys.file_exists path) then Sys.mkdir path 0o755

type checks = { mutable attempted : int; mutable failed : string list }

let check ck name ok =
  ck.attempted <- ck.attempted + 1;
  if not ok then begin
    ck.failed <- name :: ck.failed;
    Printf.eprintf "benchmark: check failed: %s\n%!" name
  end

let child_checks ck ~what (c : child) =
  check ck (what ^ ": child exited cleanly") c.ok;
  List.iter
    (fun (k, v) ->
      if k = "check" then
        match String.split_on_char ' ' v with
        | [ name; flag ] -> check ck (what ^ ": " ^ name) (flag = "1")
        | _ -> check ck (what ^ ": malformed check line") false)
    c.fields

(* The mirrored CLI run must print, byte for byte, what the in-process
   run of the same inputs reports. *)
let parity ck ~vbrsim ~trace ~seed ~dir ?size (w : W.t) =
  Option.iter
    (fun (cli : W.cli) ->
      let size = Option.value size ~default:cli.W.parity in
      let ok, out, _ = spawn vbrsim (cli.W.args ~trace ~seed ~dir size) in
      let r = w.W.prepare { W.trace_path = trace; seed; dir; size; tr = None } () in
      let texts = r.W.cli_text () in
      check ck
        (Printf.sprintf "%s: vbrsim %s prints the in-process report" w.W.name
           (String.concat " " (cli.W.args ~trace:"TRACE" ~seed ~dir:"DIR" size)))
        (ok && texts <> [] && List.for_all (fun t -> contains ~sub:t out) texts))
    w.W.cli

type quartiles = { n : int; q1 : float; q2 : float; q3 : float }

let summarize xs =
  let xs = List.filter Float.is_finite xs in
  if xs = [] then { n = 0; q1 = nan; q2 = nan; q3 = nan }
  else
    let q1, _, q3 = Bstats.quartiles xs in
    { n = List.length xs; q1; q2 = Bstats.median xs; q3 }

let pp_row name unit_ q extra =
  Printf.printf "%-30s %-9s %3d %14.6g %14.6g %14.6g  %s\n" name unit_ q.n q.q1 q.q2 q.q3 extra

let header () =
  Printf.printf "%-30s %-9s %3s %14s %14s %14s  %s\n" "metric" "unit" "n" "q1" "median" "q3"
    "bound"

let result_line ck metrics =
  let m =
    List.map
      (fun (name, unit_, v) ->
        (name, Jsonv.Obj [ ("value", Jsonv.Num v); ("unit", Jsonv.Str unit_) ]))
      metrics
  in
  Jsonv.to_string
    (Jsonv.Obj
       [
         ("correct", Jsonv.Bool (ck.failed = []));
         ("attempted", Jsonv.Num (float_of_int ck.attempted));
         ("failed", Jsonv.Num (float_of_int (List.length ck.failed)));
         ("metrics", Jsonv.Obj m);
       ])

let setup_children = 4
let min_full_runs = 3

let bench ~workload ~seed ~seconds ~traced ~vbrsim =
  (* [seconds] covers the whole invocation: input generation, parity
     and set-up children included. *)
  let t0 = now_s () in
  let w = W.find workload in
  if not (Sys.file_exists vbrsim) then begin
    Printf.eprintf "benchmark: %s not found; build it first (benchmark/run.sh does)\n" vbrsim;
    exit 2
  end;
  mkdir_p out_dir;
  let dir = Filename.concat out_dir (Printf.sprintf "run-%d" (Unix.getpid ())) in
  mkdir_p dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let trace = Filename.concat dir "trace.txt" in
  W.make_trace ~seed trace;
  let ck = { attempted = 0; failed = [] } in
  parity ck ~vbrsim ~trace ~seed ~dir w;
  (* The reference loops run in their own process, so they leave the
     child's caches and heap alone: once before the first child and
     once after every child. Each child records the reading before it
     for its set-up and the mean of both for its run phase. *)
  let reference () =
    match spawn Sys.executable_name [ "reference" ] with
    | true, out, _ -> Option.value (float_of_string_opt (String.trim out)) ~default:nan
    | false, _, _ -> nan
  in
  let last_ref = ref (reference ()) in
  let child mode =
    let spans =
      if mode = "traced" then Some (Filename.concat out_dir ("spans-" ^ workload ^ ".json"))
      else None
    in
    let c = run_child ~trace ~seed ~dir ~size:"full" ~mode ?spans w in
    let before = !last_ref and after = reference () in
    last_ref := after;
    child_checks ck ~what:mode c;
    let reading v = Printf.sprintf "%.17g" v in
    let readings =
      [ ("ref_setup_s", reading before); ("ref_run_s", reading ((before +. after) /. 2.0)) ]
    in
    { c with fields = readings @ c.fields }
  in
  let setups = if traced then [] else List.init setup_children (fun _ -> child "setup") in
  (* Full runs while another one, at the median length of its mode so
     far, fits in the budget; traced mode interleaves untraced and
     traced children so both see the same host phases. *)
  let rec loop i acc =
    let mode = if traced && i mod 2 = 1 then "traced" else "run" in
    let untraced = List.filter (fun (m, _) -> m = "run") acc in
    let walls = List.filter_map (fun (m, c) -> if m = mode then Some c.wall_s else None) acc in
    let enough =
      if traced then List.length untraced >= 2 && List.length acc >= 3
      else List.length acc >= min_full_runs
    in
    if enough && now_s () -. t0 +. Bstats.median walls > seconds then List.rev acc
    else loop (i + 1) ((mode, child mode) :: acc)
  in
  let runs = List.filter (fun (_, c) -> c.ok) (loop 0 []) in
  let of_mode m = List.filter_map (fun (m', c) -> if m = m' then Some c else None) runs in
  let full = of_mode "run" and traced_runs = of_mode "traced" in
  let digests = List.sort_uniq compare (List.map (fun (_, c) -> field c "digest") runs) in
  check ck (workload ^ ": every run reports the same digest") (List.length digests = 1);
  if full = [] then failwith ("no run of " ^ workload ^ " completed");
  let per cs k = List.map (fun c -> num c k) cs in
  (* Each child's times at nominal host speed: scaled by the speed the
     reference loops measured next to it (see hostref.ml). *)
  let speed c k = Hostref.nominal_s /. num c k in
  let run_s c = num c "run_s" *. speed c "ref_run_s" in
  let ops_per_s cs = List.map (fun c -> num c "ops" /. run_s c) cs in
  let setup_runs = List.filter (fun c -> c.ok) setups @ full in
  let setup_s cs = List.map (fun c -> num c "setup_s" *. speed c "ref_setup_s") cs in
  Printf.printf "# workload %s (op = %s), seed %d, %g s, one domain; %s\n" workload w.W.op seed
    seconds machine;
  header ();
  let row name unit_ xs extra =
    let q = summarize xs in
    pp_row name unit_ q extra;
    (name, unit_, q.q2)
  in
  let metrics =
    if not traced then begin
      let samples =
        [
          ("ops_per_s", ops_per_s full);
          ("setup_s", setup_s setup_runs);
          ("peak_rss_mb", per full "rss_mb");
        ]
      in
      let metrics =
        List.map
          (fun m -> row m.name m.unit_ (List.assoc m.name samples) (Printf.sprintf "%g" m.bound))
          end_to_end
      in
      let detail name unit_ xs = ignore (row name unit_ xs "(detail)") in
      detail "ops_per_s.as_run" "ops/s" (List.map (fun c -> num c "ops" /. num c "run_s") full);
      detail "setup_s.as_run" "s" (per setup_runs "setup_s");
      detail "host.speed" "x" (List.map (fun c -> speed c "ref_run_s") full);
      detail "wall_s" "s" (List.map (fun c -> c.wall_s) full);
      metrics
    end
    else begin
      let ops = per full "ops" in
      let per_op k = List.map2 (fun v o -> v /. o) (per full k) ops in
      (* Each traced child against the untraced one just before it,
         so both ran in the same host phase. *)
      let rec pairs = function
        | ("run", u) :: (("traced", t) :: _ as rest) -> ((run_s t /. run_s u) -. 1.0) :: pairs rest
        | _ :: rest -> pairs rest
        | [] -> []
      in
      let overhead = pairs runs in
      let extra =
        [
          ("gc.minor_words_per_op", per_op "gc.minor_words");
          ("gc.major_words_per_op", per_op "gc.major_words");
          ("gc.major_collections", per full "gc.major_collections");
          ("trace.overhead_frac", overhead);
        ]
      in
      let layer_samples name =
        List.filter_map
          (fun c ->
            List.find_map
              (fun (k, v) ->
                match String.split_on_char ' ' v with
                | [ n; x ] when k = "layer" && n = name -> Some (float_of_string x)
                | _ -> None)
              c.fields)
          traced_runs
      in
      let listed = List.map (fun m -> m.name) per_layer in
      let metrics =
        List.map
          (fun m ->
            let xs =
              match List.assoc_opt m.name extra with Some xs -> xs | None -> layer_samples m.name
            in
            (* A layer the workload never calls did no work. *)
            row m.name m.unit_ (if xs = [] then [ 0.0 ] else xs) "")
          per_layer
      in
      (* Layer numbers that exist only on this workload, for the
         ledger; they are not part of the result line. *)
      let details =
        List.sort_uniq compare
          (List.concat_map
             (fun c ->
               List.filter_map
                 (fun (k, v) ->
                   match String.split_on_char ' ' v with
                   | [ n; _ ] when k = "layer" && not (List.mem n listed) -> Some n
                   | _ -> None)
                 c.fields)
             traced_runs)
      in
      List.iter (fun d -> ignore (row d "" (layer_samples d) "(detail)")) details;
      check ck (workload ^ ": traced run measured") (traced_runs <> []);
      metrics
    end
  in
  Printf.printf "# checks: %d attempted, %d failed: %s\n" ck.attempted (List.length ck.failed)
    (if ck.failed = [] then "pass" else "FAIL");
  print_endline (result_line ck metrics)

(* ------------------------------------------------------------------ *)
(* Smoke: every workload at about 1/64 size, checks only               *)

(* BENCHMARK.json lists exactly this program's workloads and metrics. *)
let spec_matches path =
  let open Jsonv in
  let doc = of_file path in
  let rows key f = List.map f (to_list (member key doc)) in
  let str k m = to_str (member k m) in
  rows "workloads" (fun m -> (str "name" m, str "why" m))
  = List.map (fun (w : W.t) -> (w.W.name, w.W.why)) W.all
  && rows "end_to_end" (fun m -> (str "name" m, str "unit" m, str "better" m, to_num (member "bound" m)))
     = List.map (fun m -> (m.name, m.unit_, better_str m.better, m.bound)) end_to_end
  && rows "per_layer" (fun m -> (str "name" m, str "unit" m, str "better" m))
     = List.map (fun m -> (m.name, m.unit_, better_str m.better)) per_layer

let smoke ~vbrsim ~spec =
  let ck = { attempted = 0; failed = [] } in
  check ck "BENCHMARK.json matches the metric table" (spec_matches spec);
  mkdir_p out_dir;
  let dir = Filename.concat out_dir (Printf.sprintf "smoke-%d" (Unix.getpid ())) in
  mkdir_p dir;
  Fun.protect ~finally:(fun () -> rm_rf dir; try Sys.rmdir out_dir with Sys_error _ -> ())
  @@ fun () ->
  let seed = 1 in
  let trace = Filename.concat dir "trace.txt" in
  W.make_trace ~seed trace;
  List.iter
    (fun (w : W.t) ->
      let t0 = now_s () in
      parity ck ~vbrsim ~trace ~seed ~dir ~size:w.W.smoke w;
      let spans = Filename.concat dir ("spans-" ^ w.W.name ^ ".json") in
      let plain = run_child ~trace ~seed ~dir ~size:"smoke" ~mode:"run" w in
      let traced = run_child ~trace ~seed ~dir ~size:"smoke" ~mode:"traced" ~spans w in
      child_checks ck ~what:(w.W.name ^ " run") plain;
      child_checks ck ~what:(w.W.name ^ " traced") traced;
      check ck (w.W.name ^ ": traced digest equals untraced")
        (field plain "digest" <> None && field plain "digest" = field traced "digest");
      check ck (w.W.name ^ ": spans file is strict JSON")
        (Result.is_ok (Ss_json.validate_file spans));
      Printf.printf "smoke %-12s %.1f s\n%!" w.W.name (now_s () -. t0))
    W.all;
  Printf.printf "smoke: %d checks, %d failed\n" ck.attempted (List.length ck.failed);
  if ck.failed <> [] then failwith "smoke failed"

(* ------------------------------------------------------------------ *)
(* Series and comparison                                               *)

(* What one series file holds for one workload: each metric's
   [(seed, value)] samples from the runs that printed a result, the
   runs made, those that printed no result, and the output checks
   attempted and failed over all of them. *)
type side = {
  samples : (string, (float * float) list) Hashtbl.t;
  mutable runs : int;
  mutable missing : int;
  mutable checks : int;
  mutable failed_checks : int;
}

let load_series path =
  let doc = Jsonv.of_file path in
  let sides = Hashtbl.create 8 in
  List.iter
    (fun run ->
      let w = Jsonv.to_str (Jsonv.member "workload" run) in
      let side =
        match Hashtbl.find_opt sides w with
        | Some s -> s
        | None ->
          let s =
            { samples = Hashtbl.create 32; runs = 0; missing = 0; checks = 0; failed_checks = 0 }
          in
          Hashtbl.add sides w s;
          s
      in
      let seed = Jsonv.to_num (Jsonv.member "seed" run) in
      side.runs <- side.runs + 1;
      match Jsonv.member "result" run with
      | Jsonv.Obj _ as result ->
        side.checks <- side.checks + int_of_float (Jsonv.to_num (Jsonv.member "attempted" result));
        side.failed_checks <-
          side.failed_checks + int_of_float (Jsonv.to_num (Jsonv.member "failed" result));
        List.iter
          (fun (k, v) ->
            let prev = Option.value (Hashtbl.find_opt side.samples k) ~default:[] in
            Hashtbl.replace side.samples k ((seed, Jsonv.to_num (Jsonv.member "value" v)) :: prev))
          (match Jsonv.member "metrics" result with Jsonv.Obj kvs -> kvs | _ -> [])
      | _ -> side.missing <- side.missing + 1)
    (Jsonv.to_list (Jsonv.member "runs" doc));
  sides

let samples sides w metric =
  match Hashtbl.find_opt sides w with
  | None -> None
  | Some s -> Hashtbl.find_opt s.samples metric

let pp_health name s =
  Printf.printf "%-14s %d runs, %d without a result, %d of %d checks failed\n" name s.runs
    s.missing s.failed_checks s.checks

(* The acceptance view of one series: per workload and end-to-end
   metric, the interquartile distance over the median across seeds,
   against the metric's bound. *)
let print_spreads sides =
  Printf.printf "%-12s %-12s %3s %12s %8s %6s\n" "workload" "metric" "n" "median" "spread"
    "bound";
  List.iter
    (fun (w : W.t) ->
      List.iter
        (fun m ->
          match samples sides w.W.name m.name with
          | None -> ()
          | Some xs ->
            let q = summarize (List.map snd xs) in
            let spread = Bstats.spread (List.map snd xs) in
            Printf.printf "%-12s %-12s %3d %12.6g %8.4f %6g  %s\n" w.W.name m.name q.n q.q2
              spread m.bound
              (if spread <= m.bound /. 3.0 then "steady"
               else if spread <= m.bound then "within bound"
               else "wider than bound"))
        end_to_end)
    W.all;
  List.iter
    (fun (w : W.t) -> Option.iter (pp_health w.W.name) (Hashtbl.find_opt sides w.W.name))
    W.all

let series ~seeds ~seconds ~trace ~vbrsim ~out =
  let runs =
    List.concat_map
      (fun seed ->
        List.map
          (fun (w : W.t) ->
            let ok, stdout, wall =
              spawn ~timeout:600.0 Sys.executable_name
                [ "--workload"; w.W.name; "--seed"; string_of_int seed; "--seconds";
                  string_of_float seconds; "--trace"; string_of_int trace; "--vbrsim"; vbrsim ]
            in
            let last =
              List.fold_left
                (fun acc l -> if String.trim l = "" then acc else l)
                "" (String.split_on_char '\n' stdout)
            in
            Printf.eprintf "series: %s seed %d: %.1f s%s\n%!" w.W.name seed wall
              (if ok then "" else " (FAILED)");
            let result = try Jsonv.parse last with Jsonv.Parse_error _ -> Jsonv.Null in
            Jsonv.Obj
              [
                ("workload", Jsonv.Str w.W.name);
                ("seed", Jsonv.Num (float_of_int seed));
                ("wall_s", Jsonv.Num wall);
                ("result", (if ok then result else Jsonv.Null));
              ])
          W.all)
      seeds
  in
  let doc =
    Jsonv.to_string
      (Jsonv.Obj
         [
           ("machine", Jsonv.Str machine);
           ("seconds", Jsonv.Num seconds);
           ("trace", Jsonv.Num (float_of_int trace));
           ("runs", Jsonv.Arr runs);
         ])
  in
  (match Ss_json.validate doc with
  | Ok () -> ()
  | Error e -> failwith ("series: output is not strict JSON: " ^ e));
  Out_channel.with_open_bin out (fun oc -> output_string oc (doc ^ "\n"));
  Printf.printf "wrote %s\n" out;
  if trace = 0 then print_spreads (load_series out)

(* Verdict on B against A for one metric: worse beyond the bound,
   better only when B wins nine tenths of the seed-paired runs by more
   than A's own interquartile distance, unresolved when either side's
   spread exceeds the bound (unless every B run beats every A run). *)
let verdict ~better ~bound a b =
  let va = List.map snd a and vb = List.map snd b in
  let sign = match better with Lower -> 1.0 | Higher -> -1.0 in
  let worse x y = sign *. (y -. x) > 0.0 in
  let qa = summarize va and qb = summarize vb in
  let all_better =
    List.for_all (fun y -> List.for_all (fun x -> worse y x) va) vb
  in
  let pairs = List.filter_map (fun (s, y) -> Option.map (fun x -> (x, y)) (List.assoc_opt s a)) b in
  let wins = List.length (List.filter (fun (x, y) -> worse y x) pairs) in
  let change = sign *. (qb.q2 -. qa.q2) /. Float.abs qa.q2 in
  if all_better && va <> [] && vb <> [] then "better"
  else if Float.max (Bstats.spread va) (Bstats.spread vb) > bound then "unresolved"
  else if change > bound then "worse"
  else if
    pairs <> []
    && float_of_int wins >= 0.9 *. float_of_int (List.length pairs)
    && Float.abs (qb.q2 -. qa.q2) > qa.q3 -. qa.q1
  then "better"
  else "unchanged"

(* B's numbers count only when B failed no more checks and left no
   more runs without a result than A; otherwise every metric of that
   workload is "invalid". *)
let compare_files fa fb =
  let a = load_series fa and b = load_series fb in
  Printf.printf "%-12s %-12s %11s %11s %11s | %11s %11s %11s %6s  %s\n" "workload" "metric" "A q1"
    "A median" "A q3" "B q1" "B median" "B q3" "bound" "verdict";
  List.iter
    (fun (w : W.t) ->
      match (Hashtbl.find_opt a w.W.name, Hashtbl.find_opt b w.W.name) with
      | Some ha, Some hb ->
        let invalid = hb.failed_checks > ha.failed_checks || hb.missing > ha.missing in
        List.iter
          (fun m ->
            match (samples a w.W.name m.name, samples b w.W.name m.name) with
            | Some sa, Some sb ->
              let qa = summarize (List.map snd sa) and qb = summarize (List.map snd sb) in
              Printf.printf "%-12s %-12s %11.5g %11.5g %11.5g | %11.5g %11.5g %11.5g %6g  %s\n"
                w.W.name m.name qa.q1 qa.q2 qa.q3 qb.q1 qb.q2 qb.q3 m.bound
                (if invalid then "invalid" else verdict ~better:m.better ~bound:m.bound sa sb)
            | _ -> Printf.printf "%-12s %-12s no samples  invalid\n" w.W.name m.name)
          end_to_end
      | _ -> ())
    W.all;
  List.iter
    (fun (label, sides) ->
      List.iter
        (fun (w : W.t) ->
          Option.iter (pp_health (label ^ " " ^ w.W.name)) (Hashtbl.find_opt sides w.W.name))
        W.all)
    [ ("A", a); ("B", b) ]

(* ------------------------------------------------------------------ *)

let () =
  let argv = Array.to_list Sys.argv |> List.tl in
  let sub, rest =
    match argv with
    | ("child" | "reference" | "series" | "compare" | "smoke") as s :: rest -> (s, rest)
    | rest -> ("bench", rest)
  in
  let rec opts acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> opts ((k, v) :: acc) rest
    | [] -> (acc, [])
    | positional -> (acc, positional)
  in
  let kv, positional = opts [] rest in
  let get k = List.assoc_opt ("--" ^ k) kv in
  let req k =
    match get k with
    | Some v -> v
    | None ->
      Printf.eprintf "benchmark: missing --%s\n" k;
      exit 2
  in
  let int_opt k d = match get k with Some v -> int_of_string v | None -> d in
  let vbrsim = Option.value (get "vbrsim") ~default:vbrsim_default in
  try
    match sub with
    | "child" ->
      child_main ~workload:(req "workload") ~seed:(int_of_string (req "seed"))
        ~trace_file:(req "trace-file") ~dir:(req "dir") ~size:(req "size") ~mode:(req "mode")
        ~spans:(get "spans")
    | "reference" -> Printf.printf "%.9f\n" (Hostref.time_s ())
    | "smoke" -> smoke ~vbrsim ~spec:(req "spec")
    | "compare" -> (
      match positional with
      | [ a; b ] -> compare_files a b
      | _ ->
        prerr_endline "usage: main.exe compare A.json B.json";
        exit 2)
    | "series" ->
      let seeds =
        match String.split_on_char '-' (req "seeds") with
        | [ a; b ] -> List.init (int_of_string b - int_of_string a + 1) (fun i -> int_of_string a + i)
        | _ -> List.map int_of_string (String.split_on_char ',' (req "seeds"))
      in
      series ~seeds
        ~seconds:(float_of_string (req "seconds"))
        ~trace:(int_opt "trace" 0) ~vbrsim ~out:(req "out")
    | _ ->
      if positional <> [] then begin
        Printf.eprintf "benchmark: unexpected argument %S\n" (List.hd positional);
        exit 2
      end;
      bench ~workload:(req "workload") ~seed:(int_of_string (req "seed"))
        ~seconds:(float_of_string (req "seconds"))
        ~traced:(int_opt "trace" 0 = 1) ~vbrsim
  with Invalid_argument msg | Failure msg | Sys_error msg ->
    Printf.eprintf "benchmark: %s\n" msg;
    exit 2
