(* The host's momentary speed, from fixed reference loops timed in their
   own process right before and right after each child.

   On a shared host the speed a core gives one process drifts by tens
   of percent over seconds to minutes, as co-tenants come and go and
   load the shared caches, memory and core. How much a workload slows
   depends on what bounds it, so the reference does a little of what
   the workloads do: it streams through a 16 MB array, which misses L2
   and lives in the shared L3, and it churns short-lived lists through
   the minor heap, promoting some of them to the major heap as the
   program's own allocation does. Each takes about a tenth of a second
   on the reference VM. A rate scaled by the host speed they report is
   what the benchmark compares across runs. The loops live here,
   outside the program under test, so no change to the program moves
   them. *)

(* What one [time_s] takes on a host of nominal speed, by definition:
   about its median on the reference VM, so that scaled numbers read
   close to measured ones on a typical phase. *)
let nominal_s = 0.16

(* Four independent sums over [a], [passes] times. *)
let stream (a : float array) ~passes =
  let n = Array.length a in
  let s0 = ref 0.0 and s1 = ref 0.0 and s2 = ref 0.0 and s3 = ref 0.0 in
  for _ = 1 to passes do
    let i = ref 0 in
    while !i < n do
      s0 := !s0 +. Array.unsafe_get a !i;
      s1 := !s1 +. Array.unsafe_get a (!i + 1);
      s2 := !s2 +. Array.unsafe_get a (!i + 2);
      s3 := !s3 +. Array.unsafe_get a (!i + 3);
      i := !i + 4
    done
  done;
  !s0 +. !s1 +. !s2 +. !s3

(* [n] boxed pairs consed onto 4096 lists, each dropped every eighth
   visit, so most die young and the rest are promoted. *)
let churn ~n =
  let keep = Array.make 4096 [] in
  for i = 1 to n do
    let j = i land 4095 in
    keep.(j) <- (float_of_int i, i) :: (if i land 7 = 0 then [] else keep.(j))
  done;
  keep

let timed f =
  let t0 = Tracer.now_ns () in
  ignore (Sys.opaque_identity (f ()));
  float_of_int (Tracer.now_ns () - t0) *. 1e-9

(* Seconds both loops took: [nominal_s] at nominal speed. *)
let time_s () =
  let a = Array.make (2 * 1024 * 1024) 1.0 in
  timed (fun () -> stream a ~passes:60) +. timed (fun () -> churn ~n:700_000)
