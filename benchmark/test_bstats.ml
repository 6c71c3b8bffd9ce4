(* Unit tests for the benchmark's statistics and span helpers. The
   quartile references are Python's statistics.quantiles(xs, n=4),
   which is how published spreads are checked. *)

let close = Alcotest.float 1e-12

let test_median () =
  Alcotest.check close "odd" 3.0 (Bstats.median [ 5.0; 1.0; 3.0 ]);
  Alcotest.check close "even" 2.5 (Bstats.median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.check close "single" 7.0 (Bstats.median [ 7.0 ])

let triple = Alcotest.(triple close close close)

let test_quartiles () =
  Alcotest.check triple "1..10" (2.75, 5.5, 8.25)
    (Bstats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check triple "1..4" (1.25, 2.5, 3.75) (Bstats.quartiles [ 4.0; 2.0; 3.0; 1.0 ]);
  Alcotest.check triple "three" (1.0, 2.0, 3.0) (Bstats.quartiles [ 3.0; 1.0; 2.0 ]);
  Alcotest.check triple "two extrapolate" (0.0, 3.0, 6.0) (Bstats.quartiles [ 5.0; 1.0 ]);
  Alcotest.check triple "seven" (1.0, 4.0, 7.0)
    (Bstats.quartiles [ 2.5; 1.0; 9.0; 4.0; 4.0; 7.0; 0.5 ]);
  Alcotest.check triple "one sample" (3.0, 3.0, 3.0) (Bstats.quartiles [ 3.0 ]);
  Alcotest.check close "spread" (5.5 /. 5.5)
    (Bstats.spread (List.init 10 (fun i -> float_of_int (i + 1))))

let test_tail_percentile () =
  let p = Alcotest.(option int) in
  Alcotest.check p "19 samples: none" None (Bstats.tail_permille 19);
  Alcotest.check p "20 samples: median" (Some 500) (Bstats.tail_permille 20);
  Alcotest.check p "100 samples: p90" (Some 900) (Bstats.tail_permille 100);
  Alcotest.check p "500 samples: p98" (Some 980) (Bstats.tail_permille 500);
  Alcotest.check p "511 samples: p98" (Some 980) (Bstats.tail_permille 511);
  Alcotest.check p "1500 samples: p99" (Some 990) (Bstats.tail_permille 1500);
  Alcotest.check p "10000 samples: p99.9" (Some 999) (Bstats.tail_permille 10_000);
  Alcotest.check close "type-7 p50" 3.0 (Bstats.percentile [ 1.; 2.; 3.; 4.; 5. ] ~permille:500);
  Alcotest.check close "type-7 p90" 4.6 (Bstats.percentile [ 5.; 4.; 3.; 2.; 1. ] ~permille:900)

let span name start_ns end_ns parent = { Bstats.name; start_ns; end_ns; parent }

let test_self_time () =
  (* root [0,100): children [10,30) and [20,50) overlap; [40,60) nests
     a grandchild that must not count twice; [90,120) is clipped. *)
  let spans =
    [|
      span "root" 0 100 (-1);
      span "a" 10 30 0;
      span "b" 20 50 0;
      span "c" 40 60 0;
      span "c.inner" 45 55 3;
      span "d" 90 120 0;
    |]
  in
  Alcotest.(check int) "root self" (100 - 50 - 10) (Bstats.self_ns spans 0);
  Alcotest.(check int) "nested child self" (20 - 10) (Bstats.self_ns spans 3);
  Alcotest.(check int) "leaf" 10 (Bstats.self_ns spans 4);
  Alcotest.(check int) "union of disjoint and touching" 30
    (Bstats.union_length [ (0, 10); (10, 20); (25, 35); (30, 30) ])

let () =
  Alcotest.run "benchmark"
    [
      ( "bstats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles match python" `Quick test_quartiles;
          Alcotest.test_case "tail percentile rule" `Quick test_tail_percentile;
          Alcotest.test_case "span self time" `Quick test_self_time;
        ] );
    ]
