(* Benchmark driver: regenerates every table and figure of the paper's
   evaluation (§5 + appendix) at a configurable scale.

     dune exec bench/main.exe                 # everything, default scale
     dune exec bench/main.exe -- fig3         # one experiment
     dune exec bench/main.exe -- --quick all  # fast smoke pass
     dune exec bench/main.exe -- --list       # experiment index

   Absolute times differ from the paper's testbed (R + tuned BLAS on a
   20-core Xeon vs this pure-OCaml substrate); the reproduced quantity is
   the *shape*: who wins, by what factor, and where the crossovers sit. *)

let experiments : (string * string * (Harness.config -> unit)) list =
  [ ("fig3", "Fig 3: PK-FK operator speed-up grids (scalar, LMM, crossprod, ginv)",
     fun cfg -> Fig3.run cfg);
    ("fig6", "Fig 6/7: appendix operators over the same PK-FK sweep",
     fun cfg -> Fig3.run_fig6 cfg);
    ("fig4", "Fig 4: M:N join operators vs uniqueness degree",
     fun cfg -> Fig4.run cfg);
    ("fig11", "Fig 11/12: all operators over M:N sweeps",
     fun cfg -> Fig4.run_all_ops cfg);
    ("fig5", "Fig 5: four ML algorithms, vary TR and FR", Fig5.run);
    ("fig8", "Fig 5(c1,d1)/8/9: ML algorithms vs iterations", Fig5.run_iterations);
    ("fig5cd", "Fig 5(c2,d2): K-Means vs centroids, GNMF vs topics",
     Fig5.run_centroids_topics);
    ("table3", "Table 3/11: arithmetic computations, model vs measured flops",
     Flops_bench.run);
    ("table7", "Table 7: real datasets (simulated), runtimes and speed-ups",
     Tables.run_table7);
    ("table7full", "Table 7 at full published scale (logreg only; slow)",
     Tables.run_table7_full);
    ("table8", "Table 8: Morpheus vs Orion", Tables.run_table8);
    ("table9", "Table 9: ORE-style chunked logreg, PK-FK", Ore_bench.run_table9);
    ("table10", "Table 10: ORE-style chunked logreg, M:N", Ore_bench.run_table10);
    ("table12", "Table 12: data preparation vs logreg runtime", Tables.run_table12);
    ("ablate", "Ablations: crossprod method, LMM order, kernels, policy", Ablate.run);
    ("scaling", "Parallel scaling: Exec domains vs wall-clock, JSON report",
     Scaling.run);
    ("kernels", "Dense kernels: naive vs cache-blocked/tiled, JSON report",
     Kernels.run);
    ("planner", "Planner: pushed-down selection vs materialize-then-filter, JSON report",
     Planner_bench.run);
    ("memo", "Memoization + in-place kernels: per-iteration time/alloc, JSON report",
     Memo_bench.run);
    ("serve", "Scoring server: micro-batched vs unbatched latency, JSON report",
     Serve_bench.run);
    ("cluster", "Sharded serving: routed throughput over 1/2/4 shard processes, JSON report",
     Cluster_bench.run);
    ("faults", "Transport chaos: throughput with 0/1/2 armed fault points, a slow owner and overload, JSON report",
     Faults_bench.run);
    ("sync", "Sync named-lock wrapper overhead vs raw mutexes, JSON report",
     Sync_bench.run);
    ("micro", "Bechamel micro-suite (one Test.make per experiment family)", Micro.run) ]

let usage () =
  print_endline
    "usage: main.exe [--quick] [--runs N] [--runtimes] [--force] [--list] \
     [EXPERIMENT...]" ;
  print_endline "experiments:" ;
  List.iter (fun (n, d, _) -> Printf.printf "  %-9s %s\n" n d) experiments ;
  print_endline "  all       every experiment above (default)"

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let cfg = ref Harness.default in
  let selected = ref [] in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
      cfg := { !cfg with Harness.quick = true } ;
      parse rest
    | "--runtimes" :: rest ->
      cfg := { !cfg with Harness.runtimes = true } ;
      parse rest
    | "--force" :: rest ->
      cfg := { !cfg with Harness.force = true } ;
      parse rest
    | "--runs" :: n :: rest ->
      cfg := { !cfg with Harness.runs = int_of_string n } ;
      parse rest
    | ("--list" | "--help") :: _ ->
      usage () ;
      exit 0
    | name :: rest ->
      selected := name :: !selected ;
      parse rest
  in
  parse args ;
  let names =
    match List.rev !selected with
    | [] | [ "all" ] -> List.map (fun (n, _, _) -> n) experiments
    | l -> l
  in
  Printf.printf "Morpheus bench harness — %s mode, %d timed runs per measurement\n"
    (if !cfg.Harness.quick then "quick" else "full")
    !cfg.Harness.runs ;
  (* The paper benches time repeated applications of one operator on one
     matrix; with the memo layer on, warmup would populate the caches and
     the measured runs would see hits instead of kernels. Off globally;
     the memo bench re-enables it for its "after" arm. *)
  La.Memo.set_enabled false ;
  let t0 = Workload.Timing.now () in
  List.iter
    (fun name ->
      match List.find_opt (fun (n, _, _) -> n = name) experiments with
      | Some (_, _, run) -> run !cfg
      | None ->
        Printf.printf "unknown experiment %S\n" name ;
        usage () ;
        exit 1)
    names ;
  Printf.printf "\ntotal bench time: %.1fs\n" (Workload.Timing.now () -. t0)
