(* Parallel-scaling bench: wall-clock of the hot kernels vs the number
   of execution-engine domains, at the Fig-3 "large" grid cell
   (TR = 20, FR = 4 ⇒ n_S = 20·base, d_S = 20, d_R = 80). Three probes
   cover the stack: dense crossprod (the reduction kernel), dense LMM
   (the map kernel), and end-to-end factorized logistic regression
   (kernels reached through the process-default backend).

   Results go to stdout as a table and to BENCH_parallel.json in the
   current directory. Speed-ups are relative to the 1-domain run on
   the same build; [cores_online] records how many hardware cores the
   host actually exposes, since domains beyond that cannot speed
   anything up. *)

open La
open Morpheus
open Workload
open Ml_algs.Algorithms

let domain_counts = [ 1; 2; 4 ]

let run cfg =
  Harness.section "Parallel scaling: Exec domains vs wall-clock (Fig-3 TR=20 FR=4)" ;
  let base = if cfg.Harness.quick then 500 else 2_000 in
  let tr = 20 and fr = 4.0 in
  let d = Synthetic.table4_tuple_ratio ~base ~tr ~fr () in
  let t = d.Synthetic.t in
  let dense_t = Sparse.Mat.dense (Materialize.to_mat t) in
  let n, dc = Dense.dims dense_t in
  let x = Dense.gaussian ~rng:(Rng.of_int 7) dc 2 in
  let iters = if cfg.Harness.quick then 3 else 5 in
  Printf.printf "dense T: %d x %d; logreg %d iters; host cores online: %d\n"
    n dc iters Harness.cores_online ;
  let ops =
    [ ("crossprod", fun exec () -> ignore (Blas.crossprod ~exec dense_t));
      ("lmm", fun exec () -> ignore (Blas.gemm ~exec dense_t x));
      ( "logreg",
        fun exec () ->
          (* end-to-end path: kernels pick the backend up as the
             process default, as library users' code would *)
          Exec.set_default exec ;
          ignore (Factorized.Logreg.train ~alpha:1e-4 ~iters t d.Synthetic.y) )
    ]
  in
  let results =
    List.map
      (fun (name, probe) ->
        let seconds =
          List.map
            (fun domains ->
              let exec = Exec.make domains in
              let dt =
                Timing.measure ~warmup:1 ~runs:cfg.Harness.runs (probe exec)
              in
              Exec.set_default (Exec.seq) ;
              Exec.shutdown exec ;
              dt)
            domain_counts
        in
        (name, seconds))
      ops
  in
  Printf.printf "\n%-10s" "op" ;
  List.iter (fun dn -> Printf.printf " %8s" (Printf.sprintf "p=%d" dn)) domain_counts ;
  Printf.printf " %8s\n" "speedup" ;
  List.iter
    (fun (name, seconds) ->
      let t1 = List.hd seconds in
      Printf.printf "%-10s" name ;
      List.iter (fun s -> Printf.printf " %8s" (Harness.ts s)) seconds ;
      Printf.printf "   %5.2fx\n"
        (t1 /. List.fold_left min infinity seconds))
    results ;
  let open Harness in
  write_report cfg "BENCH_parallel.json"
    [ ( "setting",
        Json.Obj
          [ ("base", int base); ("tr", int tr); ("fr", num fr); ("rows", int n);
            ("cols", int dc); ("logreg_iters", int iters)
          ] );
      ("domains", list int domain_counts);
      ( "ops",
        list
          (fun (name, seconds) ->
            let t1 = List.hd seconds in
            Json.Obj
              [ ("name", Json.Str name); ("seconds", list num seconds);
                ("speedup_vs_1", list (fun s -> num (t1 /. s)) seconds)
              ])
          results )
    ]
