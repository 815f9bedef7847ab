(* Command-line front end for the Morpheus library:

     morpheus generate --dir data --ns 100000 --nr 5000 --ds 5 --dr 20
     morpheus info     --dir data --fk fk --pk pk
     morpheus train    --dir data --fk fk --pk pk --target y \
                       --algorithm logreg --path both --iters 10

   [generate] writes a synthetic PK-FK pair of CSVs; [info] builds the
   normalized matrix and reports its statistics plus the §3.7 decision;
   [train] runs one of the four ML algorithms over the factorized and/or
   materialized execution path. *)

open La
open Relational
open Morpheus
open Cmdliner

let version = "1.1.0"

let cmd_info name ~doc = Cmd.info name ~version ~doc

(* Runtime (as opposed to usage) failures exit 1, uniformly; usage
   errors exit 2 (enforced here and via [Cmd.eval ~term_err]). *)
let with_runtime_errors f =
  try f () with
  | Io.Corrupt msg ->
    Fmt.epr "morpheus: corrupt file: %s@." msg ;
    exit 1
  | Sys_error msg ->
    Fmt.epr "morpheus: %s@." msg ;
    exit 1
  | Unix.Unix_error (e, fn, arg) ->
    Fmt.epr "morpheus: %s%s: %s@." fn
      (if arg = "" then "" else " " ^ arg)
      (Unix.error_message e) ;
    exit 1
  | Invalid_argument msg | Failure msg ->
    Fmt.epr "morpheus: %s@." msg ;
    exit 1
  | Validate.Numeric_error i ->
    Fmt.epr "morpheus: %s@." (Validate.message i) ;
    exit 1
  | Fault.Injected p ->
    Fmt.epr "morpheus: injected fault at %s@." p ;
    exit 1

(* ---- shared args ---- *)

let dir_arg =
  Arg.(required & opt (some string) None & info [ "dir" ] ~docv:"DIR"
         ~doc:"Directory holding (or receiving) S.csv and R.csv.")

let fk_arg =
  Arg.(value & opt string "fk" & info [ "fk" ] ~doc:"Foreign-key column in S.csv.")

let pk_arg =
  Arg.(value & opt string "pk" & info [ "pk" ] ~doc:"Primary-key column in R.csv.")

let target_arg =
  Arg.(value & opt string "y" & info [ "target" ] ~doc:"Target column in S.csv.")

let nominal_arg =
  Arg.(value & opt (list string) [] & info [ "nominal" ]
         ~doc:"Comma-separated nominal (one-hot encoded) columns.")

let sparse_arg =
  Arg.(value & flag & info [ "sparse" ] ~doc:"Use sparse feature matrices.")

let threads_arg =
  Arg.(value & opt (some int) None & info [ "threads"; "j" ] ~docv:"N"
         ~doc:"Domains for the LA execution engine (default: \
               $(b,MORPHEUS_THREADS), else 1). 1 selects the sequential \
               backend; results are bitwise-identical either way.")

(* Install the requested backend as the process default, so every kernel
   invoked below (including through the Data_matrix functors, which have
   no [?exec] parameter) picks it up. *)
let apply_threads = function
  | None -> ()
  | Some n ->
    if n < 1 then begin
      Fmt.epr "morpheus: --threads must be >= 1@." ;
      exit 2
    end ;
    Exec.set_default (Exec.make n)

(* ---- generate ---- *)

let generate dir ns nr ds dr seed =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755 ;
  let rng = Rng.of_int seed in
  let float_cols prefix n =
    List.init n (fun i ->
        Schema.column ~name:(Printf.sprintf "%s%d" prefix i)
          ~role:Schema.Numeric_feature)
  in
  let s_schema =
    Schema.create ~table_name:"S"
      (Schema.column ~name:"y" ~role:Schema.Target
       :: Schema.column ~name:"fk" ~role:(Schema.Foreign_key "R")
       :: float_cols "xs" ds)
  in
  let r_schema =
    Schema.create ~table_name:"R"
      (Schema.column ~name:"pk" ~role:Schema.Primary_key :: float_cols "xr" dr)
  in
  let s_rows =
    List.init ns (fun _ ->
        Array.of_list
          (Value.Float (if Rng.bool rng then 1.0 else -1.0)
           :: Value.Int (Rng.int rng nr)
           :: List.init ds (fun _ -> Value.Float (Rng.gaussian rng))))
  in
  let r_rows =
    List.init nr (fun i ->
        Array.of_list
          (Value.Int i :: List.init dr (fun _ -> Value.Float (Rng.gaussian rng))))
  in
  Csv.write_table (Filename.concat dir "S.csv") (Table.of_rows s_schema s_rows) ;
  Csv.write_table (Filename.concat dir "R.csv") (Table.of_rows r_schema r_rows) ;
  Fmt.pr "wrote %s/S.csv (%d rows) and %s/R.csv (%d rows)@." dir ns dir nr

let generate_cmd =
  let ns = Arg.(value & opt int 100_000 & info [ "ns" ] ~doc:"Rows of S.") in
  let nr = Arg.(value & opt int 5_000 & info [ "nr" ] ~doc:"Rows of R.") in
  let ds = Arg.(value & opt int 5 & info [ "ds" ] ~doc:"Features of S.") in
  let dr = Arg.(value & opt int 20 & info [ "dr" ] ~doc:"Features of R.") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.") in
  Cmd.v
    (cmd_info "generate" ~doc:"Generate a synthetic PK-FK pair of base-table CSVs.")
    Term.(const generate $ dir_arg $ ns $ nr $ ds $ dr $ seed)

(* ---- loading ---- *)

let load ~dir ~fk ~pk ~target ~nominal ~sparse =
  let role_s n =
    if n = fk then Schema.Foreign_key "R"
    else if n = target then Schema.Target
    else if List.mem n nominal then Schema.Nominal_feature
    else Schema.Numeric_feature
  in
  let role_r n =
    if n = pk then Schema.Primary_key
    else if List.mem n nominal then Schema.Nominal_feature
    else Schema.Numeric_feature
  in
  Builder.pkfk_of_csv ~sparse
    ~s_path:(Filename.concat dir "S.csv")
    ~s_roles:role_s ~fk
    ~r_path:(Filename.concat dir "R.csv")
    ~r_roles:role_r ~pk ()

(* ---- info ---- *)

let show_info dir fk pk target nominal sparse threads =
  apply_threads threads ;
  let ds = load ~dir ~fk ~pk ~target ~nominal ~sparse in
  let t = ds.Builder.matrix in
  let n, d = Normalized.dims t in
  Fmt.pr "normalized matrix : %d x %d@." n d ;
  Fmt.pr "execution backend : %s@." (Exec.name (Exec.default ())) ;
  Fmt.pr "stored scalars    : %d (materialized T: %d)@."
    (Normalized.storage_size t) (n * d) ;
  Fmt.pr "redundancy ratio  : %.2f@." (Normalized.redundancy_ratio t) ;
  Fmt.pr "tuple ratio       : %.2f@." (Normalized.tuple_ratio t) ;
  Fmt.pr "feature ratio     : %.2f@." (Normalized.feature_ratio t) ;
  Fmt.pr "decision rule     : %s@."
    (Decision.to_string (Decision.heuristic t))

let info_cmd =
  Cmd.v
    (cmd_info "info" ~doc:"Report normalized-matrix statistics and the decision rule.")
    Term.(const show_info $ dir_arg $ fk_arg $ pk_arg $ target_arg $ nominal_arg
          $ sparse_arg $ threads_arg)

(* ---- train ---- *)

type path = Factorized_path | Materialized_path | Both

let path_conv =
  Arg.enum [ ("factorized", Factorized_path); ("materialized", Materialized_path); ("both", Both) ]

type algorithm = Logreg_a | Linreg_a | Kmeans_a | Gnmf_a

let algo_conv =
  Arg.enum
    [ ("logreg", Logreg_a); ("linreg", Linreg_a); ("kmeans", Kmeans_a); ("gnmf", Gnmf_a) ]

let algo_name = function
  | Logreg_a -> "logreg"
  | Linreg_a -> "linreg"
  | Kmeans_a -> "kmeans"
  | Gnmf_a -> "gnmf"

let train dir fk pk target nominal sparse threads algo path iters alpha k rank
    save registry checkpoint every resume =
  apply_threads threads ;
  if save <> None && registry = None then begin
    Fmt.epr "morpheus train: --save requires --registry@." ;
    exit 2
  end ;
  if save <> None && path = Materialized_path then begin
    Fmt.epr "morpheus train: --save needs the factorized path (use --path \
             factorized or both)@." ;
    exit 2
  end ;
  if save <> None && algo = Gnmf_a then begin
    Fmt.epr "morpheus train: gnmf has no servable artifact to save@." ;
    exit 2
  end ;
  if resume && checkpoint = None then begin
    Fmt.epr "morpheus train: --resume requires --checkpoint@." ;
    exit 2
  end ;
  if checkpoint <> None && path <> Factorized_path then begin
    Fmt.epr "morpheus train: --checkpoint needs --path factorized (snapshots \
             describe one training run, not two)@." ;
    exit 2
  end ;
  if every < 1 then begin
    Fmt.epr "morpheus train: --checkpoint-every must be >= 1@." ;
    exit 2
  end ;
  with_runtime_errors @@ fun () ->
  let module Ck = Ml_algs.Checkpoint in
  (* a missing checkpoint under --resume starts fresh, so the same
     command line works for the first attempt and every rerun after a
     crash; a corrupt or mismatched one refuses loudly *)
  let resumed =
    match checkpoint with
    | Some cpath when resume && Ck.exists ~path:cpath -> (
      match Ck.load ~path:cpath with
      | Error msg ->
        Fmt.epr "morpheus train: cannot resume from %s: %s@." cpath msg ;
        exit 1
      | Ok st ->
        if st.Ck.algorithm <> algo_name algo then begin
          Fmt.epr
            "morpheus train: checkpoint %s holds a %s run, not %s@." cpath
            st.Ck.algorithm (algo_name algo) ;
          exit 1
        end ;
        Some st)
    | _ -> None
  in
  let start =
    match resumed with Some st -> min st.Ck.completed iters | None -> 0
  in
  (match resumed with
  | Some _ ->
    Fmt.pr "resuming from %s: %d/%d iterations done@."
      (Option.get checkpoint) start iters
  | None -> ()) ;
  let ds = load ~dir ~fk ~pk ~target ~nominal ~sparse in
  let t = ds.Builder.matrix in
  let y = Option.get ds.Builder.target in
  let module F = Ml_algs.Algorithms.Factorized in
  let module M = Ml_algs.Algorithms.Materialized in
  let run_path name run =
    let result, dt = Workload.Timing.time run in
    Fmt.pr "%-13s %a@." name Workload.Timing.pp_seconds dt ;
    result
  in
  (* Checkpoint hook: [i] is 1-based within the (possibly resumed) run,
     so [start + i] is the absolute iteration count the snapshot
     records. The final iteration always snapshots, whatever [every]. *)
  let on_iter_for mats =
    Option.map
      (fun cpath i live ->
        let done_ = start + i in
        if done_ mod every = 0 || done_ = iters then
          Ck.save ~path:cpath
            { Ck.algorithm = algo_name algo;
              completed = done_;
              total = iters;
              mats = mats live;
              scalars = [ ("alpha", alpha) ]
            })
      checkpoint
  in
  let remaining = iters - start in
  let fact () : Dense.t =
    match algo with
    | Logreg_a ->
      let w0 = Option.bind resumed (fun st -> Ck.dense st "w") in
      let on_iter = on_iter_for (fun w -> [ ("w", Ck.of_dense w) ]) in
      (F.Logreg.train ~alpha ~iters:remaining ?w0 ?on_iter t y).F.Logreg.w
    | Linreg_a ->
      let w0 = Option.bind resumed (fun st -> Ck.dense st "w") in
      let on_iter = on_iter_for (fun w -> [ ("w", Ck.of_dense w) ]) in
      F.Linreg.train_gd ~alpha ~iters:remaining ?w0 ?on_iter t y
    | Kmeans_a ->
      let centroids = Option.bind resumed (fun st -> Ck.dense st "centroids") in
      let on_iter = on_iter_for (fun c -> [ ("centroids", Ck.of_dense c) ]) in
      (F.Kmeans.train ~iters:remaining ?centroids ?on_iter ~k t)
        .F.Kmeans.centroids
    | Gnmf_a ->
      let init =
        Option.bind resumed (fun st ->
            match (Ck.dense st "w", Ck.dense st "h") with
            | Some w, Some h -> Some { F.Gnmf.w; h }
            | _ -> None)
      in
      let on_iter =
        on_iter_for (fun (f : F.Gnmf.factors) ->
            [ ("w", Ck.of_dense f.F.Gnmf.w); ("h", Ck.of_dense f.F.Gnmf.h) ])
      in
      (F.Gnmf.train ~iters:remaining ?init ?on_iter ~rank t).F.Gnmf.h
  in
  let mat () : Dense.t =
    let m = Materialize.to_regular t in
    match algo with
    | Logreg_a -> (M.Logreg.train ~alpha ~iters m y).M.Logreg.w
    | Linreg_a -> M.Linreg.train_gd ~alpha ~iters m y
    | Kmeans_a -> (M.Kmeans.train ~iters ~k m).M.Kmeans.centroids
    | Gnmf_a -> (M.Gnmf.train ~iters ~rank m).M.Gnmf.h
  in
  let trained =
    match path with
    | Factorized_path -> Some (run_path "factorized" fact)
    | Materialized_path ->
      ignore (run_path "materialized" mat) ;
      None
    | Both ->
      let wf = run_path "factorized" fact in
      let wm = run_path "materialized" mat in
      Fmt.pr "max |difference| between paths: %.3e@." (Dense.max_abs_diff wf wm) ;
      Some wf
  in
  (match (save, registry, trained) with
  | Some name, Some reg, Some w ->
    let artifact =
      match algo with
      | Logreg_a -> Morpheus_serve.Artifact.Logreg w
      | Linreg_a -> Morpheus_serve.Artifact.Linreg w
      | Kmeans_a -> Morpheus_serve.Artifact.Kmeans w
      | Gnmf_a -> assert false (* rejected above *)
    in
    let entry =
      Morpheus_serve.Registry.save ~dir:reg ~name
        ~schema_hash:(Morpheus_serve.Registry.schema_hash t)
        ~meta:
          [ ("algorithm", algo_name algo);
            ("iters", string_of_int iters);
            ("alpha", Printf.sprintf "%g" alpha);
            ("source", dir)
          ]
        artifact
    in
    Fmt.pr "saved %s to %s (%s)@." entry.Morpheus_serve.Registry.id reg
      (Morpheus_serve.Artifact.describe artifact)
  | _ -> ()) ;
  Fmt.pr "done.@."

let train_cmd =
  let algo =
    Arg.(value & opt algo_conv Logreg_a & info [ "algorithm"; "a" ]
           ~doc:"One of logreg, linreg, kmeans, gnmf.")
  in
  let path =
    Arg.(value & opt path_conv Both & info [ "path" ]
           ~doc:"Execution path: factorized, materialized, or both.")
  in
  let iters = Arg.(value & opt int 10 & info [ "iters" ] ~doc:"Iterations.") in
  let alpha = Arg.(value & opt float 1e-4 & info [ "alpha" ] ~doc:"Step size.") in
  let k = Arg.(value & opt int 5 & info [ "k" ] ~doc:"K-Means centroids.") in
  let rank = Arg.(value & opt int 5 & info [ "rank" ] ~doc:"GNMF rank.") in
  let save =
    Arg.(value & opt (some string) None & info [ "save" ] ~docv:"NAME"
           ~doc:"Persist the factorized model to the registry under $(docv).")
  in
  let registry =
    Arg.(value & opt (some string) None & info [ "registry" ] ~docv:"DIR"
           ~doc:"Model registry directory (required with --save).")
  in
  let checkpoint =
    Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE"
           ~doc:"Snapshot trainer state to $(docv) (atomic; factorized path \
                 only). With --resume, continue from it; the resumed run is \
                 bitwise-identical to an uninterrupted one.")
  in
  let every =
    Arg.(value & opt int 1 & info [ "checkpoint-every" ] ~docv:"N"
           ~doc:"Snapshot every $(docv) iterations (the last iteration \
                 always snapshots).")
  in
  let resume =
    Arg.(value & flag & info [ "resume" ]
           ~doc:"Continue from --checkpoint if it exists (else start fresh).")
  in
  Cmd.v
    (cmd_info "train" ~doc:"Train an ML algorithm over the normalized data.")
    Term.(const train $ dir_arg $ fk_arg $ pk_arg $ target_arg $ nominal_arg
          $ sparse_arg $ threads_arg $ algo $ path $ iters $ alpha $ k $ rank
          $ save $ registry $ checkpoint $ every $ resume)

(* ---- cv: ridge-lambda selection by k-fold cross-validation ---- *)

let cv dir fk pk target nominal sparse threads k lambdas =
  apply_threads threads ;
  let ds = load ~dir ~fk ~pk ~target ~nominal ~sparse in
  let t = ds.Builder.matrix in
  let y = Option.get ds.Builder.target in
  let (best, best_score, scored), dt =
    Workload.Timing.time (fun () ->
        Ml_algs.Model_selection.select_ridge_lambda ~k ~lambdas t y)
  in
  List.iter
    (fun (lambda, score) -> Fmt.pr "lambda=%-10g mean val MSE %.6f@." lambda score)
    scored ;
  Fmt.pr "best: lambda=%g (MSE %.6f), %d-fold CV in %a@." best best_score k
    Workload.Timing.pp_seconds dt

let cv_cmd =
  let k = Arg.(value & opt int 5 & info [ "k" ] ~doc:"Number of folds.") in
  let lambdas =
    Arg.(value & opt (list float) [ 0.01; 0.1; 1.0; 10.0; 100.0 ]
           & info [ "lambdas" ] ~doc:"Ridge penalties to evaluate.")
  in
  Cmd.v
    (cmd_info "cv" ~doc:"Select a ridge penalty by factorized k-fold cross-validation.")
    Term.(const cv $ dir_arg $ fk_arg $ pk_arg $ target_arg $ nominal_arg
          $ sparse_arg $ threads_arg $ k $ lambdas)

(* ---- pca: factorized principal component analysis ---- *)

let pca dir fk pk target nominal sparse threads k =
  apply_threads threads ;
  let ds = load ~dir ~fk ~pk ~target ~nominal ~sparse in
  let t = ds.Builder.matrix in
  let p, dt = Workload.Timing.time (fun () -> Morpheus.Spectral.pca ~k t) in
  Fmt.pr "PCA (k=%d) over the normalized matrix in %a@." k
    Workload.Timing.pp_seconds dt ;
  Array.iteri
    (fun i v -> Fmt.pr "component %d: variance %.6f@." i v)
    p.Morpheus.Spectral.explained_variance ;
  Fmt.pr "explained variance ratio: %.4f@."
    (Morpheus.Spectral.explained_ratio t p)

let pca_cmd =
  let k = Arg.(value & opt int 5 & info [ "k" ] ~doc:"Number of components.") in
  Cmd.v
    (cmd_info "pca" ~doc:"Run factorized PCA over the normalized data.")
    Term.(const pca $ dir_arg $ fk_arg $ pk_arg $ target_arg $ nominal_arg
          $ sparse_arg $ threads_arg $ k)

(* ---- explain: show the rewrite plan and cost estimates ---- *)

let explain_op_conv =
  Arg.enum
    [ ("scalar", Morpheus.Explain.Scalar_op);
      ("rowsums", Morpheus.Explain.Row_sums);
      ("colsums", Morpheus.Explain.Col_sums);
      ("sum", Morpheus.Explain.Sum);
      ("lmm", Morpheus.Explain.Lmm 1);
      ("rmm", Morpheus.Explain.Rmm 1);
      ("crossprod", Morpheus.Explain.Crossprod);
      ("ginv", Morpheus.Explain.Ginv) ]

let explain dir fk pk target nominal sparse op =
  let ds = load ~dir ~fk ~pk ~target ~nominal ~sparse in
  let t = ds.Builder.matrix in
  print_endline (Morpheus.Explain.describe t) ;
  print_newline () ;
  print_endline (Morpheus.Explain.explain t op)

let explain_cmd =
  let op =
    Arg.(value & opt explain_op_conv (Morpheus.Explain.Lmm 1)
           & info [ "op" ]
               ~doc:"Operator: scalar, rowsums, colsums, sum, lmm, rmm, crossprod, ginv.")
  in
  Cmd.v
    (cmd_info "explain"
       ~doc:"Show the rewrite plan, cost estimates, and decision for an operator.")
    Term.(const explain $ dir_arg $ fk_arg $ pk_arg $ target_arg $ nominal_arg
          $ sparse_arg $ op)

(* ---- check: static plan checker over plan files ---- *)

(* Exit codes: 0 all checks clean (warnings allowed unless --strict),
   1 diagnostics with error severity (or warnings under --strict),
   2 unreadable/unparsable plan. *)
let check_plans expr_opt strict explain files =
  if expr_opt = None && files = [] then begin
    Fmt.epr "morpheus check: nothing to do (give plan FILEs and/or --expr)@." ;
    exit 2
  end ;
  let failed = ref false in
  let run_report name ~env e =
    let report = Morpheus.Check.analyze_abstract ~env e in
    print_string (Morpheus.Check.report_to_string ~name report) ;
    print_newline () ;
    if explain then begin
      (* narrate the plan the evaluator would actually run: relational
         pushdown (Ast.simplify) + chain/crossprod recognition, then
         re-analyze so the rule annotations describe the rewritten tree *)
      let optimized = Morpheus.Expr.optimize (Morpheus.Expr.simplify e) in
      let opt_report = Morpheus.Check.analyze_abstract ~env optimized in
      print_endline (Morpheus.Explain.describe_plan opt_report) ;
      print_newline ()
    end ;
    if not (Morpheus.Check.is_ok report) then failed := true ;
    if strict && Morpheus.Check.warnings report <> [] then failed := true
  in
  List.iter
    (fun file ->
      match Morpheus.Plan.parse_file file with
      | Error msg ->
        Fmt.epr "%s: %s@." file msg ;
        exit 2
      | Ok plan ->
        let env = Morpheus.Plan.env plan in
        (match Morpheus.Plan.checks plan with
        | [] -> Fmt.epr "%s: no check statements@." file
        | checks ->
          List.iter
            (fun (name, e) ->
              run_report (Printf.sprintf "%s: %s" file name) ~env e)
            checks))
    files ;
  (match expr_opt with
  | None -> ()
  | Some src -> (
    match Morpheus.Plan.parse_expr src with
    | Error msg ->
      Fmt.epr "--expr: %s@." msg ;
      exit 2
    | Ok e -> run_report src ~env:[] e)) ;
  if !failed then exit 1

let check_cmd =
  let files =
    Arg.(value & pos_all file [] & info [] ~docv:"FILE"
           ~doc:"Plan files to check (see docs/CHECKER.md for the syntax).")
  in
  let expr =
    Arg.(value & opt (some string) None & info [ "expr"; "e" ] ~docv:"EXPR"
           ~doc:"Check a single expression with no declared operands.")
  in
  let strict =
    Arg.(value & flag & info [ "strict" ]
           ~doc:"Treat warnings (W001-W004) as errors.")
  in
  let explain =
    Arg.(value & flag & info [ "explain" ]
           ~doc:"Also print the optimized plan narration: relational \
                 pushdown (selection below join, projection pruning), \
                 fired rewrite rules, and standard-vs-factorized totals.")
  in
  Cmd.v
    (cmd_info "check"
       ~doc:"Statically check LA plans: shapes, rewrite preconditions, \
             per-node cost estimates, and structured diagnostics.")
    Term.(const check_plans $ expr $ strict $ explain $ files)

(* ---- export: persist a normalized dataset for serving ---- *)

let export dir fk pk target nominal sparse out =
  with_runtime_errors @@ fun () ->
  let ds = load ~dir ~fk ~pk ~target ~nominal ~sparse in
  let t = ds.Builder.matrix in
  Io.save ~dir:out t ;
  let n, d = Normalized.dims t in
  Fmt.pr "wrote normalized dataset %s (%d x %d, schema %s)@." out n d
    (Morpheus_serve.Registry.schema_hash t)

let export_cmd =
  let out =
    Arg.(required & opt (some string) None & info [ "out" ] ~docv:"DIR"
           ~doc:"Output directory for the normalized binary dataset.")
  in
  Cmd.v
    (cmd_info "export"
       ~doc:"Build the normalized matrix from CSVs and persist it in the \
             binary format morpheus serve scores from.")
    Term.(const export $ dir_arg $ fk_arg $ pk_arg $ target_arg $ nominal_arg
          $ sparse_arg $ out)

(* ---- serve: the scoring server ---- *)

let registry_arg =
  Arg.(required & opt (some string) None & info [ "registry" ] ~docv:"DIR"
         ~doc:"Model registry directory.")

let socket_arg =
  Arg.(required & opt (some string) None & info [ "socket" ] ~docv:"ENDPOINT"
         ~doc:"Server endpoint: a Unix domain socket path or HOST:PORT.")

(* Endpoint strings are validated up front so a typo is a usage error
   (exit 2) with the offending string, not a runtime backtrace. *)
let check_endpoint ~cmd s =
  match Morpheus_serve.Endpoint.of_string_result s with
  | Ok _ -> ()
  | Error msg ->
    Fmt.epr "morpheus %s: %s@." cmd msg ;
    exit 2

let serve registry socket listen threads max_batch max_wait_ms queue_bound
    cache_capacity deadline_ms breaker_threshold breaker_cooldown_ms
    lockdep replicate_from replicate_interval_ms drain_on =
  apply_threads threads ;
  if lockdep then Analysis.Sync.enable_lockdep () ;
  let drain_on_term =
    match Option.map String.lowercase_ascii drain_on with
    | None -> false
    | Some "sigterm" -> true
    | Some other ->
      Fmt.epr "morpheus serve: --drain-on only supports SIGTERM, got %S@." other ;
      exit 2
  in
  if max_batch < 1 || queue_bound < 1 || cache_capacity < 1 || max_wait_ms < 0.0
  then begin
    Fmt.epr "morpheus serve: batch/queue/cache sizes must be positive@." ;
    exit 2
  end ;
  if breaker_threshold < 1 || breaker_cooldown_ms < 0.0 then begin
    Fmt.epr "morpheus serve: breaker threshold must be >= 1, cooldown >= 0@." ;
    exit 2
  end ;
  let endpoint =
    match (listen, socket) with
    | Some ep, _ -> ep
    | None, Some path -> path
    | None, None ->
      Fmt.epr "morpheus serve: give --socket PATH or --listen HOST:PORT@." ;
      exit 2
  in
  check_endpoint ~cmd:"serve" endpoint ;
  if replicate_interval_ms <= 0.0 then begin
    Fmt.epr "morpheus serve: --replicate-interval-ms must be > 0@." ;
    exit 2
  end ;
  with_runtime_errors @@ fun () ->
  let puller =
    Option.map
      (fun primary ->
        Fmt.pr "morpheus serve: replicating models from %s every %gms@." primary
          replicate_interval_ms ;
        Morpheus_cluster.Replicate.start ~primary ~replica:registry
          ~interval:(replicate_interval_ms /. 1e3))
      replicate_from
  in
  Fun.protect
    ~finally:(fun () -> Option.iter Morpheus_cluster.Replicate.stop puller)
    (fun () ->
      Morpheus_serve.Server.run
        { Morpheus_serve.Server.registry;
          socket = endpoint;
          max_batch;
          max_wait = max_wait_ms /. 1e3;
          queue_bound;
          cache_capacity;
          default_deadline_ms = deadline_ms;
          breaker_threshold;
          breaker_cooldown = breaker_cooldown_ms /. 1e3;
          drain_on_term
        })

let serve_cmd =
  let socket =
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix domain socket path to listen on.")
  in
  let listen =
    Arg.(value & opt (some string) None & info [ "listen" ] ~docv:"HOST:PORT"
           ~doc:"TCP endpoint to listen on (same protocol as --socket; \
                 port 0 picks an ephemeral port). Overrides --socket.")
  in
  let replicate_from =
    Arg.(value & opt (some string) None & info [ "replicate-from" ] ~docv:"DIR"
           ~doc:"Primary registry to pull model versions from into \
                 --registry (manifest-last commit point as the sync \
                 barrier); new versions start serving without a restart.")
  in
  let replicate_interval =
    Arg.(value & opt float 1000.0 & info [ "replicate-interval-ms" ]
           ~doc:"How often the replication puller syncs.")
  in
  let max_batch =
    Arg.(value & opt int 64 & info [ "max-batch" ]
           ~doc:"Requests per micro-batch before it closes.")
  in
  let max_wait =
    Arg.(value & opt float 2.0 & info [ "max-wait-ms" ]
           ~doc:"Micro-batch linger, milliseconds.")
  in
  let queue_bound =
    Arg.(value & opt int 1024 & info [ "queue-bound" ]
           ~doc:"Pending requests before overload shedding.")
  in
  let cache =
    Arg.(value & opt int 4 & info [ "cache" ]
           ~doc:"Normalized datasets kept in the LRU cache.")
  in
  let deadline =
    Arg.(value & opt (some float) None & info [ "default-deadline-ms" ]
           ~doc:"Deadline applied to requests that carry none.")
  in
  let breaker_threshold =
    Arg.(value & opt int 5 & info [ "breaker-threshold" ]
           ~doc:"Consecutive dataset-load failures before that dataset's \
                 circuit opens.")
  in
  let breaker_cooldown =
    Arg.(value & opt float 1000.0 & info [ "breaker-cooldown-ms" ]
           ~doc:"How long an open circuit refuses fast before probing again.")
  in
  let lockdep =
    Arg.(value & flag & info [ "lockdep" ]
           ~doc:"Enable the lock-order analyzer (same as MORPHEUS_LOCKDEP=1): \
                 record every lock acquisition and report ordering \
                 violations as they are first observed.")
  in
  let drain_on =
    Arg.(value & opt (some string) None & info [ "drain-on" ] ~docv:"SIGNAL"
           ~doc:"Drain instead of stopping on $(docv) (only SIGTERM is \
                 supported): health reports draining, queued work finishes, \
                 then the server exits on its own. SIGINT still stops \
                 immediately.")
  in
  Cmd.v
    (cmd_info "serve"
       ~doc:"Serve models from a registry over a Unix domain socket or TCP \
             endpoint with micro-batched factorized scoring.")
    Term.(const serve $ registry_arg $ socket $ listen $ threads_arg
          $ max_batch $ max_wait $ queue_bound $ cache $ deadline
          $ breaker_threshold $ breaker_cooldown $ lockdep $ replicate_from
          $ replicate_interval $ drain_on)

(* ---- route: the consistent-hash router over shard servers ---- *)

let route listen shards vnodes block breaker_threshold
    breaker_cooldown_ms lockdep probe_interval_ms eject_after rejoin_after =
  if lockdep then Analysis.Sync.enable_lockdep () ;
  let parse_shard spec =
    match String.index_opt spec '=' with
    | Some i when i > 0 && i < String.length spec - 1 ->
      ( String.sub spec 0 i,
        String.sub spec (i + 1) (String.length spec - i - 1) )
    | _ ->
      Fmt.epr "morpheus route: --shard wants NAME=ENDPOINT, got %S@." spec ;
      exit 2
  in
  let shards = List.map parse_shard shards in
  if shards = [] then begin
    Fmt.epr "morpheus route: give at least one --shard NAME=ENDPOINT@." ;
    exit 2
  end ;
  check_endpoint ~cmd:"route" listen ;
  List.iter (fun (_, ep) -> check_endpoint ~cmd:"route" ep) shards ;
  if vnodes < 1 || block < 1 || breaker_threshold < 1
     || breaker_cooldown_ms < 0.0
  then begin
    Fmt.epr "morpheus route: vnodes/block/breaker must be positive@." ;
    exit 2
  end ;
  if eject_after < 1 || rejoin_after < 1 then begin
    Fmt.epr "morpheus route: --eject-after/--rejoin-after must be >= 1@." ;
    exit 2
  end ;
  with_runtime_errors @@ fun () ->
  Morpheus_cluster.Router.run
    { Morpheus_cluster.Router.listen;
      shards;
      vnodes;
      block;
      breaker_threshold;
      breaker_cooldown = breaker_cooldown_ms /. 1e3;
      probe_interval = probe_interval_ms /. 1e3;
      probe_timeout = 1.0;
      eject_after;
      rejoin_after
    }

let route_cmd =
  let listen =
    Arg.(required & opt (some string) None & info [ "listen" ]
           ~docv:"ENDPOINT"
           ~doc:"Endpoint to listen on: HOST:PORT, tcp:HOST:PORT, or \
                 unix:PATH. Port 0 picks an ephemeral port.")
  in
  let shards =
    Arg.(value & opt_all string [] & info [ "shard" ] ~docv:"NAME=ENDPOINT"
           ~doc:"A shard server to route over (repeatable). NAME feeds the \
                 hash ring; ENDPOINT is the shard's --socket/--listen \
                 address.")
  in
  let vnodes =
    Arg.(value & opt int Morpheus_cluster.Ring.default_vnodes
         & info [ "vnodes" ]
             ~doc:"Virtual nodes per shard on the consistent-hash ring.")
  in
  let block =
    Arg.(value & opt int 64 & info [ "block" ]
           ~doc:"Row ids per placement block for scatter-gathered \
                 score_ids requests.")
  in
  let breaker_threshold =
    Arg.(value & opt int 3 & info [ "breaker-threshold" ]
           ~doc:"Consecutive transport failures before a shard's circuit \
                 opens.")
  in
  let breaker_cooldown =
    Arg.(value & opt float 1000.0 & info [ "breaker-cooldown-ms" ]
           ~doc:"How long an open shard circuit refuses fast before probing \
                 again.")
  in
  let lockdep =
    Arg.(value & flag & info [ "lockdep" ]
           ~doc:"Enable the lock-order analyzer (same as MORPHEUS_LOCKDEP=1).")
  in
  let probe_interval =
    Arg.(value & opt float 250.0 & info [ "probe-interval-ms" ]
           ~doc:"How often the router health-probes each shard; 0 disables \
                 active probing (membership then only changes by operator \
                 drain/undrain).")
  in
  let eject_after =
    Arg.(value & opt int 3 & info [ "eject-after" ]
           ~doc:"Consecutive probe failures before a shard leaves the ring.")
  in
  let rejoin_after =
    Arg.(value & opt int 2 & info [ "rejoin-after" ]
           ~doc:"Consecutive probe successes before an ejected shard \
                 rejoins the ring.")
  in
  Cmd.v
    (cmd_info "route"
       ~doc:"Route scoring requests over shard servers with consistent \
             hashing, active health probing with dynamic membership, \
             per-shard circuit breakers, failover, \
             deadline-aware admission, and scatter-gather for id sets \
             that span shards.")
    Term.(const route $ listen $ shards $ vnodes $ block $ breaker_threshold
          $ breaker_cooldown $ lockdep $ probe_interval $ eject_after
          $ rejoin_after)

(* ---- score: client for the scoring server ---- *)

let protocol_error (code, message) =
  Fmt.epr "morpheus score: [%s] %s@." code message ;
  exit 1

let print_predictions = Array.iter (fun p -> Fmt.pr "%.17g@." p)

let score socket model rows dataset ids where deadline_ms op_ping op_list
    op_stats op_shutdown op_health drain undrain op_membership retries
    retry_budget_ms =
  let module C = Morpheus_serve.Client in
  let module P = Morpheus_serve.Protocol in
  let module J = Morpheus_serve.Json in
  if retries < 1 || retry_budget_ms <= 0.0 then begin
    Fmt.epr "morpheus score: --retries must be >= 1, --retry-budget-ms > 0@." ;
    exit 2
  end ;
  check_endpoint ~cmd:"score" socket ;
  if drain <> None && undrain <> None then begin
    Fmt.epr "morpheus score: give --drain or --undrain, not both@." ;
    exit 2
  end ;
  let policy =
    (* batch-level failures (dataset load blips, transient exec faults)
       surface as "rejected"; the CLI treats them as retryable *)
    { C.default_retry with
      attempts = retries;
      budget = retry_budget_ms /. 1e3;
      retry_codes = "rejected" :: C.default_retry.C.retry_codes
    }
  in
  with_runtime_errors @@ fun () ->
  if op_health then begin
    match C.call_once ~socket P.Health with
    | Error e -> protocol_error e
    | Ok j ->
      let status =
        Option.value ~default:"?" (Option.bind (J.member "status" j) J.to_str)
      in
      let num k =
        Option.value ~default:0 (Option.bind (J.member k j) J.to_int)
      in
      Fmt.pr "%s (open circuits %d, handler restarts %d)@." status
        (num "open_circuits") (num "handler_restarts") ;
      if status <> "ok" then exit 1
  end
  else
  C.with_client ~socket @@ fun c ->
  if op_ping then
    match C.call c P.Ping with
    | Ok _ -> Fmt.pr "pong@."
    | Error e -> protocol_error e
  else if op_stats then
    match C.call c P.Stats with
    | Ok j ->
      print_endline
        (J.to_string (Option.value ~default:J.Null (J.member "stats" j)))
    | Error e -> protocol_error e
  else if op_list then
    match C.call c P.List_models with
    | Error e -> protocol_error e
    | Ok j ->
      let models =
        Option.bind (J.member "models" j) J.to_list |> Option.value ~default:[]
      in
      List.iter
        (fun m ->
          let str k =
            Option.value ~default:"?" (Option.bind (J.member k m) J.to_str)
          in
          let num k =
            Option.value ~default:0 (Option.bind (J.member k m) J.to_int)
          in
          Fmt.pr "%-24s %-12s d=%d@." (str "id") (str "kind") (num "feature_dim"))
        models
  else if op_shutdown then
    match C.call c P.Shutdown with
    | Ok _ -> Fmt.pr "server stopping@."
    | Error e -> protocol_error e
  else if drain <> None || undrain <> None then begin
    (* an empty shard name means "this endpoint itself" (server-side
       drain); the router requires a shard name *)
    let named = function Some "" -> None | s -> s in
    let req =
      match (drain, undrain) with
      | Some s, _ -> P.Drain (named (Some s))
      | _, Some s -> P.Undrain (named (Some s))
      | None, None -> assert false
    in
    match C.call c req with
    | Error e -> protocol_error e
    | Ok j ->
      let draining =
        Option.value ~default:false (Option.bind (J.member "draining" j) J.to_bool)
      in
      Fmt.pr "%s@." (if draining then "draining" else "not draining")
  end
  else if op_membership then
    match C.call c P.Membership with
    | Error e -> protocol_error e
    | Ok j -> print_endline (J.to_string j)
  else begin
    let model =
      match model with
      | Some m -> m
      | None ->
        Fmt.epr "morpheus score: --model is required to score@." ;
        exit 2
    in
    (match where with
    | Some _ when dataset = None ->
      Fmt.epr "morpheus score: --where requires --dataset@." ;
      exit 2
    | Some _ when ids <> [] ->
      Fmt.epr "morpheus score: give --ids or --where, not both@." ;
      exit 2
    | _ -> ()) ;
    match (rows, dataset) with
    | [], None ->
      Fmt.epr
        "morpheus score: give --row (repeatable) or --dataset + \
         --ids/--where@." ;
      exit 2
    | _ :: _, Some _ ->
      Fmt.epr "morpheus score: give --row or --dataset, not both@." ;
      exit 2
    | rows, None -> (
      let rows = Array.of_list (List.map Array.of_list rows) in
      let result =
        if retries > 1 then
          C.score_rows_retry ~policy ~socket ~model ?deadline_ms rows
        else C.score_rows c ~model ?deadline_ms rows
      in
      match result with
      | Ok preds -> print_predictions preds
      | Error e -> protocol_error e)
    | [], Some ds -> (
      match where with
      | Some src -> (
        let pred =
          match Pred.parse src with
          | Ok p -> p
          | Error msg ->
            Fmt.epr "morpheus score: bad --where predicate: %s@." msg ;
            exit 2
        in
        let result =
          if retries > 1 then
            C.score_where_retry ~policy ~socket ~model ~dataset:ds ?deadline_ms
              pred
          else C.score_where c ~model ~dataset:ds ?deadline_ms pred
        in
        match result with
        | Ok preds -> print_predictions preds
        | Error e -> protocol_error e)
      | None -> (
        if ids = [] then begin
          Fmt.epr "morpheus score: --dataset requires --ids or --where@." ;
          exit 2
        end ;
        let ids = Array.of_list ids in
        let result =
          if retries > 1 then
            C.score_ids_retry ~policy ~socket ~model ~dataset:ds ?deadline_ms
              ids
          else C.score_ids c ~model ~dataset:ds ?deadline_ms ids
        in
        match result with
        | Ok preds -> print_predictions preds
        | Error e -> protocol_error e))
  end

let score_cmd =
  let model =
    Arg.(value & opt (some string) None & info [ "model" ] ~docv:"NAME"
           ~doc:"Model to score with: name (latest version) or name@vN.")
  in
  let row =
    Arg.(value & opt_all (list float) [] & info [ "row" ] ~docv:"V,V,..."
           ~doc:"A dense feature row (repeatable).")
  in
  let dataset =
    Arg.(value & opt (some string) None & info [ "dataset" ] ~docv:"DIR"
           ~doc:"Server-side normalized dataset directory to score from.")
  in
  let ids =
    Arg.(value & opt (list int) [] & info [ "ids" ] ~docv:"I,I,..."
           ~doc:"Row ids of --dataset to score.")
  in
  let where =
    Arg.(value & opt (some string) None & info [ "where" ] ~docv:"PRED"
           ~doc:"Score every --dataset row matching this predicate (e.g. \
                 'age >= 30 && region == 2'); the server selects the \
                 segment with per-table masks and one factorized \
                 select_rows. Mutually exclusive with --ids.")
  in
  let deadline =
    Arg.(value & opt (some float) None & info [ "deadline-ms" ]
           ~doc:"Per-request deadline, milliseconds.")
  in
  let ping = Arg.(value & flag & info [ "ping" ] ~doc:"Health check only.") in
  let list_ = Arg.(value & flag & info [ "list" ] ~doc:"List served models.") in
  let stats =
    Arg.(value & flag & info [ "stats" ] ~doc:"Print the server's metrics JSON.")
  in
  let shutdown =
    Arg.(value & flag & info [ "shutdown" ] ~doc:"Ask the server to stop.")
  in
  let health =
    Arg.(value & flag & info [ "health" ]
           ~doc:"Print the server's self-healing status (exit 1 unless ok).")
  in
  let drain =
    Arg.(value & opt (some string) None & info [ "drain" ] ~docv:"SHARD"
           ~doc:"Ask a router to drain $(docv) (take it out of the ring \
                 gracefully); against a server, an empty $(docv) drains the \
                 server itself.")
  in
  let undrain =
    Arg.(value & opt (some string) None & info [ "undrain" ] ~docv:"SHARD"
           ~doc:"Reverse --drain: put $(docv) back in the ring (or cancel a \
                 server-side drain with an empty $(docv)).")
  in
  let membership =
    Arg.(value & flag & info [ "membership" ]
           ~doc:"Print the control-plane membership snapshot (per-shard \
                 state machine, ring, probe statistics) as JSON.")
  in
  let retries =
    Arg.(value & opt int 1 & info [ "retries" ] ~docv:"N"
           ~doc:"Total attempts per score request (transient errors retry \
                 with exponential backoff; responses are bitwise-identical \
                 across attempts).")
  in
  let retry_budget =
    Arg.(value & opt float 5000.0 & info [ "retry-budget-ms" ]
           ~doc:"Absolute time budget across all retry attempts.")
  in
  Cmd.v
    (cmd_info "score"
       ~doc:"Score rows against a running morpheus serve instance.")
    Term.(const score $ socket_arg $ model $ row $ dataset $ ids $ where
          $ deadline $ ping $ list_ $ stats $ shutdown $ health $ drain
          $ undrain $ membership $ retries $ retry_budget)

(* ---- models: offline registry listing ---- *)

let models registry recover =
  with_runtime_errors @@ fun () ->
  if recover then begin
    match Morpheus_serve.Registry.recover ~dir:registry with
    | [] -> Fmt.pr "no crash litter in %s@." registry
    | moved ->
      List.iter
        (fun (original, quarantined) ->
          Fmt.pr "quarantined %s -> %s@." original quarantined)
        moved
  end ;
  match Morpheus_serve.Registry.list ~dir:registry with
  | [] -> Fmt.pr "no models in %s@." registry
  | entries ->
    List.iter
      (fun (e : Morpheus_serve.Registry.entry) ->
        let m = e.manifest in
        Fmt.pr "%-24s %-12s d=%-5d %s@." e.id m.kind m.feature_dim
          (String.concat " "
             (List.map (fun (k, v) -> k ^ "=" ^ v) m.meta)))
      entries

let models_cmd =
  let recover =
    Arg.(value & flag & info [ "recover" ]
           ~doc:"First quarantine crash litter (orphaned *.tmp files, \
                 uncommitted version directories) into _quarantine/.")
  in
  Cmd.v
    (cmd_info "models" ~doc:"List the models in a registry directory.")
    Term.(const models $ registry_arg $ recover)

(* ---- lint: source-invariant checks over lib/ and bin/ ---- *)

let lint root =
  with_runtime_errors @@ fun () ->
  let cfg =
    { Analysis.Lint.root;
      protocol_ops = Morpheus_serve.Protocol.op_names;
      (* the two diagnostic catalogues, for the E205 uniqueness rule *)
      catalogues =
        [ ("Check", List.map Check.code_name Check.all_codes);
          ("Analysis", List.map Analysis.Diag.code_name Analysis.Diag.all_codes)
        ];
      relational_nodes = Ast.relational_node_names;
      router_ops = Morpheus_cluster.Router.routed_op_names
    }
  in
  match Analysis.Lint.run cfg with
  | [] -> Fmt.pr "lint: clean@."
  | findings ->
    List.iter
      (fun d -> print_endline (Analysis.Diag.to_string d))
      findings ;
    Fmt.epr "lint: %d finding(s)@." (List.length findings) ;
    exit 1

let lint_cmd =
  let root =
    Arg.(value & opt dir "." & info [ "root" ] ~docv:"DIR"
           ~doc:"Repository root containing lib/, bin/, and docs/.")
  in
  Cmd.v
    (cmd_info "lint"
       ~doc:"Check source-tree invariants the type system cannot \
             (E201-E208): fault points vs docs/ROBUSTNESS.md, protocol ops \
             vs docs/SERVING.md, raw concurrency/clock primitives outside \
             their sanctioned modules, diagnostic-code uniqueness across \
             catalogues, relational nodes vs docs/REWRITE_RULES.md, unsafe \
             indexing vs the kernel table of docs/ANALYSIS.md, and routed \
             ops and cluster fault points vs their doc tables.")
    Term.(const lint $ root)

(* ---- tune: sweep tile profiles for the blocked dense kernels ---- *)

let tune quick no_save =
  with_runtime_errors @@ fun () ->
  (match Tune.path () with
  | Some p -> Fmt.pr "profile file: %s@." p
  | None ->
    Fmt.pr "profile file: none (set MORPHEUS_TUNE_FILE or XDG_CACHE_HOME)@.") ;
  let winner, table = Blas.autotune ~quick ~now:Workload.Timing.now () in
  Fmt.pr "@[<v>%-44s %12s@]@." "candidate" "seconds" ;
  List.iter
    (fun ((p : Tune.profile), dt) ->
      let is_winner =
        p.mc = winner.Tune.mc && p.kc = winner.Tune.kc && p.nc = winner.Tune.nc
        && p.mr = winner.Tune.mr && p.nr = winner.Tune.nr
      in
      Fmt.pr "%-44s %12.4f%s@."
        (Printf.sprintf "mc=%d kc=%d nc=%d mr=%d nr=%d" p.mc p.kc p.nc p.mr
           p.nr)
        dt
        (if is_winner then "  <- winner" else ""))
    table ;
  Fmt.pr "winner: %s@." (Tune.describe winner) ;
  if no_save then Fmt.pr "not saved (--no-save)@."
  else
    match Tune.save winner with
    | Some path -> Fmt.pr "saved %s@." path
    | None -> Fmt.epr "warning: no writable profile path; profile not saved@."

let tune_cmd =
  let quick =
    Arg.(value & flag & info [ "quick" ]
           ~doc:"Sweep a reduced candidate set on a smaller workload \
                 (seconds instead of minutes; less precise).")
  in
  let no_save =
    Arg.(value & flag & info [ "no-save" ]
           ~doc:"Print the timing table without persisting the winner.")
  in
  Cmd.v
    (cmd_info "tune"
       ~doc:"Time candidate cache-blocking tile profiles for the dense \
             kernels and persist the winner (see MORPHEUS_TUNE in \
             docs/USAGE.md). Tile sizes are performance-only: every \
             profile produces bitwise-identical results.")
    Term.(const tune $ quick $ no_save)

let () =
  let doc = "factorized linear algebra over normalized data (Morpheus)" in
  let code =
    Cmd.eval ~term_err:2
      (Cmd.group (Cmd.info "morpheus" ~version ~doc)
         [ generate_cmd; info_cmd; train_cmd; cv_cmd; pca_cmd; explain_cmd;
           check_cmd; export_cmd; serve_cmd; route_cmd; score_cmd; models_cmd;
           lint_cmd; tune_cmd ])
  in
  (* cmdliner reports command-line misuse as its fixed 124; fold it into
     the documented usage-error code *)
  exit (if code = Cmd.Exit.cli_error then 2 else code)
