(* The train workload: an in-process job over the CSVs `morpheus
   generate --ns 20000 --nr 1000 --ds 5 --dr 40` writes —
   Builder.pkfk_of_csv → factorized logistic regression → Registry.save
   → factorized K-Means → Registry.save.
   One warm-up job, timed jobs for the open-loop window (at least five),
   and one traced job whose trainers run over a timing wrapper of the
   factorized operators. *)

open La
open Morpheus
open Morpheus_serve

let now = Workload.Timing.now
let logreg_iters = 20
let kmeans_iters = 10
let k = 8
let min_timed_jobs = 5

module F = Ml_algs.Algorithms.Factorized
module M = Ml_algs.Algorithms.Materialized

(* Every operator call the traced trainers make: name, start, stop. *)
let calls = ref []

let timed name f =
  let t0 = now () in
  let r = f () in
  calls := (name, t0, now ()) :: !calls ;
  r

module Timed (D : Data_matrix.S) = struct
  include D

  let lmm t x = timed "lmm" (fun () -> D.lmm t x)
  let tlmm t x = timed "tlmm" (fun () -> D.tlmm t x)
  let row_sums_sq t = timed "row_sums_sq" (fun () -> D.row_sums_sq t)
end

module TF = Timed (Factorized_matrix)
module TLogreg = Ml_algs.Logreg.Make (TF)
module TKmeans = Ml_algs.Kmeans.Make (TF)

(* One trainer run: (time, flop count) at its start and after each
   iteration, read in [on_iter]. *)
type run = (float * float) array

let iterate train =
  let marks = ref [ (now (), Flops.get ()) ] in
  let r = train (fun _ _ -> marks := (now (), Flops.get ()) :: !marks) in
  (r, (Array.of_list (List.rev !marks) : run))

(* Seconds and flops of each iteration. *)
let per_iteration (run : run) =
  Array.init (Array.length run - 1) (fun i ->
      (fst run.(i + 1) -. fst run.(i), snd run.(i + 1) -. snd run.(i)))

let start (run : run) = fst run.(0)
let stop (run : run) = fst run.(Array.length run - 1)

type job = {
  started : float;
  load_s : float;
  total_s : float;
  logreg : run;
  kmeans : run;
  t : Normalized.t;
  y : Dense.t;
  w : Dense.t;
  centroids : Dense.t;
}

type ctx = {
  res : Report.result;
  trace : Chrome_trace.t;
  gen : string;
  reg : string;
  mutable saves : float list;
  mutable saved : (string * Artifact.t) list;
}

let load gen =
  let role_s = function
    | "fk" -> Relational.Schema.Foreign_key "R"
    | "y" -> Relational.Schema.Target
    | _ -> Relational.Schema.Numeric_feature
  in
  let role_r = function
    | "pk" -> Relational.Schema.Primary_key
    | _ -> Relational.Schema.Numeric_feature
  in
  Builder.pkfk_of_csv ~s_path:(Filename.concat gen "S.csv") ~s_roles:role_s ~fk:"fk"
    ~r_path:(Filename.concat gen "R.csv") ~r_roles:role_r ~pk:"pk" ()

let save ctx t name art =
  let t0 = now () in
  let entry = Registry.save ~dir:ctx.reg ~name ~schema_hash:(Registry.schema_hash t) art in
  ctx.saves <- (now () -. t0) :: ctx.saves ;
  ctx.saved <- (entry.Registry.id, art) :: ctx.saved

(* Each job starts from a collected heap, as a job in a fresh process
   would, so no job pays for its predecessors' garbage. *)
let job ?(traced = false) ctx =
  Gc.full_major () ;
  let t0 = now () in
  let ds = load ctx.gen in
  let load_s = now () -. t0 in
  let t = ds.Builder.matrix and y = Option.get ds.Builder.target in
  let w, logreg =
    iterate (fun on_iter ->
        if traced then (TLogreg.train ~iters:logreg_iters ~on_iter t y).TLogreg.w
        else (F.Logreg.train ~iters:logreg_iters ~on_iter t y).F.Logreg.w)
  in
  save ctx t "lr" (Artifact.Logreg w) ;
  let centroids, kmeans =
    iterate (fun on_iter ->
        if traced then (TKmeans.train ~iters:kmeans_iters ~on_iter ~k t).TKmeans.centroids
        else (F.Kmeans.train ~iters:kmeans_iters ~on_iter ~k t).F.Kmeans.centroids)
  in
  save ctx t "km" (Artifact.Kmeans centroids) ;
  { started = t0; load_s; total_s = now () -. t0; logreg; kmeans; t; y; w; centroids }

let median_ms xs = 1e3 *. Stats.median xs

(* Spans of the traced job: the job, its load, each trainer, each
   iteration, and each operator call inside an iteration. *)
let record_spans ctx j =
  let span ?parent name cat a b =
    Chrome_trace.span ctx.trace ?parent ~name ~cat ~tid:0 ~start:a ~stop:b ()
  in
  let job_id = span "train job" "ml" j.started (j.started +. j.total_s) in
  ignore
    (span ~parent:job_id "Builder.pkfk_of_csv" "relational" j.started (j.started +. j.load_s)) ;
  let trainer name run =
    let id = span ~parent:job_id name "ml" (start run) (stop run) in
    let iters =
      Array.init
        (Array.length run - 1)
        (fun i ->
          let a = fst run.(i) and b = fst run.(i + 1) in
          (span ~parent:id (Printf.sprintf "iteration %d" (i + 1)) "ml" a b, a, b))
    in
    List.iter
      (fun (op, a, b) ->
        if a >= start run && b <= stop run then
          let parent =
            Array.fold_left
              (fun p (iid, ia, ib) -> if a >= ia && b <= ib then iid else p)
              id iters
          in
          ignore (span ~parent op "core" a b))
      !calls
  in
  trainer "Logreg.train" j.logreg ;
  trainer "Kmeans.train" j.kmeans

(* Operator-call medians (ms) within one trainer's run. *)
let op_ms run op =
  !calls
  |> List.filter (fun (name, a, b) -> name = op && a >= start run && b <= stop run)
  |> List.map (fun (_, a, b) -> b -. a)
  |> Array.of_list |> median_ms

let layer_numbers ctx j =
  let set = Report.set ctx.res in
  set "relational.load_s" j.load_s ;
  set "ml.train_job_s" j.total_s ;
  let algo prefix run =
    let it = per_iteration run in
    let secs = Array.map fst it and flops = Stats.median (Array.map snd it) in
    set (Printf.sprintf "ml.%s_iter_ms" prefix) (median_ms secs) ;
    set (Printf.sprintf "la.%s_flops_per_iter" prefix) flops ;
    set (Printf.sprintf "la.%s_gflops" prefix) (flops /. Stats.median secs /. 1e9)
  in
  algo "logreg" j.logreg ;
  algo "kmeans" j.kmeans ;
  set "core.lmm_ms" (op_ms j.logreg "lmm") ;
  set "core.tlmm_ms" (op_ms j.logreg "tlmm") ;
  set "core.kmeans_lmm_ms" (op_ms j.kmeans "lmm") ;
  set "core.kmeans_tlmm_ms" (op_ms j.kmeans "tlmm") ;
  set "core.row_sums_sq_ms" (op_ms j.kmeans "row_sums_sq")

(* ---- the check ---- *)

let iteration_s run = stop run -. start run

(* Factorized against materialized within 1e-9 of the reference's
   largest entry; the per-iteration time ratio is the measured §3.7
   speed-up. Every saved version must load back bitwise. *)
let check ctx j =
  let m = Materialize.to_regular j.t in
  let w_ref, mat_lr =
    iterate (fun on_iter -> (M.Logreg.train ~iters:logreg_iters ~on_iter m j.y).M.Logreg.w)
  in
  let c_ref, mat_km =
    iterate (fun on_iter -> (M.Kmeans.train ~iters:kmeans_iters ~on_iter ~k m).M.Kmeans.centroids)
  in
  let close name got ref_ =
    let err = Dense.max_abs_diff got ref_ and scale = Dense.max_abs ref_ in
    Report.require ctx.res (err <= 1e-9 *. scale)
      (Printf.sprintf "factorized %s differs from materialized by %g (max |ref| %g)" name err
         scale)
  in
  close "logreg weights" j.w w_ref ;
  close "K-Means centroids" j.centroids c_ref ;
  Report.set ctx.res "core.factorized_speedup"
    ((iteration_s mat_lr +. iteration_s mat_km) /. (iteration_s j.logreg +. iteration_s j.kmeans)) ;
  Printf.printf "%s decision heuristic chooses %s\n" ctx.res.Report.workload
    (Decision.to_string (Decision.heuristic j.t)) ;
  List.iter
    (fun (id, art) ->
      match (Registry.load ~dir:ctx.reg id, art) with
      | Ok (Artifact.Logreg a, _), Artifact.Logreg b | Ok (Artifact.Kmeans a, _), Artifact.Kmeans b
        ->
        Report.require ctx.res
          (Dense.dims a = Dense.dims b && Serving.bits_equal (Dense.data a) (Dense.data b))
          (id ^ " changed through Registry.load")
      | Ok _, _ -> Report.problem ctx.res (id ^ " loaded as another kind")
      | Error msg, _ -> Report.problem ctx.res (id ^ ": " ^ msg))
    ctx.saved

(* ---- the workload ---- *)

let run ~cli ~seed ~(phases : Report.phases) ~(mode : Report.mode) () =
  let name = "train" in
  let res = Report.create name in
  Serving.rm_rf name ;
  Sys.mkdir name 0o755 ;
  let ctx =
    { res;
      trace = Chrome_trace.create ~origin:(now ());
      gen = Filename.concat name "csv";
      reg = Filename.concat name "reg";
      saves = [];
      saved = []
    }
  in
  (* TR = ns/nr = 20 and FR = dr/ds = 8 at either size. The full size
     keeps one iteration's working set (~1.5 MB) within a core's L2
     cache (2 MB on the host the benchmark was written on): at ten times
     the rows, iteration times follow the memory traffic of other
     tenants of a shared host and swing by half from one run to the
     next. *)
  let ns, nr = if phases.smoke then (5_000, 250) else (20_000, 1_000) in
  Procs.run ~cli ~log:(Filename.concat name "generate.log")
    [ "generate"; "--dir"; ctx.gen; "--ns"; string_of_int ns; "--nr"; string_of_int nr;
      "--ds"; "5"; "--dr"; "40"; "--seed"; string_of_int seed ] ;
  (* every job counts as one attempted operation; a job that raises
     fails the run *)
  let counted f =
    res.attempted <- res.attempted + 1 ;
    f ()
  in
  let last = ref (counted (fun () -> job ctx)) in
  let untraced_job_s = ref Float.nan in
  if mode.e2e then begin
    (* keep each timed job's numbers, not its matrices *)
    let t0 = now () and timed = ref [] in
    while List.length !timed < min_timed_jobs || now () -. t0 < phases.open_loop do
      let j = counted (fun () -> job ctx) in
      last := j ;
      let ms run = Array.map (fun (s, _) -> 1e3 *. s) (per_iteration run) in
      timed := (j.load_s, j.total_s, Array.append (ms j.logreg) (ms j.kmeans)) :: !timed
    done ;
    let timed = Array.of_list !timed in
    (* Other tenants of the host only ever slow a job down, by up to a
       third for minutes at a time, so each iteration is timed as the
       best of the run's jobs (the rationale of timeit's minimum) *)
    let best =
      Array.init (logreg_iters + kmeans_iters) (fun i ->
          Array.fold_left (fun acc (_, _, its) -> Float.min acc its.(i)) Float.infinity timed)
    in
    let totals = Array.map (fun (_, t, _) -> t) timed in
    Report.set res "setup_s" (Stats.median (Array.map (fun (l, _, _) -> l) timed)) ;
    Report.set res "latency_p50_ms" (Stats.median best) ;
    Report.set res "latency_p90_ms" (Stats.percentile 90.0 best) ;
    Report.set res "throughput_per_s" (1.0 /. Array.fold_left Float.min Float.infinity totals) ;
    Report.set res "rss_mb" (Procs.peak_rss_mb "self") ;
    untraced_job_s := Stats.median totals
  end ;
  if mode.layers then begin
    calls := [] ;
    let j = counted (fun () -> job ~traced:true ctx) in
    record_spans ctx j ;
    layer_numbers ctx j ;
    (* the untraced reference for the tracing overhead *)
    if not mode.e2e then untraced_job_s := (counted (fun () -> job ctx)).total_s ;
    Report.set res "trace.overhead_us" (1e6 *. (j.total_s -. !untraced_job_s)) ;
    last := j ;
    Report.set res "registry.resolve_us"
      (Serving.median_us (fun () -> Registry.resolve ~dir:ctx.reg "lr") (Array.make 200 ())) ;
    Chrome_trace.write ctx.trace (Filename.concat name "trace.json")
  end ;
  Report.set res "registry.versions" (float_of_int (List.length (Registry.list ~dir:ctx.reg))) ;
  Report.set res "registry.save_ms" (1e3 *. Stats.median (Array.of_list ctx.saves)) ;
  check ctx !last ;
  res
