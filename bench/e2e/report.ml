(* The metric catalogue, run settings and output format shared by the
   workloads. BENCHMARK.json lists the same metric names; README.md says
   what each one measures on each workload. *)

let end_to_end =
  [ ("setup_s", "s");
    ("latency_p50_ms", "ms");
    ("latency_p90_ms", "ms");
    ("throughput_per_s", "1/s");
    ("success_frac", "fraction");
    ("rss_mb", "MB")
  ]

(* A layer that a workload does not run reports 0. *)
let per_layer =
  [ ("client.rtt_us", "us");
    ("client.rtt_mean_us", "us");
    ("trace.overhead_us", "us");
    ("endpoint.ping_us", "us");
    ("json.decode_us", "us");
    ("json.encode_us", "us");
    ("registry.resolve_us", "us");
    ("registry.versions", "count");
    ("registry.save_ms", "ms");
    ("server.score_mean_us", "us");
    ("server.transport_us", "us");
    ("serve.unattributed_us", "us");
    ("batcher.wait_us", "us");
    ("batcher.mean_requests", "count");
    ("batcher.batches_per_s", "1/s");
    ("dataset_cache.hit_rate", "fraction");
    ("core.select_rows_us", "us");
    ("artifact.score_us", "us");
    ("la.score_flops", "flop");
    ("router.score_mean_us", "us");
    ("router.overhead_us", "us");
    ("router.subrequests_per_request", "count");
    ("router.ejections", "count");
    ("loadgen.late_p99_ms", "ms");
    ("diag.score_p99_ms", "ms");
    ("relational.load_s", "s");
    ("ml.train_job_s", "s");
    ("ml.logreg_iter_ms", "ms");
    ("ml.kmeans_iter_ms", "ms");
    ("core.lmm_ms", "ms");
    ("core.tlmm_ms", "ms");
    ("core.kmeans_lmm_ms", "ms");
    ("core.kmeans_tlmm_ms", "ms");
    ("core.row_sums_sq_ms", "ms");
    ("la.logreg_gflops", "GFLOP/s");
    ("la.kmeans_gflops", "GFLOP/s");
    ("la.logreg_flops_per_iter", "flop");
    ("la.kmeans_flops_per_iter", "flop");
    ("core.factorized_speedup", "x")
  ]

(* Which phases run: [e2e] the untraced ones behind the end-to-end
   metrics, [layers] the traced one behind the per-layer metrics. *)
type mode = { e2e : bool; layers : bool }

(* Phase lengths in seconds. *)
type phases = {
  cold_starts : int;
  traced : float;
  warmup : float;
  open_loop : float;
  closed_loop : float;
  smoke : bool;  (** small inputs *)
}

(* [of_seconds 45.] is the full run: 3 s warm-up, 30 s open loop,
   10 s closed loop, 5 s traced. *)
let of_seconds s =
  { cold_starts = 5;
    traced = s /. 9.0;
    warmup = s /. 15.0;
    open_loop = s *. 2.0 /. 3.0;
    closed_loop = s *. 2.0 /. 9.0;
    smoke = false
  }

let smoke =
  { cold_starts = 5;
    traced = 0.5;
    warmup = 0.2;
    open_loop = 1.0;
    closed_loop = 0.5;
    smoke = true
  }

type result = {
  workload : string;
  values : (string, float) Hashtbl.t;
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
      (** wrong outputs and broken validity guards: each one fails the run *)
}

let create workload =
  { workload; values = Hashtbl.create 64; attempted = 0; failed = 0; problems = [] }

let set r name v = Hashtbl.replace r.values name v
let get r name = Option.value ~default:0.0 (Hashtbl.find_opt r.values name)

let problem r msg =
  Printf.eprintf "%s: %s\n%!" r.workload msg ;
  r.problems <- msg :: r.problems

let require r ok msg = if not ok then problem r msg

let selected mode =
  (if mode.e2e then end_to_end else []) @ if mode.layers then per_layer else []

(* One "workload metric value unit" line per selected metric. A value
   that is not a finite number is a failed measurement. *)
let print_lines mode r =
  List.iter
    (fun (name, unit_) ->
      let v = get r name in
      if Float.is_finite v then Printf.printf "%s %s %.6g %s\n" r.workload name v unit_
      else problem r (Printf.sprintf "%s was not measured" name))
    (selected mode)

(* The closing JSON object. With one workload its metric names are
   bare; a multi-workload run prefixes them with "workload/". *)
let final_json mode results =
  let open Morpheus_serve in
  let prefix r = match results with [ _ ] -> "" | _ -> r.workload ^ "/" in
  let metrics =
    List.concat_map
      (fun r ->
        List.map
          (fun (name, unit_) ->
            let v = get r name in
            ( prefix r ^ name,
              Json.Obj
                [ ("value", Json.Num (if Float.is_finite v then v else 0.0));
                  ("unit", Json.Str unit_)
                ] ))
          (selected mode))
      results
  in
  let total f = float_of_int (List.fold_left (fun acc r -> acc + f r) 0 results) in
  Json.Obj
    [ ("correct", Json.Bool (List.for_all (fun r -> r.problems = []) results));
      ("attempted", Json.Num (total (fun r -> r.attempted)));
      ("failed", Json.Num (total (fun r -> r.failed)));
      ("metrics", Json.Obj metrics)
    ]
