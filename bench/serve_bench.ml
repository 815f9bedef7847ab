(* Serving bench: closed-loop clients against an in-process scoring
   server on a Unix socket, measuring end-to-end request latency
   (client-side p50/p95/p99) and throughput. The interesting contrast
   is micro-batching on (max_batch 64) vs off (max_batch 1): with
   batching, concurrent same-model requests fuse into one factorized
   select_rows + product, so the R-side work is paid once per batch
   instead of once per request. Each scenario runs `--runs` times, each
   on a fresh server: how many requests a batch fuses varies from run
   to run on a small host, so the report holds the median and min–max
   over runs, and the CPU steal ticks over them.

   Results go to stdout and BENCH_serve.json in the current directory. *)

open La
open Morpheus
open Morpheus_serve

type run = { loop : Harness.loop; mean_batch : float }

(* One closed loop against a fresh server: [clients] threads of
   [requests] score-by-ids calls of [ids_per_req] rows each. *)
let run_once ~registry ~socket ~model ~dataset ~n_rows ~max_batch ~clients
    ~requests ~ids_per_req =
  let server =
    Server.start
      { (Server.default_config ~registry ~socket) with
        Server.max_batch;
        (* zero linger: a batch is whatever queued while the scorer was
           busy, so batching never *adds* latency and the contrast with
           max_batch = 1 isolates the fusion win *)
        max_wait = 0.0
      }
  in
  Fun.protect ~finally:(fun () -> Server.stop server)
  @@ fun () ->
  (* warmup: fault in the model and the dataset *)
  Client.with_client ~socket (fun c ->
      match Client.score_ids c ~model ~dataset [| 0 |] with
      | Ok _ -> ()
      | Error (code, msg) ->
        failwith (Printf.sprintf "serve bench warmup: [%s] %s" code msg)) ;
  let loop =
    Harness.closed_loop ~threads:clients ~stop:(Requests requests)
      (fun th send ->
        let rng = Rng.of_int (1000 + th) in
        Client.with_client ~socket (fun c ->
            send (fun _ ->
                let ids = Array.init ids_per_req (fun _ -> Rng.int rng n_rows) in
                Client.score_ids c ~model ~dataset ids)))
  in
  Option.iter
    (fun e ->
      failwith
        (Printf.sprintf "serve bench: %d requests failed: %s" loop.failed e))
    loop.error ;
  let mean_batch =
    Metrics.snapshot (Server.metrics server)
    |> Json.member "batches"
    |> Fun.flip Option.bind (Json.member "mean_requests")
    |> Fun.flip Option.bind Json.to_float
  in
  { loop; mean_batch = Option.value ~default:0.0 mean_batch }

let rate r = float_of_int r.loop.ok /. r.loop.elapsed
let ms p r = 1e3 *. Workload.Timing.percentile p r.loop.latencies

let run (cfg : Harness.config) =
  Harness.section "Serving: micro-batched scoring over a Unix socket" ;
  (* a heavy attribute table: the R-side term of the factorized product
     is the per-batch fixed cost micro-batching amortizes *)
  let ns = if cfg.Harness.quick then 20_000 else 100_000 in
  let nr = if cfg.Harness.quick then 500 else 2_000 in
  let dr = if cfg.Harness.quick then 100 else 200 in
  let clients = if cfg.Harness.quick then 4 else 8 in
  let requests = if cfg.Harness.quick then 150 else 600 in
  let ids_per_req = 8 in
  let runs = max 1 cfg.Harness.runs in
  Harness.with_temp_dir "serve_bench"
  @@ fun root ->
  let data = Workload.Synthetic.pkfk ~seed:7 ~ns ~ds:5 ~nr ~dr () in
  let t = data.Workload.Synthetic.t in
  let n_rows, d = Normalized.dims t in
  let dataset = Filename.concat root "ds" in
  Io.save ~dir:dataset t ;
  let registry = Filename.concat root "reg" in
  let model =
    (Registry.save ~dir:registry ~name:"bench"
       ~schema_hash:(Registry.schema_hash t)
       (Artifact.Logreg (Dense.random ~rng:(Rng.of_int 9) d 1)))
      .Registry.id
  in
  Printf.printf
    "dataset: %d x %d (nr=%d), model %s, %d ids/request, %d runs\n%!" n_rows d
    nr model ids_per_req runs ;
  let open Harness in
  let fresh = ref 0 in
  (* [runs] runs of one scenario, each on a fresh server *)
  let scenario name max_batch =
    let rs, steal =
      repeat runs (fun () ->
          incr fresh ;
          run_once ~registry
            ~socket:(Filename.concat root (Printf.sprintf "sock%d" !fresh))
            ~model ~dataset ~n_rows ~max_batch ~clients ~requests ~ids_per_req)
    in
    let m f = median (List.map f rs) in
    Printf.printf
      "%-10s %d clients  %7.0f req/s (%.0f-%.0f)  p50 %6.3fms  p95 %6.3fms  \
       p99 %6.3fms  (mean batch %.1f reqs)\n%!"
      name clients (m rate) (lo (List.map rate rs)) (hi (List.map rate rs))
      (m (ms 50.0)) (m (ms 95.0)) (m (ms 99.0)) (m (fun r -> r.mean_batch)) ;
    (name, rs, steal)
  in
  let unbatched = scenario "unbatched" 1 in
  let batched = scenario "batched" 64 in
  let p95 (_, rs, _) = median (List.map (ms 95.0) rs) in
  Printf.printf "micro-batching p95 speed-up (medians): %.2fx\n%!"
    (p95 unbatched /. Float.max 1e-6 (p95 batched)) ;
  write_report cfg "BENCH_serve.json"
    [ ( "workload",
        Json.Obj
          [ ("ns", int ns); ("nr", int nr); ("d", int d); ("clients", int clients);
            ("requests_per_client", int requests);
            ("ids_per_request", int ids_per_req); ("runs", int runs)
          ] );
      ( "scenarios",
        list
          (fun (name, rs, steal) ->
            Json.Obj
              [ ("scenario", Json.Str name);
                ("throughput_rps", spread rate rs);
                ("p50_ms", spread (ms 50.0) rs);
                ("p95_ms", spread (ms 95.0) rs);
                ("p99_ms", spread (ms 99.0) rs);
                ("mean_batch_requests", spread (fun r -> r.mean_batch) rs);
                ("steal_ticks", steal_json steal)
              ])
          [ unbatched; batched ] )
    ]
