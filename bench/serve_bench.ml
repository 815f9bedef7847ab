(* Serving bench: closed-loop clients against an in-process scoring
   server on a Unix socket, measuring end-to-end request latency
   (client-side p50/p95/p99) and throughput. The interesting contrast
   is micro-batching on (max_batch 64) vs off (max_batch 1): with
   batching, concurrent same-model requests fuse into one factorized
   select_rows + product, so the R-side work is paid once per batch
   instead of once per request.

   Results go to stdout and BENCH_serve.json in the current directory. *)

open La
open Morpheus
open Morpheus_serve

type scenario = {
  name : string;
  clients : int;
  loop : Harness.loop;
  mean_batch : float;
  batches : int;
}

(* One closed loop against a fresh server: [clients] threads of
   [requests] score-by-ids calls of [ids_per_req] rows each. *)
let run_scenario ~name ~registry ~socket ~model ~dataset ~n_rows ~max_batch
    ~clients ~requests ~ids_per_req =
  let server =
    Server.start
      { (Server.default_config ~registry ~socket) with
        Server.max_batch;
        (* zero linger: a batch is whatever queued while the scorer was
           busy, so batching never *adds* latency and the contrast with
           max_batch = 1 isolates the fusion win *)
        max_wait = 0.0;
        handlers = clients
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
  let snapshot = Metrics.snapshot (Server.metrics server) in
  let batches k conv =
    Option.bind (Json.member "batches" snapshot) (Json.member k)
    |> Fun.flip Option.bind conv
  in
  { name;
    clients;
    loop;
    mean_batch = Option.value ~default:0.0 (batches "mean_requests" Json.to_float);
    batches = Option.value ~default:0 (batches "count" Json.to_int)
  }

let rate r = float_of_int r.loop.ok /. r.loop.elapsed
let ms r p = 1e3 *. Workload.Timing.percentile p r.loop.latencies

let print_result r =
  Printf.printf
    "%-12s %2d clients  %6d reqs  %7.0f req/s  p50 %6.3fms  p95 %6.3fms  p99 \
     %6.3fms  (batches: %d, mean %.1f reqs)\n%!"
    r.name r.clients r.loop.ok (rate r) (ms r 50.0) (ms r 95.0) (ms r 99.0)
    r.batches r.mean_batch

let json_result r =
  let open Harness in
  Json.Obj
    [ ("scenario", Json.Str r.name); ("clients", int r.clients);
      ("requests", int r.loop.ok); ("throughput_rps", num (rate r));
      ("p50_ms", num (ms r 50.0)); ("p95_ms", num (ms r 95.0));
      ("p99_ms", num (ms r 99.0)); ("max_ms", num (ms r 100.0));
      ("batches", int r.batches); ("mean_batch_requests", num r.mean_batch)
    ]

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
  Printf.printf "dataset: %d x %d (nr=%d), model %s, %d ids/request\n%!" n_rows
    d nr model ids_per_req ;
  let scenario name max_batch i =
    run_scenario ~name ~registry
      ~socket:(Filename.concat root (Printf.sprintf "sock%d" i))
      ~model ~dataset ~n_rows ~max_batch ~clients ~requests ~ids_per_req
  in
  let unbatched = scenario "unbatched" 1 0 in
  print_result unbatched ;
  let batched = scenario "batched" 64 1 in
  print_result batched ;
  Printf.printf "micro-batching p95 speed-up: %.2fx\n%!"
    (ms unbatched 95.0 /. Float.max 1e-6 (ms batched 95.0)) ;
  let open Harness in
  write_report cfg "BENCH_serve.json"
    [ ( "workload",
        Json.Obj
          [ ("ns", int ns); ("nr", int nr); ("d", int d); ("clients", int clients);
            ("requests_per_client", int requests);
            ("ids_per_request", int ids_per_req)
          ] );
      ("scenarios", list json_result [ unbatched; batched ])
    ]
