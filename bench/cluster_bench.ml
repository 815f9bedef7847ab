(* Sharded-serving bench: closed-loop scoring throughput against a
   `morpheus route` process over 1 → 2 → 4 shard server processes on
   loopback TCP (the Fleet).

   Four client threads each hold one keep-alive connection to the
   router and issue score_ids requests over an 8-id spread (blocks
   hash to different shards, so most requests scatter-gather) for a
   fixed wall-clock window; the reported quantity is requests/s and
   latency percentiles per shard count. A point fails unless the
   router still reports every shard active at the end of its window:
   a shard starved of health probes is measured degraded.

   Results go to stdout as a table and to BENCH_cluster.json. *)

open Morpheus_serve
open Workload

let shard_counts = [ 1; 2; 4 ]
let client_threads = 4

(* One point: [n] shards, [client_threads] threads for [window] s. *)
let point ~bin (fx : Fleet.fixture) ~window n =
  Fleet.with_fleet ~bin fx ~shards:n
  @@ fun router ->
  let loop =
    Harness.closed_loop ~threads:client_threads ~stop:(Seconds window)
      (fun th send ->
        Client.with_client ~socket:router (fun c ->
            send (fun i ->
                let ids =
                  Array.init 8 (fun k ->
                      ((th * 7919) + (i * 13) + (29 * k)) mod fx.rows)
                in
                Client.score_ids c ~model:fx.model ~dataset:fx.dataset ids)))
  in
  Option.iter
    (fun e ->
      failwith
        (Printf.sprintf "cluster bench: %d requests failed: %s" loop.failed e))
    loop.error ;
  Fleet.require_all_active router ;
  loop

let run cfg =
  Harness.section "Cluster scaling: routed score_ids over 1/2/4 shard processes" ;
  match Fleet.cli () with
  | None -> ()
  | Some bin ->
    let rows = if cfg.Harness.quick then 400 else 2_000 in
    let window = if cfg.Harness.quick then 1.0 else 4.0 in
    Harness.with_temp_dir "cluster_bench"
    @@ fun root ->
    let fx = Fleet.fixture ~root ~rows in
    Printf.printf
      "dataset: %d rows; %d client threads, %gs window per point; host \
       cores online: %d\n"
      rows client_threads window Harness.cores_online ;
    let results =
      List.map
        (fun n ->
          let loop = point ~bin fx ~window n in
          let p q = Timing.percentile q loop.latencies in
          (n, float_of_int loop.ok /. loop.elapsed, p 50.0, p 95.0, p 99.0))
        shard_counts
    in
    Printf.printf "\n%-8s %10s %10s %10s %10s %9s\n" "shards" "req/s" "p50"
      "p95" "p99" "speedup" ;
    let base_rate = match results with (_, r, _, _, _) :: _ -> r | [] -> 1.0 in
    List.iter
      (fun (n, rate, p50, p95, p99) ->
        Printf.printf "%-8d %10.0f %10s %10s %10s %8.2fx\n" n rate
          (Harness.ts p50) (Harness.ts p95) (Harness.ts p99)
          (rate /. base_rate))
      results ;
    let open Harness in
    write_report cfg "BENCH_cluster.json"
      [ ( "setting",
          Json.Obj
            [ ("rows", int rows); ("client_threads", int client_threads);
              ("window_s", num window); ("ids_per_request", int 8);
              ("block", int 8)
            ] );
        ("shards", list int shard_counts);
        ( "points",
          list
            (fun (n, rate, p50, p95, p99) ->
              Json.Obj
                [ ("shards", int n); ("req_per_s", num rate);
                  ("speedup_vs_1", num (rate /. base_rate));
                  ( "latency_s",
                    Json.Obj
                      [ ("p50", num p50); ("p95", num p95); ("p99", num p99) ]
                  )
                ])
            results )
      ]
