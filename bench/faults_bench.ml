(* Transport-fault bench: closed-loop routed scoring throughput while
   the shards' transport layer misbehaves. Two shard server processes
   and one router run from the CLI binary (MORPHEUS_BIN); each point
   arms transport fault points in the *shard* processes via
   MORPHEUS_FAULTS in their environment:
   - none, read, read+torn: 0, 1 or 2 byte-level faults on both
     shards — dropped reads (`endpoint.read`) and torn frames
     (`endpoint.write.torn`);
   - slow-owner: shard 0 alone stalls 2% of its writes by 50 ms
     (`endpoint.stall`). Its health probes still answer well within
     the router's probe timeout, so the point measures a slow owner,
     not failover, and it fails unless every shard is still active at
     the end of its window.

   Clients issue score_ids with the retrying client (transport errors
   are retryable and idempotent, so every accepted answer is still
   bitwise-identical to a fault-free run); the reported quantities are
   requests/s, success-latency p50/p95/p99 (a slow owner shows at p99,
   not at p95), and how many requests exhausted the retry budget.

   Results go to stdout as a table and to BENCH_faults.json. *)

open La
open Morpheus_serve
open Workload

let client_threads = 4

(* (label, MORPHEUS_FAULTS spec, armed point count, slow owner). The
   byte-fault points arm both shards and fail probes legitimately; the
   slow owner arms shard 0 alone and must leave every shard active. *)
let fault_configs =
  [ ("none", "", 0, false);
    ("read", "seed=7,endpoint.read=0.02", 1, false);
    ("read+torn", "seed=7,endpoint.read=0.02,endpoint.write.torn=0.01", 2, false);
    ("slow-owner", "seed=7,endpoint.stall=0.02:delay50", 1, true)
  ]

let policy =
  { Client.default_retry with
    attempts = 6;
    base_backoff = 2e-3;
    max_backoff = 0.05;
    budget = 5.0;
    retry_codes = "unavailable" :: "rejected" :: Client.default_retry.retry_codes
  }

(* One point: 2 shards with [faults] armed (on shard 0 alone for a
   [slow] owner), a router at the fleet defaults, [client_threads]
   threads of retried score_ids for [window] s. A request that exhausts
   its retry budget under injected faults fails with a structured
   transient error, never a wrong answer. *)
let point ~bin (fx : Fleet.fixture) ~window ~faults ~slow =
  let env i =
    if faults = "" || (slow && i <> 0) then [] else [ "MORPHEUS_FAULTS=" ^ faults ]
  in
  Fleet.with_fleet ~bin ~env fx ~shards:2
  @@ fun router ->
  let loop =
    Harness.closed_loop ~threads:client_threads ~stop:(Seconds window)
      (fun th send ->
        let rng = Rng.of_int (0xfa017 + th) in
        send (fun i ->
            let ids =
              Array.init 8 (fun k -> ((th * 7919) + (i * 13) + (29 * k)) mod fx.rows)
            in
            Client.score_ids_retry ~policy ~rng ~socket:router ~model:fx.model
              ~dataset:fx.dataset ids))
  in
  if slow then Fleet.require_all_active router ;
  loop

let run cfg =
  Harness.section
    "Transport chaos: routed throughput under byte-level faults and a slow \
     owner" ;
  match Fleet.cli () with
  | None -> ()
  | Some bin ->
    let rows = if cfg.Harness.quick then 400 else 2_000 in
    let window = if cfg.Harness.quick then 0.8 else 2.5 in
    Harness.with_temp_dir "faults_bench"
    @@ fun root ->
    let fx = Fleet.fixture ~root ~rows in
    Printf.printf
      "dataset: %d rows; 2 shards, %d client threads, %gs window per point; \
       host cores online: %d\n"
      rows client_threads window Harness.cores_online ;
    let results =
      List.map
        (fun (label, faults, armed, slow) ->
          let loop = point ~bin fx ~window ~faults ~slow in
          let p q = Timing.percentile q loop.latencies in
          ( label, armed, float_of_int loop.ok /. loop.elapsed, loop.failed,
            p 50.0, p 95.0, p 99.0 ))
        fault_configs
    in
    Printf.printf "\n%-11s %6s %10s %10s %10s %10s %10s\n" "faults" "armed"
      "req/s" "p50" "p95" "p99" "exhausted" ;
    List.iter
      (fun (label, armed, rate, exhausted, p50, p95, p99) ->
        Printf.printf "%-11s %6d %10.0f %10s %10s %10s %10d\n" label armed
          rate (Harness.ts p50) (Harness.ts p95) (Harness.ts p99) exhausted)
      results ;
    let open Harness in
    write_report cfg "BENCH_faults.json"
      [ ( "setting",
          Json.Obj
            [ ("rows", int rows); ("shards", int 2);
              ("client_threads", int client_threads); ("window_s", num window);
              ("ids_per_request", int 8); ("block", int 8);
              ("retry_attempts", int policy.attempts)
            ] );
        ( "points",
          list
            (fun (label, armed, rate, exhausted, p50, p95, p99) ->
              Json.Obj
                [ ("faults", Json.Str label); ("points_armed", int armed);
                  ("req_per_s", num rate); ("retry_exhausted", int exhausted);
                  ( "latency_s",
                    Json.Obj
                      [ ("p50", num p50); ("p95", num p95); ("p99", num p99) ]
                  )
                ])
            results )
      ]
