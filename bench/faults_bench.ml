(* Transport-fault bench: closed-loop routed scoring throughput while
   the shards' transport layer misbehaves. Two shard server processes
   and one router run from the CLI binary (MORPHEUS_BIN); each
   measurement arms 0, 1, or 2 transport fault points in the *shard*
   processes via MORPHEUS_FAULTS in their environment — dropped reads
   (`endpoint.read`) and torn frames (`endpoint.write.torn`) — and
   runs the same sweep with hedging off and on.

   Clients issue score_ids with the retrying client (transport errors
   are retryable and idempotent, so every accepted answer is still
   bitwise-identical to a fault-free run); the reported quantities are
   requests/s, success-latency p95, and how many requests exhausted
   the retry budget. What the sweep shows: how much throughput the
   retry + failover machinery gives back under byte-level faults, and
   what hedging buys on top.

   Results go to stdout as a table and to BENCH_faults.json. *)

open La
open Morpheus_serve
open Workload

let client_threads = 4

(* (label, MORPHEUS_FAULTS spec for the shards, armed point count) *)
let fault_configs =
  [ ("none", "", 0);
    ("read", "seed=7,endpoint.read=0.02", 1);
    ("read+torn", "seed=7,endpoint.read=0.02,endpoint.write.torn=0.01", 2)
  ]

let policy =
  { Client.default_retry with
    attempts = 6;
    base_backoff = 2e-3;
    max_backoff = 0.05;
    budget = 5.0;
    retry_codes = "unavailable" :: "rejected" :: Client.default_retry.retry_codes
  }

(* One point: 2 shards with [faults] armed in their environment, a
   router (hedging per [hedge]), [client_threads] threads of retried
   score_ids for [window] s. A request that exhausts its retry budget
   under injected faults fails with a structured transient error, never
   a wrong answer. *)
let point ~bin (fx : Fleet.fixture) ~window ~faults ~hedge =
  let env = if faults = "" then [] else [ "MORPHEUS_FAULTS=" ^ faults ] in
  let route_args = if hedge then [ "--hedge" ] else [] in
  Fleet.with_fleet ~bin ~env ~route_args fx ~shards:2
  @@ fun router ->
  Harness.closed_loop ~threads:client_threads ~stop:(Seconds window)
    (fun th send ->
      let rng = Rng.of_int (0xfa017 + th) in
      send (fun i ->
          let ids =
            Array.init 8 (fun k -> ((th * 7919) + (i * 13) + (29 * k)) mod fx.rows)
          in
          Client.score_ids_retry ~policy ~rng ~socket:router ~model:fx.model
            ~dataset:fx.dataset ids))

let run cfg =
  Harness.section
    "Transport chaos: routed throughput with 0/1/2 armed fault points, \
     hedging off/on" ;
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
      List.concat_map
        (fun hedge ->
          List.map
            (fun (label, faults, armed) ->
              let loop = point ~bin fx ~window ~faults ~hedge in
              let p q = Timing.percentile q loop.latencies in
              ( label, armed, hedge, float_of_int loop.ok /. loop.elapsed,
                loop.failed, p 50.0, p 95.0 ))
            fault_configs)
        [ false; true ]
    in
    Printf.printf "\n%-11s %6s %6s %10s %10s %10s %10s\n" "faults" "armed"
      "hedge" "req/s" "p50" "p95" "exhausted" ;
    List.iter
      (fun (label, armed, hedge, rate, exhausted, p50, p95) ->
        Printf.printf "%-11s %6d %6s %10.0f %10s %10s %10d\n" label armed
          (if hedge then "on" else "off")
          rate (Harness.ts p50) (Harness.ts p95) exhausted)
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
            (fun (label, armed, hedge, rate, exhausted, p50, p95) ->
              Json.Obj
                [ ("faults", Json.Str label); ("points_armed", int armed);
                  ("hedge", Json.Bool hedge); ("req_per_s", num rate);
                  ("retry_exhausted", int exhausted);
                  ("latency_s", Json.Obj [ ("p50", num p50); ("p95", num p95) ])
                ])
            results )
      ]
