(* Transport-fault bench: closed-loop routed scoring throughput while
   the shards' transport layer misbehaves, and under 16 clients. Two
   shard server processes and one router run from the CLI binary
   (MORPHEUS_BIN); each point arms transport
   fault points in the *shard* processes via MORPHEUS_FAULTS in their
   environment:
   - none, read, read+torn: 0, 1 or 2 byte-level faults on both
     shards — dropped reads (`endpoint.read`) and torn frames
     (`endpoint.write.torn`);
   - slow-owner: shard 0 alone stalls 2% of its writes by 50 ms
     (`endpoint.stall`). Its health probes still answer well within
     the router's probe timeout, so the point measures a slow owner,
     not failover;
   - overload: no faults, 16 clients. A client's latency then includes
     its wait for the shards' batchers and the router's CPU, which the
     router's own `score_ids` mean (from its `stats`) partly leaves
     out.
   A point whose faults cannot fail a probe (none, slow-owner,
   overload) fails unless every shard is still active at the end of
   each of its runs.

   Clients issue score_ids with the retrying client (transport errors
   are retryable and idempotent, so every accepted answer is still
   bitwise-identical to a fault-free run). Each point runs `--runs`
   times, each on a fresh fleet; per point the report holds the
   median and min–max over runs of requests/s, success-latency
   p50/p95/p99 (a slow owner shows at p99, not at p95) and the
   router's `score_ids` mean, how many requests exhausted the retry
   budget, and the CPU steal ticks (`/proc/stat`) the host lost during
   the point's runs: on a shared VM the spread follows steal more than
   code.

   Results go to stdout as a table and to BENCH_faults.json. *)

open La
open Morpheus_serve
open Workload

type point = {
  label : string;
  faults : string;  (* MORPHEUS_FAULTS for the armed shards; "" for none *)
  armed : int;  (* fault points armed *)
  owner_only : bool;  (* armed on shard 0 alone *)
  clients : int;  (* closed-loop client threads *)
}

let points =
  let p ?(faults = "") ?(armed = 0) ?(owner_only = false) ?(clients = 4) label =
    { label; faults; armed; owner_only; clients }
  in
  [ p "none";
    p "read" ~faults:"seed=7,endpoint.read=0.02" ~armed:1;
    p "read+torn" ~faults:"seed=7,endpoint.read=0.02,endpoint.write.torn=0.01"
      ~armed:2;
    p "slow-owner" ~faults:"seed=7,endpoint.stall=0.02:delay50" ~armed:1
      ~owner_only:true;
    p "overload" ~clients:16
  ]

(* Byte faults on both shards fail probes legitimately; nothing else
   may cost a shard its place. *)
let must_stay_active p = p.armed = 0 || p.owner_only

let policy =
  { Client.default_retry with
    attempts = 6;
    base_backoff = 2e-3;
    max_backoff = 0.05;
    budget = 5.0;
    retry_codes = "unavailable" :: "rejected" :: Client.default_retry.retry_codes
  }

(* The router's mean time handling a score_ids request. *)
let router_score_mean router =
  match Client.call_once ~timeout:5.0 ~socket:router Protocol.Stats with
  | Ok j ->
    List.fold_left
      (fun acc k -> Option.bind acc (Json.member k))
      (Some j)
      [ "stats"; "ops"; "score_ids"; "latency"; "mean_s" ]
    |> Fun.flip Option.bind Json.to_float
    |> Option.value ~default:Float.nan
  | Error _ -> Float.nan

type run = {
  req_per_s : float;
  exhausted : int;
  p50 : float;
  p95 : float;
  p99 : float;
  router_mean : float;
}

(* One run of [p]: 2 shards with its faults armed, a router at the
   fleet defaults, [p.clients] threads of retried score_ids for
   [window] s. A request that exhausts its retry budget under injected
   faults fails with a structured transient error, never a wrong
   answer. *)
let run_once ~bin (fx : Fleet.fixture) ~window p =
  let env i =
    if p.faults = "" || (p.owner_only && i <> 0) then []
    else [ "MORPHEUS_FAULTS=" ^ p.faults ]
  in
  Fleet.with_fleet ~bin ~env fx ~shards:2
  @@ fun router ->
  let loop =
    Harness.closed_loop ~threads:p.clients ~stop:(Seconds window)
      (fun th send ->
        let rng = Rng.of_int (0xfa017 + th) in
        send (fun i ->
            let ids =
              Array.init 8 (fun k -> ((th * 7919) + (i * 13) + (29 * k)) mod fx.rows)
            in
            Client.score_ids_retry ~policy ~rng ~socket:router ~model:fx.model
              ~dataset:fx.dataset ids))
  in
  if must_stay_active p then Fleet.require_all_active router ;
  let q x = Timing.percentile x loop.latencies in
  { req_per_s = float_of_int loop.ok /. loop.elapsed;
    exhausted = loop.failed;
    p50 = q 50.0;
    p95 = q 95.0;
    p99 = q 99.0;
    router_mean = router_score_mean router
  }

(* [p]'s runs, and the steal ticks over them ([None] if unreadable). *)
let measure ~bin fx ~window ~runs p =
  let results, steal =
    Harness.repeat runs (fun () -> run_once ~bin fx ~window p)
  in
  (p, results, steal)

let exhausted rs = List.fold_left (fun n r -> n + r.exhausted) 0 rs

let run cfg =
  Harness.section
    "Transport chaos: routed throughput under byte-level faults, a slow \
     owner and overload" ;
  match Fleet.cli () with
  | None -> ()
  | Some bin ->
    let rows = if cfg.Harness.quick then 400 else 2_000 in
    let window = if cfg.Harness.quick then 0.8 else 2.5 in
    let runs = max 1 cfg.Harness.runs in
    Harness.with_temp_dir "faults_bench"
    @@ fun root ->
    let fx = Fleet.fixture ~root ~rows in
    Printf.printf
      "dataset: %d rows; 2 shards and a router, %gs window, %d runs per \
       point; host cores online: %d\n"
      rows window runs Harness.cores_online ;
    let results = List.map (measure ~bin fx ~window ~runs) points in
    let open Harness in
    let steal_cell = function Some n -> string_of_int n | None -> "-" in
    Printf.printf "\n%-11s %5s %7s %18s %9s %20s %10s %9s %6s\n" "faults"
      "armed" "clients" "req/s (min-max)" "p50" "p99 (min-max)" "router" "exhausted"
      "steal" ;
    List.iter
      (fun (p, rs, steal) ->
        let rate = List.map (fun r -> r.req_per_s) rs and p99 = List.map (fun r -> r.p99) rs in
        Printf.printf "%-11s %5d %7d %6.0f (%4.0f-%4.0f) %9s %8s (%s-%s) %10s %9d %6s\n"
          p.label p.armed p.clients (median rate) (lo rate) (hi rate)
          (ts (median (List.map (fun r -> r.p50) rs)))
          (ts (median p99)) (ts (lo p99)) (ts (hi p99))
          (ts (median (List.map (fun r -> r.router_mean) rs)))
          (exhausted rs) (steal_cell steal))
      results ;
    write_report cfg "BENCH_faults.json"
      [ ( "setting",
          Json.Obj
            [ ("rows", int rows); ("shards", int 2); ("window_s", num window);
              ("runs", int runs);
              ("ids_per_request", int 8); ("block", int 8);
              ("retry_attempts", int policy.attempts)
            ] );
        ( "points",
          list
            (fun (p, rs, steal) ->
              Json.Obj
                [ ("faults", Json.Str p.label); ("points_armed", int p.armed);
                  ("clients", int p.clients);
                  ("req_per_s", spread (fun r -> r.req_per_s) rs);
                  ("retry_exhausted", int (exhausted rs));
                  ( "latency_s",
                    Json.Obj
                      [ ("p50", spread (fun r -> r.p50) rs);
                        ("p95", spread (fun r -> r.p95) rs);
                        ("p99", spread (fun r -> r.p99) rs)
                      ] );
                  ("router_score_ids_mean_s", spread (fun r -> r.router_mean) rs);
                  ("steal_ticks", steal_json steal)
                ])
            results )
      ]
