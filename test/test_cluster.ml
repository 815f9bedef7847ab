(* The cluster suite (@clustercheck, also plain runtest): qcheck
   properties of the consistent-hash ring, registry replication with
   faults armed on every pull step, and the router against live shard
   servers over loopback TCP — every routed response bitwise-identical
   to a single server's, including scatter-gathered id sets that span
   shards and requests rerouted after a shard dies. When MORPHEUS_BIN
   points at the CLI binary, a SIGKILL chaos storm over real shard
   processes rides along; without it that one case skips. *)

open La
open Sparse
open Morpheus
open Morpheus_serve
open Morpheus_cluster
open Test_support.Util

let qc = QCheck_alcotest.to_alcotest

(* ---- endpoint parsing: the transport seam ---- *)

let test_endpoint_parse () =
  let check s expected =
    Alcotest.(check string) s expected (Endpoint.to_string (Endpoint.of_string s))
  in
  (match Endpoint.of_string "127.0.0.1:9000" with
  | Endpoint.Tcp ("127.0.0.1", 9000) -> ()
  | _ -> Alcotest.fail "bare host:port is TCP") ;
  (match Endpoint.of_string "tcp:localhost:80" with
  | Endpoint.Tcp ("localhost", 80) -> ()
  | _ -> Alcotest.fail "tcp: prefix is TCP") ;
  (match Endpoint.of_string "unix:/tmp/x:1" with
  | Endpoint.Unix_path "/tmp/x:1" -> ()
  | _ -> Alcotest.fail "unix: prefix is a path") ;
  (match Endpoint.of_string "/tmp/sock" with
  | Endpoint.Unix_path "/tmp/sock" -> ()
  | _ -> Alcotest.fail "a plain path is a Unix socket") ;
  (* a colon without an all-digit port is still a path *)
  (match Endpoint.of_string "/tmp/odd:name" with
  | Endpoint.Unix_path "/tmp/odd:name" -> ()
  | _ -> Alcotest.fail "non-numeric port stays a path") ;
  check "127.0.0.1:9000" "127.0.0.1:9000" ;
  check "/tmp/sock" "/tmp/sock" ;
  match Endpoint.of_string "tcp:nohost" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "malformed tcp: endpoint accepted"

(* ---- ring properties ---- *)

let probe_keys = List.init 400 (Printf.sprintf "key:%d")

let names_of (n, salt) = List.init n (Printf.sprintf "s%d-%d" salt)

let qcheck_ring_deterministic =
  QCheck.Test.make ~name:"placement ignores insertion order and dups" ~count:60
    QCheck.(pair (int_range 1 8) (int_range 0 999))
    (fun (n, salt) ->
      let names = names_of (n, salt) in
      let a = Ring.create names in
      let b = Ring.create (List.rev names @ names) in
      Ring.members a = Ring.members b
      && List.for_all (fun k -> Ring.lookup a k = Ring.lookup b k) probe_keys)

let qcheck_ring_balance =
  QCheck.Test.make ~name:"ownership within 3x of fair share" ~count:30
    QCheck.(pair (int_range 2 8) (int_range 0 999))
    (fun (n, salt) ->
      let ring = Ring.create (names_of (n, salt)) in
      let samples = 4096 in
      let fair = samples / n in
      List.for_all
        (fun (_, owned) -> owned > fair / 3 && owned < fair * 3)
        (Ring.ownership ring ~samples))

let qcheck_ring_join_minimal =
  QCheck.Test.make ~name:"a join only moves keys onto the joiner" ~count:60
    QCheck.(pair (int_range 1 6) (int_range 0 999))
    (fun (n, salt) ->
      let ring = Ring.create (names_of (n, salt)) in
      let bigger = Ring.add ring "joiner" in
      List.for_all
        (fun k ->
          let before = Ring.lookup ring k and after = Ring.lookup bigger k in
          before = after || after = "joiner")
        probe_keys)

let qcheck_ring_leave_minimal =
  QCheck.Test.make ~name:"a leave only moves the leaver's keys" ~count:60
    QCheck.(pair (int_range 2 6) (int_range 0 999))
    (fun (n, salt) ->
      let names = names_of (n, salt) in
      let ring = Ring.create names in
      let victim = List.hd (Ring.members ring) in
      let smaller = Ring.remove ring victim in
      List.for_all
        (fun k ->
          let before = Ring.lookup ring k in
          if before = victim then Ring.lookup smaller k <> victim
          else Ring.lookup smaller k = before)
        probe_keys)

let qcheck_ring_successors =
  QCheck.Test.make ~name:"successors: owner first, all distinct" ~count:60
    QCheck.(pair (int_range 1 8) (int_range 0 999))
    (fun (n, salt) ->
      let ring = Ring.create (names_of (n, salt)) in
      List.for_all
        (fun k ->
          let succ = Ring.successors ring k in
          List.length succ = n
          && List.hd succ = Ring.lookup ring k
          && List.length (List.sort_uniq compare succ) = n)
        probe_keys)

let test_ring_edges () =
  (match Ring.create [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty member list accepted") ;
  (match Ring.create ~vnodes:0 [ "a" ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "vnodes=0 accepted") ;
  let one = Ring.create [ "only" ] in
  Alcotest.(check string) "singleton owns everything" "only"
    (Ring.lookup one "anything") ;
  (match Ring.remove one "only" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "removed the last member") ;
  (* add is a no-op on an existing member *)
  let r = Ring.create [ "a"; "b" ] in
  Alcotest.(check (list string)) "re-add is a no-op" (Ring.members r)
    (Ring.members (Ring.add r "a"))

(* ---- registry replication ---- *)

let logreg_artifact seed d =
  Artifact.Logreg (Dense.random ~rng:(Rng.of_int seed) d 1)

let test_replicate_sync_once () =
  let root = tmpdir "cluster_repl" in
  let primary = Filename.concat root "primary" in
  let replica = Filename.concat root "replica" in
  ignore (Registry.save ~dir:primary ~name:"alpha" (logreg_artifact 1 4)) ;
  ignore (Registry.save ~dir:primary ~name:"alpha" (logreg_artifact 2 4)) ;
  ignore (Registry.save ~dir:primary ~name:"beta" (logreg_artifact 3 6)) ;
  (match Replicate.sync_once ~primary ~replica with
  | Error e -> Alcotest.failf "sync: %s" e
  | Ok pulled -> Alcotest.(check int) "three versions pulled" 3 (List.length pulled)) ;
  let ids dir =
    List.sort compare
      (List.map (fun e -> e.Registry.id) (Registry.list ~dir))
  in
  Alcotest.(check (list string)) "replica lists the same versions"
    (ids primary) (ids replica) ;
  (* the replica actually serves: latest alpha resolves and loads *)
  (match Registry.load ~dir:replica "alpha" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "replica load: %s" e) ;
  (* a second pass is a no-op *)
  (match Replicate.sync_once ~primary ~replica with
  | Ok [] -> ()
  | Ok l -> Alcotest.failf "idempotent sync pulled %d" (List.length l)
  | Error e -> Alcotest.failf "second sync: %s" e) ;
  (* a new primary version flows over on the next pass *)
  ignore (Registry.save ~dir:primary ~name:"beta" (logreg_artifact 4 6)) ;
  match Replicate.sync_once ~primary ~replica with
  | Ok [ id ] -> Alcotest.(check string) "the new version" "beta@v2" id
  | Ok l -> Alcotest.failf "expected 1 pull, got %d" (List.length l)
  | Error e -> Alcotest.failf "third sync: %s" e

let test_replicate_faults_heal () =
  List.iter
    (fun point ->
      let root = tmpdir "cluster_repl_fault" in
      let primary = Filename.concat root "primary" in
      let replica = Filename.concat root "replica" in
      ignore (Registry.save ~dir:primary ~name:"m" (logreg_artifact 7 4)) ;
      Fault.with_config (point ^ "=1.0") (fun () ->
          match Replicate.sync_once ~primary ~replica with
          | Ok _ -> Alcotest.failf "%s: injected pull succeeded" point
          | Error e ->
            if not (contains ~needle:point e) then
              Alcotest.failf "%s: error %S does not name the point" point e) ;
      (* the aborted pull left nothing visible *)
      Alcotest.(check int)
        (point ^ ": no partial version visible")
        0
        (List.length (Registry.list ~dir:replica)) ;
      (* the next fault-free pass heals *)
      (match Replicate.sync_once ~primary ~replica with
      | Ok [ "m@v1" ] -> ()
      | Ok l -> Alcotest.failf "%s: heal pulled %d" point (List.length l)
      | Error e -> Alcotest.failf "%s: heal failed: %s" point e) ;
      match Registry.load ~dir:replica "m" with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: healed replica load: %s" point e)
    [ "replicate.list"; "replicate.read"; "replicate.write"; "replicate.commit" ]

let test_replicate_puller () =
  let root = tmpdir "cluster_repl_bg" in
  let primary = Filename.concat root "primary" in
  let replica = Filename.concat root "replica" in
  ignore (Registry.save ~dir:primary ~name:"m" (logreg_artifact 9 4)) ;
  (match Replicate.start ~primary ~replica ~interval:0.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "interval 0 accepted") ;
  let p = Replicate.start ~primary ~replica ~interval:0.02 in
  Fun.protect ~finally:(fun () -> Replicate.stop p)
  @@ fun () ->
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec await () =
    if Replicate.pulls p >= 1 then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.fail "background puller pulled nothing"
    else begin
      Thread.delay 0.01 ;
      await ()
    end
  in
  await () ;
  Alcotest.(check int) "replica has the version" 1
    (List.length (Registry.list ~dir:replica))

(* ---- router vs a single server: bitwise identity over TCP ---- *)

let make_data root =
  let g = Rng.of_int 4242 in
  let s = Dense.random ~rng:g 200 3 in
  let r = Dense.random ~rng:g 15 4 in
  let k = Indicator.random ~rng:g ~rows:200 ~cols:15 () in
  let t = Normalized.pkfk ~s:(Mat.of_dense s) ~k ~r:(Mat.of_dense r) in
  let d = snd (Normalized.dims t) in
  let artifact = Artifact.Logreg (Dense.random ~rng:g d 1) in
  let ds_dir = Filename.concat root "ds" in
  Io.save ~dir:ds_dir t ;
  let reg = Filename.concat root "reg" in
  let entry =
    Registry.save ~dir:reg ~name:"m" ~schema_hash:(Registry.schema_hash t)
      artifact
  in
  (t, d, artifact, ds_dir, reg, entry)

let start_shard reg =
  Server.start
    { (Server.default_config ~registry:reg ~socket:"127.0.0.1:0") with
      Server.max_wait = 1e-3
    }

let shard_addr s = Endpoint.to_string (Server.endpoint s)

(* A router over [n] in-process shards sharing one registry, plus a
   single reference server — [f] gets (router address, single address,
   router handle) and every routed response must render identically to
   the single server's. Block size 4 so a spread id set scatters. *)
let with_cluster ?(n = 3) ~root f =
  let _, d, _, ds_dir, reg, entry = make_data root in
  let shards = List.init n (fun _ -> start_shard reg) in
  let single = start_shard reg in
  let router =
    Router.start
      { (Router.default_config ~listen:"127.0.0.1:0"
           ~shards:
             (List.mapi
                (fun i s -> (Printf.sprintf "shard%d" i, shard_addr s))
                shards)) with
        Router.block = 4;
        breaker_threshold = 2;
        breaker_cooldown = 0.2
      }
  in
  Fun.protect
    ~finally:(fun () ->
      Router.stop router ;
      List.iter Server.stop shards ;
      Server.stop single)
  @@ fun () ->
  f
    ~routed:(Endpoint.to_string (Router.endpoint router))
    ~single:(shard_addr single) ~router ~shards ~d ~ds_dir ~entry

let wire addr req = Client.with_client ~socket:addr (fun c -> Client.call c req)

let render = function
  | Ok j -> "ok:" ^ Json.to_string j
  | Error (code, msg) -> Printf.sprintf "error:[%s] %s" code msg

let check_identical ~routed ~single name req =
  let a = wire routed req and b = wire single req in
  Alcotest.(check string) (name ^ " matches the single server") (render b)
    (render a)

let score ?deadline_ms model target = Protocol.Score { model; target; deadline_ms }

let test_router_bitwise () =
  let root = tmpdir "cluster_router" in
  with_cluster ~root
  @@ fun ~routed ~single ~router:_ ~shards:_ ~d ~ds_dir ~entry ->
  let rows =
    Array.init 3 (fun i -> Array.init d (fun j -> float_of_int ((i + j) mod 5) /. 5.0))
  in
  check_identical ~routed ~single "score rows" (score "m" (Protocol.Rows rows)) ;
  (* a spread id set: blocks of 4 over 200 rows land on several shards *)
  let spread = Array.init 24 (fun i -> (i * 37) mod 200) in
  check_identical ~routed ~single "scatter-gathered score_ids"
    (score entry.Registry.id (Protocol.Dataset { dataset = ds_dir; ids = spread })) ;
  (* a compact id set: one block, forwarded whole *)
  check_identical ~routed ~single "single-block score_ids"
    (score "m" (Protocol.Dataset { dataset = ds_dir; ids = [| 0; 1; 2; 3 |] })) ;
  (* empty id set *)
  check_identical ~routed ~single "empty score_ids"
    (score "m" (Protocol.Dataset { dataset = ds_dir; ids = [||] })) ;
  let pred =
    match Pred.parse "c0 >= 0.5 && c3 < 0.9" with
    | Ok p -> p
    | Error e -> Alcotest.failf "predicate: %s" e
  in
  check_identical ~routed ~single "score_where"
    (score "m" (Protocol.Dataset_where { dataset = ds_dir; where = pred })) ;
  check_identical ~routed ~single "list_models" Protocol.List_models ;
  (* protocol errors forward verbatim too *)
  check_identical ~routed ~single "unknown model"
    (score "ghost" (Protocol.Rows rows)) ;
  check_identical ~routed ~single "out-of-range id"
    (score "m" (Protocol.Dataset { dataset = ds_dir; ids = [| 100000 |] })) ;
  (* scatter with a bad id still fails like the single server *)
  (match
     wire routed
       (score "m"
          (Protocol.Dataset { dataset = ds_dir; ids = Array.append spread [| 100000 |] }))
   with
  | Error ("rejected", _) -> ()
  | Ok _ -> Alcotest.fail "scattered out-of-range id was scored"
  | Error (code, msg) -> Alcotest.failf "wrong error [%s] %s" code msg) ;
  (* health fans out and aggregates ok *)
  (match wire routed Protocol.Health with
  | Error (code, msg) -> Alcotest.failf "health: [%s] %s" code msg
  | Ok j ->
    Alcotest.(check (option string)) "cluster healthy" (Some "ok")
      (Option.bind (Json.member "status" j) Json.to_str)) ;
  (* the router's stats expose the cluster section with the traffic *)
  match wire routed Protocol.Stats with
  | Error (code, msg) -> Alcotest.failf "stats: [%s] %s" code msg
  | Ok j ->
    let cluster =
      Option.bind (Json.member "stats" j) (Json.member "cluster")
      |> Option.value ~default:Json.Null
    in
    let num k =
      Option.bind (Json.member k cluster) Json.to_int
      |> Option.value ~default:(-1)
    in
    if num "forwarded" < 5 then
      Alcotest.failf "stats: too few forwards (%d)" (num "forwarded") ;
    if num "scattered" < 1 then Alcotest.fail "stats: nothing scattered" ;
    if num "subrequests" <= num "scattered" then
      Alcotest.fail "stats: scatter did not fan out" ;
    let shards_json =
      match Json.member "shards" cluster with
      | Some (Json.Obj fields) -> fields
      | _ -> []
    in
    Alcotest.(check int) "stats lists every shard" 3 (List.length shards_json) ;
    List.iter
      (fun (name, j) ->
        match Option.bind (Json.member "breaker" j) Json.to_str with
        | Some "closed" -> ()
        | s ->
          Alcotest.failf "shard %s breaker is %s" name
            (Option.value ~default:"missing" s))
      shards_json

let test_router_failover () =
  let root = tmpdir "cluster_failover" in
  with_cluster ~root
  @@ fun ~routed ~single ~router ~shards ~d:_ ~ds_dir ~entry ->
  let spread = Array.init 24 (fun i -> (i * 37) mod 200) in
  let req =
    score entry.Registry.id (Protocol.Dataset { dataset = ds_dir; ids = spread })
  in
  let expected = render (wire single req) in
  Alcotest.(check string) "healthy cluster answer" expected
    (render (wire routed req)) ;
  (* kill one shard: every key it owned reroutes, answers unchanged *)
  Server.stop (List.hd shards) ;
  for _ = 1 to 5 do
    Alcotest.(check string) "rerouted answer is bitwise-identical" expected
      (render (wire routed req))
  done ;
  let failovers =
    Json.member "cluster" (Router.stats router)
    |> Fun.flip Option.bind (Json.member "failovers")
    |> Fun.flip Option.bind Json.to_int
    |> Option.value ~default:0
  in
  if failovers < 1 then Alcotest.fail "no failover was counted" ;
  (* health degrades but the cluster still answers *)
  match wire routed Protocol.Health with
  | Error (code, msg) -> Alcotest.failf "health: [%s] %s" code msg
  | Ok j ->
    Alcotest.(check (option string)) "degraded, not down" (Some "degraded")
      (Option.bind (Json.member "status" j) Json.to_str)

(* ---- process-level chaos: SIGKILL a shard mid-storm ----

   Real shard processes (the CLI binary from MORPHEUS_BIN) over
   loopback TCP, an in-process router over them, a storm of
   scatter-gathered requests with one shard SIGKILLed midway: every
   accepted response must be bitwise-identical to direct in-process
   scoring. Skips when MORPHEUS_BIN is not set (the @clustercheck
   alias sets it). *)

let spawn_shard bin ~reg ~port =
  let addr = Printf.sprintf "127.0.0.1:%d" port in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close devnull)
  @@ fun () ->
  let pid =
    Unix.create_process bin
      [| bin; "serve"; "--registry"; reg; "--listen"; addr; "--max-wait-ms"; "1" |]
      Unix.stdin devnull devnull
  in
  (pid, addr)

let await_healthy addr =
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec go () =
    match Client.call_once ~socket:addr Protocol.Health with
    | Ok _ -> ()
    | Error _ | (exception Unix.Unix_error _) ->
      if Unix.gettimeofday () > deadline then
        Alcotest.failf "shard %s never became healthy" addr
      else begin
        Thread.delay 0.05 ;
        go ()
      end
  in
  go ()

let test_sigkill_chaos () =
  match Sys.getenv_opt "MORPHEUS_BIN" with
  | None | Some "" ->
    print_endline "sigkill chaos: skipped (MORPHEUS_BIN not set)"
  | Some bin ->
    let root = tmpdir "cluster_sigkill" in
    let t, _, artifact, ds_dir, reg, entry = make_data root in
    let procs =
      List.init 3 (fun _ -> spawn_shard bin ~reg ~port:(free_port ()))
    in
    let kill_all signal =
      List.iter (fun (pid, _) -> try Unix.kill pid signal with _ -> ()) procs
    in
    Fun.protect
      ~finally:(fun () ->
        kill_all Sys.sigkill ;
        List.iter (fun (pid, _) -> try ignore (Unix.waitpid [] pid) with _ -> ()) procs)
    @@ fun () ->
    List.iter (fun (_, addr) -> await_healthy addr) procs ;
    let router =
      Router.start
        { (Router.default_config ~listen:"127.0.0.1:0"
             ~shards:
               (List.mapi
                  (fun i (_, addr) -> (Printf.sprintf "shard%d" i, addr))
                  procs)) with
          Router.block = 4;
          breaker_threshold = 2;
          breaker_cooldown = 0.1
        }
    in
    Fun.protect ~finally:(fun () -> Router.stop router)
    @@ fun () ->
    let routed = Endpoint.to_string (Router.endpoint router) in
    let batches =
      Array.init 30 (fun b -> Array.init 8 (fun i -> ((13 * b) + (29 * i)) mod 200))
    in
    let expected =
      Array.map
        (fun ids ->
          Artifact.score_normalized artifact (Normalized.select_rows t ids))
        batches
    in
    let policy =
      { Client.default_retry with
        attempts = 10;
        base_backoff = 5e-3;
        max_backoff = 0.1;
        budget = 30.0;
        retry_codes =
          "unavailable" :: "rejected" :: Client.default_retry.Client.retry_codes
      }
    in
    let victim, _ = List.hd procs in
    Array.iteri
      (fun b ids ->
        if b = 10 then Unix.kill victim Sys.sigkill ;
        match
          Client.score_ids_retry ~policy ~socket:routed
            ~model:entry.Registry.id ~dataset:ds_dir ids
        with
        | Error (code, msg) -> Alcotest.failf "batch %d: [%s] %s" b code msg
        | Ok preds ->
          if preds <> expected.(b) then
            Alcotest.failf
              "batch %d: rerouted answer differs from direct scoring" b)
      batches ;
    (* the storm crossed the kill: the router failed over *)
    let failovers =
      Json.member "cluster" (Router.stats router)
      |> Fun.flip Option.bind (Json.member "failovers")
      |> Fun.flip Option.bind Json.to_int
      |> Option.value ~default:0
    in
    if failovers < 1 then Alcotest.fail "SIGKILL caused no failover" ;
    (* survivors shut down gracefully *)
    kill_all Sys.sigterm

let () =
  Alcotest.run "cluster"
    [ ( "endpoint",
        [ Alcotest.test_case "parsing both transports" `Quick test_endpoint_parse ] );
      ( "ring",
        [ qc qcheck_ring_deterministic;
          qc qcheck_ring_balance;
          qc qcheck_ring_join_minimal;
          qc qcheck_ring_leave_minimal;
          qc qcheck_ring_successors;
          Alcotest.test_case "edges" `Quick test_ring_edges ] );
      ( "replicate",
        [ Alcotest.test_case "pull + idempotence" `Quick test_replicate_sync_once;
          Alcotest.test_case "faults abort then heal" `Quick
            test_replicate_faults_heal;
          Alcotest.test_case "background puller" `Quick test_replicate_puller ] );
      ( "router",
        [ Alcotest.test_case "bitwise identity vs single server" `Quick
            test_router_bitwise;
          Alcotest.test_case "failover after shard death" `Quick
            test_router_failover ] );
      ( "chaos",
        [ Alcotest.test_case "SIGKILL a shard mid-storm" `Quick
            test_sigkill_chaos ] )
    ]
