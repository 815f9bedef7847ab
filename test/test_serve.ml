(* Tests for the serving subsystem: registry round-trips for every
   artifact kind (with versioning and corrupt-file handling), the
   bitwise batch-vs-single-row scoring guarantee the protocol relies
   on, the micro-batcher's deadline and overload-shedding semantics
   (with an injected slow executor), and the dataset LRU cache. *)

open La
open Morpheus
open Morpheus_serve
open Test_support.Util

let tmpdir () =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "morpheus_serve_t_%d_%d" (Unix.getpid ())
       (Random.int 1000000))

let with_dir f =
  let dir = tmpdir () in
  Sys.mkdir dir 0o755 ;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let pkfk ?(seed = 2718) ?(ns = 300) ?(nr = 20) ?(ds = 3) ?(dr = 4) () =
  let g = Rng.of_int seed in
  let s = Dense.random ~rng:g ns ds in
  let r = Dense.random ~rng:g nr dr in
  let k = Sparse.Indicator.random ~rng:g ~rows:ns ~cols:nr () in
  Normalized.pkfk ~s:(Sparse.Mat.of_dense s) ~k ~r:(Sparse.Mat.of_dense r)

let weights ?(seed = 11) d =
  Dense.random ~rng:(Rng.of_int seed) d 1

(* one artifact of every kind over a d-feature space *)
let all_artifacts d =
  let nb =
    Ml_algs.Naive_bayes.make ~d
      [ { Ml_algs.Naive_bayes.label = -1.0;
          prior = 0.5;
          mean = Array.make d 0.1;
          variance = Array.make d 1.0
        };
        { Ml_algs.Naive_bayes.label = 1.0;
          prior = 0.5;
          mean = Array.make d 0.4;
          variance = Array.make d 2.0
        }
      ]
  in
  [ Artifact.Logreg (weights d);
    Artifact.Linreg (weights ~seed:12 d);
    Artifact.Glm (Ml_algs.Glm.Poisson, weights ~seed:13 d);
    Artifact.Kmeans (Dense.random ~rng:(Rng.of_int 14) d 3);
    Artifact.Naive_bayes nb
  ]

(* ---- registry ---- *)

let test_registry_roundtrip_all_kinds () =
  let t = pkfk () in
  let d = snd (Normalized.dims t) in
  with_dir (fun dir ->
      List.iter
        (fun artifact ->
          let name = "m-" ^ Artifact.kind artifact in
          let entry =
            Registry.save ~dir ~name
              ~schema_hash:(Registry.schema_hash t)
              ~meta:[ ("origin", "test") ]
              artifact
          in
          Alcotest.(check string) "id" (name ^ "@v1") entry.Registry.id ;
          match Registry.load ~dir entry.Registry.id with
          | Error msg -> Alcotest.failf "load %s: %s" entry.Registry.id msg
          | Ok (artifact', manifest) ->
            Alcotest.(check string) "kind" (Artifact.kind artifact)
              manifest.Registry.kind ;
            Alcotest.(check int) "feature_dim" d
              manifest.Registry.feature_dim ;
            Alcotest.(check (option string)) "schema hash"
              (Some (Registry.schema_hash t))
              manifest.Registry.schema_hash ;
            (* the reloaded artifact scores bitwise-identically *)
            Alcotest.(check (array (float 0.0))) "same predictions"
              (Artifact.score_normalized artifact t)
              (Artifact.score_normalized artifact' t))
        (all_artifacts d))

let test_registry_versioning () =
  with_dir (fun dir ->
      let v1 = Registry.save ~dir ~name:"m" (Artifact.Logreg (weights 4)) in
      let v2 = Registry.save ~dir ~name:"m" (Artifact.Logreg (weights ~seed:5 4)) in
      Alcotest.(check string) "v1" "m@v1" v1.Registry.id ;
      Alcotest.(check string) "v2" "m@v2" v2.Registry.id ;
      (match Registry.resolve ~dir "m" with
      | Ok e -> Alcotest.(check string) "bare name is latest" "m@v2" e.Registry.id
      | Error msg -> Alcotest.fail msg) ;
      (match Registry.resolve ~dir "m@v1" with
      | Ok e -> Alcotest.(check string) "pinned version" "m@v1" e.Registry.id
      | Error msg -> Alcotest.fail msg) ;
      Alcotest.(check int) "list sees both" 2
        (List.length (Registry.list ~dir)) ;
      (match Registry.resolve ~dir "ghost" with
      | Ok _ -> Alcotest.fail "unknown model resolved"
      | Error _ -> ()) ;
      match Registry.delete ~dir "m@v1" with
      | Error msg -> Alcotest.fail msg
      | Ok () ->
        Alcotest.(check int) "one left" 1 (List.length (Registry.list ~dir)))

let test_registry_rejects_bad_names () =
  with_dir (fun dir ->
      List.iter
        (fun name ->
          Alcotest.(check bool) (Printf.sprintf "name %S rejected" name) true
            (try
               ignore (Registry.save ~dir ~name (Artifact.Logreg (weights 2))) ;
               false
             with Invalid_argument _ -> true))
        [ ""; "a/b"; "a@v1"; "a b" ])

let test_registry_corrupt_artifact () =
  with_dir (fun dir ->
      let e = Registry.save ~dir ~name:"m" (Artifact.Logreg (weights 3)) in
      let path = Filename.concat dir "m/v1/artifact.bin" in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc "junk") ;
      match Registry.load ~dir e.Registry.id with
      | Ok _ -> Alcotest.fail "corrupt artifact loaded"
      | Error _ -> ())

(* ---- batch-vs-single bitwise equality ---- *)

let test_batch_equals_single_bitwise () =
  let t = pkfk ~seed:31 () in
  let n, d = Normalized.dims t in
  let ids = [| 0; 7; n - 1; 3; 7; 12 |] in
  List.iter
    (fun artifact ->
      let batch = Artifact.score_normalized artifact (Normalized.select_rows t ids) in
      Array.iteri
        (fun j id ->
          let alone =
            (Artifact.score_normalized artifact
               (Normalized.select_rows t [| id |])).(0)
          in
          if batch.(j) <> alone then
            Alcotest.failf "%s: row %d scored %h in a batch, %h alone"
              (Artifact.kind artifact) id batch.(j) alone)
        ids)
    (all_artifacts d)

(* the same guarantee end to end through the batcher, under concurrency.
   The executor's first call holds the batching thread on a gate until
   the other 23 requests are queued, so the batches that follow are
   fixed: all 23 at max_batch 64, 8 + 8 + 7 at max_batch 8. *)
let test_batcher_coalesced_equals_alone () =
  let t = pkfk ~seed:32 () in
  let n, d = Normalized.dims t in
  let artifact = List.hd (all_artifacts d) in
  let ids = Array.init 24 (fun i -> (i * 7) mod n) in
  let run ~max_batch ~expect =
    let metrics = Metrics.create () in
    let entered = Atomic.make false and gate = Atomic.make false in
    let sizes = ref [] in
    let exec () payloads =
      if not (Atomic.get entered) then begin
        Atomic.set entered true ;
        while not (Atomic.get gate) do
          Thread.delay 1e-3
        done
      end ;
      sizes := Array.length payloads :: !sizes ;
      let all = Array.concat (Array.to_list payloads) in
      let preds =
        Artifact.score_normalized artifact (Normalized.select_rows t all)
      in
      let off = ref 0 in
      Array.map
        (fun ids ->
          let r = Array.sub preds !off (Array.length ids) in
          off := !off + Array.length ids ;
          Ok r)
        payloads
    in
    let b = Batcher.create ~max_batch ~metrics ~size:Array.length ~exec () in
    let results = Array.make (Array.length ids) None in
    let submit j =
      Thread.create
        (fun () -> results.(j) <- Some (Batcher.submit b () [| ids.(j) |]))
        ()
    in
    let first = submit 0 in
    await ~what:"the executor's first call" (fun () -> Atomic.get entered) ;
    let rest = List.init (Array.length ids - 1) (fun j -> submit (j + 1)) in
    await ~what:"23 pending requests" (fun () -> Batcher.pending b = 23) ;
    Atomic.set gate true ;
    List.iter Thread.join (first :: rest) ;
    Batcher.stop b ;
    Array.iteri
      (fun j id ->
        let alone =
          (Artifact.score_normalized artifact (Normalized.select_rows t [| id |])).(0)
        in
        match results.(j) with
        | Some (Ok r) ->
          if r.(0) <> alone then
            Alcotest.failf "row %d: %h batched vs %h alone" id r.(0) alone
        | Some (Error _) -> Alcotest.failf "row %d: batcher error" id
        | None -> Alcotest.failf "row %d: no result" id)
      ids ;
    Alcotest.(check (list int))
      (Printf.sprintf "batch sizes at max_batch %d" max_batch)
      expect (List.rev !sizes)
  in
  run ~max_batch:64 ~expect:[ 1; 23 ] ;
  run ~max_batch:8 ~expect:[ 1; 8; 8; 7 ]

(* ---- deadline + shedding, with an injected slow executor ---- *)

let slow_batcher ?(queue_bound = 1024) ~delay metrics =
  Batcher.create ~max_batch:1 ~max_wait:0.0 ~queue_bound ~metrics
    ~size:(fun _ -> 1)
    ~exec:(fun _ payloads ->
      Thread.delay delay ;
      Array.map (fun p -> Ok p) payloads)
    ()

let test_deadline_exceeded () =
  let metrics = Metrics.create () in
  let b = slow_batcher ~delay:0.15 metrics in
  (* occupy the batching thread *)
  let t1 = Thread.create (fun () -> ignore (Batcher.submit b 0 "long")) () in
  Thread.delay 0.03 ;
  (* queued behind it with a deadline that expires while it waits *)
  let r = Batcher.submit b 0 ~deadline:(Unix.gettimeofday () +. 0.02) "doomed" in
  Thread.join t1 ;
  Batcher.stop b ;
  (match r with
  | Error Batcher.Deadline_exceeded -> ()
  | Ok _ -> Alcotest.fail "expired request was scored"
  | Error e -> Alcotest.failf "wrong error: %s" (Batcher.error_code e)) ;
  Alcotest.(check int) "error counted" 1 (Metrics.errors metrics)

let test_overload_shedding () =
  let metrics = Metrics.create () in
  let b = slow_batcher ~queue_bound:1 ~delay:0.15 metrics in
  let t1 = Thread.create (fun () -> ignore (Batcher.submit b 0 "a")) () in
  Thread.delay 0.03 ;
  let t2 = Thread.create (fun () -> ignore (Batcher.submit b 0 "b")) () in
  Thread.delay 0.03 ;
  (* worker busy with "a", "b" fills the bounded queue: shed *)
  let r = Batcher.submit b 0 "c" in
  Thread.join t1 ;
  Thread.join t2 ;
  Batcher.stop b ;
  match r with
  | Error Batcher.Overloaded -> ()
  | Ok _ -> Alcotest.fail "request beyond the bound was accepted"
  | Error e -> Alcotest.failf "wrong error: %s" (Batcher.error_code e)

let test_submit_after_stop_rejected () =
  let metrics = Metrics.create () in
  let b = slow_batcher ~delay:0.0 metrics in
  Batcher.stop b ;
  match Batcher.submit b 0 "late" with
  | Error (Batcher.Rejected _) -> ()
  | Ok _ -> Alcotest.fail "submit after stop succeeded"
  | Error e -> Alcotest.failf "wrong error: %s" (Batcher.error_code e)

(* ---- dataset LRU cache ---- *)

let test_lru_eviction () =
  let loads = ref [] in
  let cache =
    Dataset_cache.create ~capacity:2 ~load:(fun key ->
        loads := key :: !loads ;
        String.uppercase_ascii key)
  in
  Alcotest.(check string) "a" "A" (Dataset_cache.get cache "a") ;
  Alcotest.(check string) "b" "B" (Dataset_cache.get cache "b") ;
  Alcotest.(check string) "a hit" "A" (Dataset_cache.get cache "a") ;
  (* c evicts b (least recently used), not a *)
  Alcotest.(check string) "c" "C" (Dataset_cache.get cache "c") ;
  Alcotest.(check bool) "a kept" true (Dataset_cache.mem cache "a") ;
  Alcotest.(check bool) "b evicted" false (Dataset_cache.mem cache "b") ;
  ignore (Dataset_cache.get cache "b") ;
  Alcotest.(check (list string)) "loads in order" [ "a"; "b"; "c"; "b" ]
    (List.rev !loads) ;
  Alcotest.(check int) "hits" 1 (Dataset_cache.hits cache) ;
  Alcotest.(check int) "misses" 4 (Dataset_cache.misses cache) ;
  Alcotest.(check int) "evictions" 2 (Dataset_cache.evictions cache)

let test_lru_failed_load_not_cached () =
  let calls = ref 0 in
  let cache =
    Dataset_cache.create ~capacity:2 ~load:(fun _ ->
        incr calls ;
        if !calls = 1 then failwith "flaky" else "ok")
  in
  (match Dataset_cache.get cache "k" with
  | _ -> Alcotest.fail "failed load returned a value"
  | exception Failure _ -> ()) ;
  Alcotest.(check bool) "failure not cached" false (Dataset_cache.mem cache "k") ;
  Alcotest.(check string) "retry loads" "ok" (Dataset_cache.get cache "k")

(* ---- protocol round-trip ---- *)

let test_protocol_roundtrip () =
  let reqs =
    [ Protocol.Ping;
      Protocol.List_models;
      Protocol.Stats;
      Protocol.Shutdown;
      Protocol.Score
        { model = "m@v2";
          target = Protocol.Rows [| [| 1.0; -2.5 |]; [| 0.0; 3.25 |] |];
          deadline_ms = Some 40.0
        };
      Protocol.Score
        { model = "m";
          target = Protocol.Dataset { dataset = "/data/ds"; ids = [| 0; 9 |] };
          deadline_ms = None
        }
    ]
  in
  List.iter
    (fun req ->
      let wire = Json.to_string (Protocol.request_to_json req) in
      match Json.of_string wire with
      | Error msg -> Alcotest.failf "reparse %s: %s" wire msg
      | Ok j -> (
        match Protocol.request_of_json j with
        | Ok req' ->
          if req <> req' then Alcotest.failf "round-trip changed %s" wire
        | Error msg -> Alcotest.failf "decode %s: %s" wire msg))
    reqs

let () =
  Random.self_init () ;
  Alcotest.run "serve"
    [ ( "registry",
        [ Alcotest.test_case "round-trip all kinds" `Quick
            test_registry_roundtrip_all_kinds;
          Alcotest.test_case "versioning" `Quick test_registry_versioning;
          Alcotest.test_case "bad names" `Quick test_registry_rejects_bad_names;
          Alcotest.test_case "corrupt artifact" `Quick
            test_registry_corrupt_artifact ] );
      ( "batching",
        [ Alcotest.test_case "batch = single, bitwise" `Quick
            test_batch_equals_single_bitwise;
          Alcotest.test_case "coalesced through the batcher" `Quick
            test_batcher_coalesced_equals_alone ] );
      ( "backpressure",
        [ Alcotest.test_case "deadline exceeded" `Quick test_deadline_exceeded;
          Alcotest.test_case "overload shedding" `Quick test_overload_shedding;
          Alcotest.test_case "submit after stop" `Quick
            test_submit_after_stop_rejected ] );
      ( "cache",
        [ Alcotest.test_case "lru eviction" `Quick test_lru_eviction;
          Alcotest.test_case "failed load not cached" `Quick
            test_lru_failed_load_not_cached ] );
      ( "protocol",
        [ Alcotest.test_case "request round-trip" `Quick
            test_protocol_roundtrip ] ) ]
