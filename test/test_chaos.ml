(* The chaos suite (@chaos alias, also part of plain runtest): the
   fault-injection framework itself, numeric guards, checkpoints and
   bitwise resume, the circuit breaker, registry crash recovery,
   client retries, and end-to-end serving under injected faults. The
   invariants throughout: no wrong answers (responses bitwise-match a
   fault-free run), no lost or duplicated requests, no process death. *)

open La
open Sparse
open Morpheus
open Ore
open Morpheus_serve
open Test_support.Util
module Ck = Ml_algs.Checkpoint
module F = Ml_algs.Algorithms.Factorized

exception Crash (* the simulated kill signal for resume tests *)

let bitwise msg a b =
  if Dense.data a <> Dense.data b then
    Alcotest.failf "%s: not bitwise-identical (max|diff| = %g)" msg
      (Dense.max_abs_diff a b)

let must_configure spec =
  match Fault.configure spec with
  | Ok () -> ()
  | Error e -> Alcotest.failf "configure %S: %s" spec e

(* small PK-FK dataset with ±1 and numeric targets *)
let dataset () =
  let rng = Rng.of_int 3 in
  let s = Dense.random ~rng 60 3 in
  let r = Dense.random ~rng 8 4 in
  let k = Indicator.random ~rng ~rows:60 ~cols:8 () in
  let t = Normalized.pkfk ~s:(Mat.of_dense s) ~k ~r:(Mat.of_dense r) in
  let y = Dense.init 60 1 (fun i _ -> if i mod 2 = 0 then 1.0 else -1.0) in
  let y_num = Dense.init 60 1 (fun i _ -> float_of_int (i mod 5) /. 5.0) in
  (t, y, y_num)

(* ---- the fault framework itself ---- *)

let fired_pattern spec n =
  must_configure spec ;
  let l =
    List.init n (fun _ ->
        match Fault.point "x" with
        | () -> false
        | exception Fault.Injected _ -> true)
  in
  Fault.disable () ;
  l

let test_fault_determinism () =
  let a = fired_pattern "seed=7,x=0.3" 300 in
  let b = fired_pattern "seed=7,x=0.3" 300 in
  Alcotest.(check (list bool)) "same seed replays identically" a b ;
  let c = fired_pattern "seed=8,x=0.3" 300 in
  if a = c then Alcotest.fail "different seeds fired identically" ;
  let k = List.length (List.filter Fun.id a) in
  if k < 40 || k > 140 then
    Alcotest.failf "p=0.3 over 300 arrivals fired %d times" k

let test_fault_wildcard () =
  Fault.with_config "io.read=0.0,io.*=1.0" (fun () ->
      (* the exact rule comes first, so io.read never fires *)
      Fault.point "io.read" ;
      (match Fault.point "io.write" with
      | () -> Alcotest.fail "wildcard rule did not fire"
      | exception Fault.Injected p ->
        Alcotest.(check string) "payload names the point" "io.write" p) ;
      match Fault.point "listener.write" with
      | () -> ()
      | exception Fault.Injected _ -> Alcotest.fail "unmatched point fired")

let test_fault_delay () =
  Fault.with_config "z=1.0:delay20" (fun () ->
      let t0 = Unix.gettimeofday () in
      Fault.point "z" ;
      if Unix.gettimeofday () -. t0 < 0.015 then
        Alcotest.fail "delay action did not sleep")

let test_fault_counters () =
  Fault.with_config "x=1.0" (fun () ->
      Alcotest.(check bool) "enabled" true (Fault.enabled ()) ;
      for _ = 1 to 5 do
        try Fault.point "x" with Fault.Injected _ -> ()
      done ;
      Fault.point "y" ;
      Alcotest.(check int) "hits" 5 (Fault.hits "x") ;
      Alcotest.(check int) "fired" 5 (Fault.fired "x") ;
      Alcotest.(check int) "total" 5 (Fault.total_fired ())) ;
  Alcotest.(check bool) "disabled afterwards" false (Fault.enabled ()) ;
  Alcotest.(check int) "counters reset" 0 (Fault.hits "x")

let test_fault_parse_errors () =
  List.iter
    (fun bad ->
      match Fault.configure bad with
      | Ok () ->
        Fault.disable () ;
        Alcotest.failf "malformed spec %S accepted" bad
      | Error _ -> ())
    [ "nonsense"; "x=1.5"; "x=-0.1"; "x=0.5:explode"; "x=0.5:delayx"; "seed=q" ]

(* ---- numeric guards ---- *)

let test_validate () =
  Alcotest.(check bool) "finite ok" true (Validate.array_ok [| 0.0; -1.5 |]) ;
  Alcotest.(check (option int)) "scan finds first" (Some 1)
    (Validate.scan [| 0.0; Float.nan; infinity |]) ;
  (match Validate.check_array ~stage:"unit" [| 1.0; neg_infinity |] with
  | () -> Alcotest.fail "non-finite passed the guard"
  | exception Validate.Numeric_error i ->
    Alcotest.(check string) "stage" "unit" i.Validate.stage ;
    Alcotest.(check int) "index" 1 i.Validate.index) ;
  let m = Dense.init 2 2 (fun i j -> float_of_int (i + j)) in
  bitwise "check_dense chains" m (Validate.check_dense ~stage:"unit" m)

let test_divergence_guard () =
  let t, _, y_num = dataset () in
  match F.Linreg.train_gd ~alpha:1e12 ~iters:200 t y_num with
  | exception Validate.Numeric_error i ->
    Alcotest.(check string) "stage names the step" "linreg.step"
      i.Validate.stage
  | _ -> Alcotest.fail "divergence was not caught"

let test_nan_dataset_refused () =
  let ds_dir = Filename.concat (tmpdir "chaos_nan_ds") "ds" in
  let rng = Rng.of_int 11 in
  let s = Dense.init 6 2 (fun i j -> if i = 1 && j = 0 then Float.nan else 0.5) in
  let r = Dense.random ~rng 3 2 in
  let k = Indicator.random ~rng ~rows:6 ~cols:3 () in
  let t = Normalized.pkfk ~s:(Mat.of_dense s) ~k ~r:(Mat.of_dense r) in
  Io.save ~dir:ds_dir t ;
  match Io.load ~dir:ds_dir with
  | exception Validate.Numeric_error i ->
    if not (contains ~needle:"io.load" i.Validate.stage) then
      Alcotest.failf "stage %S does not name the load" i.Validate.stage
  | _ -> Alcotest.fail "NaN dataset loaded without complaint"

let test_nan_model_refused () =
  let reg = Filename.concat (tmpdir "chaos_nan_model") "reg" in
  let w = Dense.of_array ~rows:2 ~cols:1 [| Float.nan; 1.0 |] in
  ignore (Registry.save ~dir:reg ~name:"bad" (Artifact.Logreg w)) ;
  match Registry.load ~dir:reg "bad" with
  | Error msg ->
    if not (contains ~needle:"non-finite" msg) then
      Alcotest.failf "error %S does not name the non-finite value" msg
  | Ok _ -> Alcotest.fail "NaN model loaded without complaint"

(* ---- checkpoints: atomic snapshots, validated loads, bitwise resume ---- *)

let test_checkpoint_roundtrip () =
  let dir = tmpdir "chaos_ck_rt" in
  let path = Filename.concat dir "ck.bin" in
  Alcotest.(check bool) "absent" false (Ck.exists ~path) ;
  let w = Dense.of_array ~rows:2 ~cols:2 [| 1.0; -2.5; 0.0; 4.25 |] in
  let st =
    { Ck.algorithm = "logreg";
      completed = 3;
      total = 9;
      mats = [ ("w", Ck.of_dense w) ];
      scalars = [ ("alpha", 1e-3) ]
    }
  in
  Ck.save ~path st ;
  (match Ck.load ~path with
  | Error e -> Alcotest.fail e
  | Ok got ->
    Alcotest.(check string) "algorithm" "logreg" got.Ck.algorithm ;
    Alcotest.(check int) "completed" 3 got.Ck.completed ;
    Alcotest.(check int) "total" 9 got.Ck.total ;
    Alcotest.(check (option (float 0.0))) "scalar" (Some 1e-3)
      (Ck.scalar got "alpha") ;
    bitwise "matrix" w (Option.get (Ck.dense got "w"))) ;
  (* an invalid state must never reach disk *)
  (match
     Ck.save ~path
       { st with Ck.mats = [ ("w", Ck.of_dense (Dense.of_array ~rows:1 ~cols:1 [| Float.nan |])) ] }
   with
  | () -> Alcotest.fail "NaN snapshot saved"
  | exception Invalid_argument _ -> ()) ;
  (* ... and the previous checkpoint survived the refused save *)
  (match Ck.load ~path with
  | Ok got -> Alcotest.(check int) "old snapshot intact" 3 got.Ck.completed
  | Error e -> Alcotest.fail e) ;
  (* corrupt and foreign files report as Error, never crash *)
  let junk = Filename.concat dir "junk.bin" in
  Out_channel.with_open_text junk (fun oc -> output_string oc "not a checkpoint") ;
  (match Ck.load ~path:junk with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage loaded as a checkpoint") ;
  let foreign = Filename.concat dir "foreign.bin" in
  Io.write_payload ~kind:"model-artifact" foreign (Ck.of_dense w) ;
  (match Ck.load ~path:foreign with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "foreign payload loaded as a checkpoint") ;
  match Ck.load ~path:(Filename.concat dir "missing.bin") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file loaded"

(* Kill mid-run at iteration [kill] of [total], then resume from the
   last snapshot; the resumed model must be bitwise-identical to the
   uninterrupted run. [run] invokes a trainer with (iters, init,
   on_iter); [snap]/[restore] map its state to checkpoint matrices. *)
let resume_case ~name ~total ~kill ~run ~snap ~restore () =
  let dir = tmpdir ("chaos_resume_" ^ name) in
  let path = Filename.concat dir "ck.bin" in
  let full = run ~iters:total ~init:None ~on_iter:None in
  (match
     run ~iters:total ~init:None
       ~on_iter:
         (Some
            (fun i live ->
              Ck.save ~path
                { Ck.algorithm = name;
                  completed = i;
                  total;
                  mats = snap live;
                  scalars = []
                } ;
              if i = kill then raise Crash))
   with
  | _ -> Alcotest.fail "the simulated kill did not happen"
  | exception Crash -> ()) ;
  let st =
    match Ck.load ~path with Ok st -> st | Error e -> Alcotest.fail e
  in
  Alcotest.(check string) "algorithm recorded" name st.Ck.algorithm ;
  Alcotest.(check int) "killed at the snapshot" kill st.Ck.completed ;
  let resumed =
    run ~iters:(total - st.Ck.completed) ~init:(Some (restore st)) ~on_iter:None
  in
  bitwise (name ^ " resumed = uninterrupted") full resumed

let test_resume_logreg =
  let t, y, _ = dataset () in
  resume_case ~name:"logreg" ~total:9 ~kill:5
    ~run:(fun ~iters ~init ~on_iter ->
      (F.Logreg.train ~alpha:1e-3 ~iters ?w0:init ?on_iter t y).F.Logreg.w)
    ~snap:(fun w -> [ ("w", Ck.of_dense w) ])
    ~restore:(fun st -> Option.get (Ck.dense st "w"))

let test_resume_glm =
  let t, _, y_num = dataset () in
  resume_case ~name:"glm" ~total:8 ~kill:3
    ~run:(fun ~iters ~init ~on_iter ->
      (F.Glm.train ~alpha:1e-3 ~iters ?w0:init ?on_iter
         ~family:Ml_algs.Glm.Gaussian t y_num)
        .F.Glm.w)
    ~snap:(fun w -> [ ("w", Ck.of_dense w) ])
    ~restore:(fun st -> Option.get (Ck.dense st "w"))

let test_resume_kmeans =
  let t, _, _ = dataset () in
  resume_case ~name:"kmeans" ~total:7 ~kill:4
    ~run:(fun ~iters ~init ~on_iter ->
      (F.Kmeans.train ~iters ?centroids:init ?on_iter ~k:3 t).F.Kmeans.centroids)
    ~snap:(fun c -> [ ("centroids", Ck.of_dense c) ])
    ~restore:(fun st -> Option.get (Ck.dense st "centroids"))

let test_resume_gnmf =
  let t, _, _ = dataset () in
  resume_case ~name:"gnmf" ~total:6 ~kill:3
    ~run:(fun ~iters ~init ~on_iter ->
      (F.Gnmf.train ~iters ?init ?on_iter ~rank:3 t).F.Gnmf.h)
    ~snap:(fun (fs : F.Gnmf.factors) ->
      (* the hook sees live buffers; of_dense copies *)
      [ ("w", Ck.of_dense fs.F.Gnmf.w); ("h", Ck.of_dense fs.F.Gnmf.h) ])
    ~restore:(fun st ->
      { F.Gnmf.w = Option.get (Ck.dense st "w");
        h = Option.get (Ck.dense st "h")
      })

let test_resume_ore_logreg () =
  let rng = Rng.of_int 17 in
  let s = Dense.random ~rng 40 3 in
  let r = Dense.random ~rng 5 4 in
  let k = Indicator.random ~rng ~rows:40 ~cols:5 () in
  let nm = Normalized.pkfk ~s:(Mat.of_dense s) ~k ~r:(Mat.of_dense r) in
  let y = Dense.init 40 1 (fun i _ -> if i mod 3 = 0 then 1.0 else -1.0) in
  let dir = tmpdir "chaos_ore" in
  let cn =
    Chunked_normalized.of_normalized
      ~dir:(Filename.concat dir "cn")
      ~chunk_size:9 nm
  in
  resume_case ~name:"ore_logreg" ~total:7 ~kill:4
    ~run:(fun ~iters ~init ~on_iter ->
      Ore_logreg.train_factorized ~alpha:1e-3 ~iters ?w0:init ?on_iter cn y)
    ~snap:(fun w -> [ ("w", Ck.of_dense w) ])
    ~restore:(fun st -> Option.get (Ck.dense st "w"))
    ()

(* ---- circuit breaker (fake clock) ---- *)

let test_breaker () =
  let now = ref 0.0 in
  let b = Breaker.create ~threshold:2 ~cooldown:1.0 ~now:(fun () -> !now) () in
  Alcotest.(check bool) "closed allows" true (Breaker.allow b) ;
  Breaker.failure b ;
  Alcotest.(check bool) "one failure stays closed" true (Breaker.allow b) ;
  Breaker.failure b ;
  Alcotest.(check bool) "tripped" true (Breaker.state b = Breaker.Open) ;
  Alcotest.(check bool) "open refuses" false (Breaker.allow b) ;
  Alcotest.(check int) "one open" 1 (Breaker.opens b) ;
  now := 1.5 ;
  Alcotest.(check bool) "half-open probes" true (Breaker.allow b) ;
  Alcotest.(check bool) "exactly one probe" false (Breaker.allow b) ;
  Breaker.failure b ;
  Alcotest.(check bool) "probe failure re-opens" true
    (Breaker.state b = Breaker.Open) ;
  Alcotest.(check int) "re-open counted" 2 (Breaker.opens b) ;
  now := 1.9 ;
  Alcotest.(check bool) "fresh cooldown holds" false (Breaker.allow b) ;
  now := 3.0 ;
  Alcotest.(check bool) "probe again" true (Breaker.allow b) ;
  Breaker.success b ;
  Alcotest.(check bool) "probe success closes" true
    (Breaker.state b = Breaker.Closed) ;
  Alcotest.(check bool) "closed again" true (Breaker.allow b)

(* ---- registry crash recovery ---- *)

let write_file path contents =
  Out_channel.with_open_text path (fun oc -> output_string oc contents)

let test_registry_recover () =
  let reg = Filename.concat (tmpdir "chaos_reg") "reg" in
  let w = Dense.of_array ~rows:2 ~cols:1 [| 0.5; -0.25 |] in
  let entry = Registry.save ~dir:reg ~name:"m" (Artifact.Logreg w) in
  Alcotest.(check string) "committed id" "m@v1" entry.Registry.id ;
  (* crash litter of every kind the tmp+rename protocol can leave *)
  write_file (Filename.concat reg "stray.tmp") "x" ;
  let mdir = Filename.concat reg "m" in
  write_file (Filename.concat mdir "artifact.bin.tmp") "x" ;
  let v9 = Filename.concat mdir "v9" in
  Sys.mkdir v9 0o755 ;
  write_file (Filename.concat v9 "artifact.bin") "uncommitted" ;
  write_file (Filename.concat (Filename.concat mdir "v1") "manifest.json.tmp") "x" ;
  let moved = Registry.recover ~dir:reg in
  Alcotest.(check int) "four entries quarantined" 4 (List.length moved) ;
  List.iter
    (fun (_, target) ->
      Alcotest.(check bool) "moved into _quarantine" true
        (contains ~needle:"_quarantine" target) ;
      Alcotest.(check bool) "target exists" true (Sys.file_exists target))
    moved ;
  (* the committed model is untouched and still loads *)
  (match Registry.load ~dir:reg "m" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "committed model lost: %s" e) ;
  Alcotest.(check int) "list skips the quarantine" 1
    (List.length (Registry.list ~dir:reg)) ;
  Alcotest.(check int) "second sweep is clean" 0
    (List.length (Registry.recover ~dir:reg)) ;
  (* '_' is reserved so a model can never collide with the quarantine *)
  (match Registry.save ~dir:reg ~name:"_quarantine" (Artifact.Logreg w) with
  | _ -> Alcotest.fail "leading-underscore name accepted"
  | exception Invalid_argument _ -> ()) ;
  Alcotest.(check int) "absent registry sweeps to []" 0
    (List.length (Registry.recover ~dir:(Filename.concat reg "nope")))

(* ---- batcher: every request exactly one reply, under faults ---- *)

let test_batcher_exactly_once () =
  let n = 160 in
  let executed = Array.make n 0 in
  let metrics = Metrics.create () in
  let batcher =
    Batcher.create ~max_batch:8 ~max_wait:1e-3 ~metrics
      ~size:(fun _ -> 1)
      ~exec:(fun () payloads ->
        Array.map
          (fun i ->
            executed.(i) <- executed.(i) + 1 ;
            Ok i)
          payloads)
      ()
  in
  Fault.with_config "seed=5,batcher.submit=0.2,batcher.exec=0.15" (fun () ->
      let replies = Array.make n None in
      let per = n / 8 in
      let threads =
        List.init 8 (fun th ->
            Thread.create
              (fun () ->
                for j = 0 to per - 1 do
                  let i = (th * per) + j in
                  let r =
                    match Batcher.submit batcher () i with
                    | Ok v -> `Ok v
                    | Error _ -> `Err
                    | exception Fault.Injected _ -> `Err
                  in
                  replies.(i) <- Some r
                done)
              ())
      in
      List.iter Thread.join threads ;
      Batcher.stop batcher ;
      let oks = ref 0 and errs = ref 0 in
      Array.iteri
        (fun i r ->
          match r with
          | None -> Alcotest.failf "request %d got no reply" i
          | Some (`Ok v) ->
            incr oks ;
            if v <> i then Alcotest.failf "request %d got reply %d" i v ;
            if executed.(i) <> 1 then
              Alcotest.failf "request %d executed %d times" i executed.(i)
          | Some `Err ->
            incr errs ;
            if executed.(i) <> 0 then
              Alcotest.failf "failed request %d executed %d times" i
                executed.(i))
        replies ;
      (* with these seeds both outcomes actually occur *)
      if !oks = 0 || !errs = 0 then
        Alcotest.failf "degenerate run: %d ok, %d errors" !oks !errs)

(* ---- client retries ---- *)

let test_retry_exhaustion () =
  let m = Metrics.create () in
  let policy =
    { Client.default_retry with
      attempts = 3;
      base_backoff = 1e-3;
      max_backoff = 2e-3;
      budget = 5.0
    }
  in
  let socket = Filename.concat (tmpdir "chaos_ghost") "no.sock" in
  match Client.call_retry ~policy ~metrics:m ~socket Protocol.Ping with
  | Ok _ -> Alcotest.fail "ghost server answered"
  | Error (code, _) ->
    Alcotest.(check string) "transport error" "transport" code ;
    Alcotest.(check int) "two retries recorded" 2 (Metrics.retries m)

(* ---- serving: helpers ---- *)

let make_serving root =
  let g = Rng.of_int 4242 in
  let s = Dense.random ~rng:g 200 3 in
  let r = Dense.random ~rng:g 15 4 in
  let k = Indicator.random ~rng:g ~rows:200 ~cols:15 () in
  let t =
    Normalized.pkfk ~s:(Mat.of_dense s) ~k ~r:(Mat.of_dense r)
  in
  let d = snd (Normalized.dims t) in
  let artifact = Artifact.Logreg (Dense.random ~rng:g d 1) in
  let ds_dir = Filename.concat root "ds" in
  Io.save ~dir:ds_dir t ;
  let reg = Filename.concat root "reg" in
  let entry =
    Registry.save ~dir:reg ~name:"chaos"
      ~schema_hash:(Registry.schema_hash t) artifact
  in
  (t, d, artifact, ds_dir, reg, entry)

(* ---- serving under a fault storm: no wrong answers, no losses ---- *)

let serve_chaos seed () =
  let root = tmpdir (Printf.sprintf "chaos_serve_%d" seed) in
  let t, d, artifact, ds_dir, reg, entry = make_serving root in
  (* expectations computed BEFORE faults are armed — the fault
     configuration is process-global and would hit these kernels too *)
  let rows_batches =
    Array.init 10 (fun b ->
        Array.init 2 (fun i ->
            Array.init d (fun j -> float_of_int ((b + i + j) mod 7) /. 7.0)))
  in
  let ids_batches =
    Array.init 10 (fun b ->
        Array.init 3 (fun i -> ((17 * b) + (5 * i)) mod 200))
  in
  let expected_rows =
    Array.map
      (fun rows -> Artifact.score_dense artifact (Dense.of_arrays rows))
      rows_batches
  in
  let expected_ids =
    Array.map
      (fun ids ->
        Artifact.score_normalized artifact (Normalized.select_rows t ids))
      ids_batches
  in
  let socket = Filename.concat root "sock" in
  let server =
    Server.start
      { (Server.default_config ~registry:reg ~socket) with Server.max_wait = 1e-3 }
  in
  Fun.protect
    ~finally:(fun () ->
      Fault.disable () ;
      Server.stop server)
  @@ fun () ->
  let cm = Metrics.create () in
  (* the server folds dataset/exec failures into code "rejected", so
     the chaos client retries that too; we only send valid requests *)
  let policy =
    { Client.default_retry with
      attempts = 10;
      base_backoff = 2e-3;
      max_backoff = 5e-2;
      budget = 30.0;
      retry_codes = "rejected" :: Client.default_retry.Client.retry_codes
    }
  in
  let rng = Rng.of_int (1000 + seed) in
  must_configure
    (Printf.sprintf
       "seed=%d,io.read=0.05,registry.load=0.05,dataset_cache.load=0.05,\
        batcher.submit=0.04,batcher.exec=0.04,listener.write=0.04,\
        listener.handler=0.03,client.write=0.03,client.read=0.03"
       seed) ;
  for b = 0 to 9 do
    (match
       Client.score_rows_retry ~policy ~metrics:cm ~rng ~socket ~model:"chaos"
         rows_batches.(b)
     with
    | Error (code, msg) -> Alcotest.failf "rows %d: [%s] %s" b code msg
    | Ok preds ->
      if preds <> expected_rows.(b) then
        Alcotest.failf "rows %d: answer differs from the fault-free run" b) ;
    match
      Client.score_ids_retry ~policy ~metrics:cm ~rng ~socket
        ~model:entry.Registry.id ~dataset:ds_dir ids_batches.(b)
    with
    | Error (code, msg) -> Alcotest.failf "ids %d: [%s] %s" b code msg
    | Ok preds ->
      if preds <> expected_ids.(b) then
        Alcotest.failf "ids %d: answer differs from the fault-free run" b
  done ;
  Fault.disable () ;
  (* permanent errors short-circuit the retry loop *)
  let before = Metrics.retries cm in
  (match
     Client.call_retry
       ~policy:{ policy with Client.retry_codes = Client.default_retry.Client.retry_codes }
       ~metrics:cm ~socket
       (Protocol.Score
          { model = "ghost";
            target = Protocol.Rows [| Array.make d 0.0 |];
            deadline_ms = None
          })
   with
  | Error ("unknown_model", _) -> ()
  | Ok _ -> Alcotest.fail "ghost model scored"
  | Error (code, msg) -> Alcotest.failf "wrong code [%s] %s" code msg) ;
  Alcotest.(check int) "permanent error not retried" before
    (Metrics.retries cm) ;
  (* the server survived the storm: health answers, plain ping works *)
  (match Client.call_once ~socket Protocol.Health with
  | Error (code, msg) -> Alcotest.failf "health: [%s] %s" code msg
  | Ok j -> (
    match Json.member "status" j with
    | Some (Json.Str _) -> ()
    | _ -> Alcotest.fail "health response missing status")) ;
  Client.with_client ~socket (fun c ->
      match Client.call c Protocol.Ping with
      | Ok _ -> ()
      | Error (code, msg) -> Alcotest.failf "ping after chaos: [%s] %s" code msg)

(* ---- handler supervision: a crash costs one connection, no other ---- *)

(* A supervised endpoint: its address, the metrics its listener
   counts restarts in, and how to stop it. *)
type supervised = { addr : string; metrics : Metrics.t; close : unit -> unit }

let supervised_server root =
  let _, _, _, _, reg, _ = make_serving root in
  let socket = Filename.concat root "sock" in
  let server = Server.start (Server.default_config ~registry:reg ~socket) in
  { addr = socket; metrics = Server.metrics server; close = (fun () -> Server.stop server) }

(* The router in front of a server; no prober, so the only connections
   the drill crashes are the test's own. *)
let supervised_router root =
  let shard = supervised_server root in
  let router =
    Morpheus_cluster.Router.(
      start
        { (default_config ~listen:"127.0.0.1:0" ~shards:[ ("s0", shard.addr) ]) with
          probe_interval = 0.0
        })
  in
  { addr = Endpoint.to_string (Morpheus_cluster.Router.endpoint router);
    metrics = Morpheus_cluster.Router.metrics router;
    close =
      (fun () ->
        Morpheus_cluster.Router.stop router ;
        shard.close ())
  }

let test_supervision start () =
  let ep = start (tmpdir "chaos_sup") in
  Fun.protect
    ~finally:(fun () ->
      Fault.disable () ;
      ep.close ())
  @@ fun () ->
  let socket = ep.addr in
  must_configure "listener.handler=1.0" ;
  (* every connection crashes its handler: the client sees a closed
     connection (a transport error), never a hang or a wrong answer *)
  for i = 1 to 3 do
    match Client.with_client ~socket (fun c -> Client.call c Protocol.Ping) with
    | Error ("transport", _) -> ()
    | Ok _ -> Alcotest.failf "connection %d: crashed handler answered" i
    | Error (code, msg) ->
      Alcotest.failf "connection %d: wrong error [%s] %s" i code msg
  done ;
  Fault.disable () ;
  (* each crash ended only its own connection's thread: service
     resumes at once (through a router, health also reaches the shard) *)
  (match Client.with_client ~socket (fun c -> Client.call c Protocol.Ping) with
  | Ok _ -> ()
  | Error (code, msg) ->
    Alcotest.failf "no service after the drill: [%s] %s" code msg) ;
  (match Client.with_client ~socket (fun c -> Client.call c Protocol.Health) with
  | Ok _ -> ()
  | Error (code, msg) -> Alcotest.failf "health after the drill: [%s] %s" code msg) ;
  (* all three crashes were counted (the last one may still be on its
     way: the client saw the hangup before the count) *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec await () =
    if Metrics.restarts ep.metrics >= 3 then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "only %d handler restarts counted" (Metrics.restarts ep.metrics)
    else begin
      Thread.delay 0.02 ;
      await ()
    end
  in
  await ()

(* ---- circuit breaker at the server: broken dataset fails fast ---- *)

let test_server_circuit_breaker () =
  let root = tmpdir "chaos_brk" in
  let _, _, _, ds_dir, reg, entry = make_serving root in
  let socket = Filename.concat root "sock" in
  let server =
    Server.start
      { (Server.default_config ~registry:reg ~socket) with
        Server.max_wait = 1e-3;
        breaker_threshold = 3;
        breaker_cooldown = 30.0 (* long: stays open for the test *)
      }
  in
  Fun.protect
    ~finally:(fun () ->
      Fault.disable () ;
      Server.stop server)
  @@ fun () ->
  must_configure "dataset_cache.load=1.0" ;
  Client.with_client ~socket
  @@ fun c ->
  (* three consecutive load failures trip the circuit *)
  for i = 1 to 3 do
    match Client.score_ids c ~model:entry.Registry.id ~dataset:ds_dir [| 0 |] with
    | Error ("rejected", _) -> ()
    | Ok _ -> Alcotest.failf "request %d: broken dataset scored" i
    | Error (code, msg) ->
      Alcotest.failf "request %d: wrong error [%s] %s" i code msg
  done ;
  Fault.disable () ;
  (* the circuit is open: even with the fault gone, the request is
     refused fast, without touching the loader *)
  (match Client.score_ids c ~model:entry.Registry.id ~dataset:ds_dir [| 0 |] with
  | Error (_, msg) ->
    if not (contains ~needle:"circuit open" msg) then
      Alcotest.failf "expected a circuit-open refusal, got %S" msg
  | Ok _ -> Alcotest.fail "open circuit still served") ;
  (* health degrades and counts the open circuit *)
  match Client.call c Protocol.Health with
  | Error (code, msg) -> Alcotest.failf "health: [%s] %s" code msg
  | Ok j ->
    let str k = Option.bind (Json.member k j) Json.to_str in
    let num k = Option.bind (Json.member k j) Json.to_int in
    Alcotest.(check (option string)) "degraded" (Some "degraded") (str "status") ;
    Alcotest.(check (option int)) "one open circuit" (Some 1)
      (num "open_circuits")

let () =
  Alcotest.run "chaos"
    [ ( "fault",
        [ Alcotest.test_case "deterministic replay" `Quick test_fault_determinism;
          Alcotest.test_case "wildcard + first match" `Quick test_fault_wildcard;
          Alcotest.test_case "delay action" `Quick test_fault_delay;
          Alcotest.test_case "counters" `Quick test_fault_counters;
          Alcotest.test_case "parse errors" `Quick test_fault_parse_errors ] );
      ( "guards",
        [ Alcotest.test_case "validate primitives" `Quick test_validate;
          Alcotest.test_case "divergence names the step" `Quick test_divergence_guard;
          Alcotest.test_case "NaN dataset refused at load" `Quick test_nan_dataset_refused;
          Alcotest.test_case "NaN model refused at load" `Quick test_nan_model_refused ] );
      ( "checkpoint",
        [ Alcotest.test_case "roundtrip + validation" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "logreg kill/resume bitwise" `Quick test_resume_logreg;
          Alcotest.test_case "glm kill/resume bitwise" `Quick test_resume_glm;
          Alcotest.test_case "kmeans kill/resume bitwise" `Quick test_resume_kmeans;
          Alcotest.test_case "gnmf kill/resume bitwise" `Quick test_resume_gnmf;
          Alcotest.test_case "ore logreg kill/resume bitwise" `Quick test_resume_ore_logreg ] );
      ( "breaker",
        [ Alcotest.test_case "state machine (fake clock)" `Quick test_breaker ] );
      ( "registry",
        [ Alcotest.test_case "crash-litter recovery" `Quick test_registry_recover ] );
      ( "batcher",
        [ Alcotest.test_case "exactly one reply under faults" `Quick
            test_batcher_exactly_once ] );
      ( "client",
        [ Alcotest.test_case "retry exhaustion" `Quick test_retry_exhaustion ] );
      ( "serve",
        [ Alcotest.test_case "fault storm, seed 11" `Quick (serve_chaos 11);
          Alcotest.test_case "fault storm, seed 12" `Quick (serve_chaos 12);
          Alcotest.test_case "fault storm, seed 13" `Quick (serve_chaos 13);
          Alcotest.test_case "handler supervision" `Quick
            (test_supervision supervised_server);
          Alcotest.test_case "handler supervision, router" `Quick
            (test_supervision supervised_router);
          Alcotest.test_case "dataset circuit breaker" `Quick
            test_server_circuit_breaker ] )
    ]
