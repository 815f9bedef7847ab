(* End-to-end smoke test (the @serve-smoke alias): real server on a
   temp Unix socket, real client over the wire. Trains nothing — uses a
   fixed logreg artifact — but covers the whole serving path: registry
   load, raw-row scoring, dataset scoring by id (one factorized batch),
   agreement with direct in-process scoring, the stats op, and a clean
   shutdown. Exits non-zero on any mismatch. *)

open La
open Morpheus
open Morpheus_serve
open Test_support.Util

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("FAIL: " ^ s) ; exit 1) fmt

let () =
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "morpheus_smoke_%d" (Unix.getpid ()))
  in
  rm_rf root ;
  Sys.mkdir root 0o755 ;
  Fun.protect ~finally:(fun () -> rm_rf root)
  @@ fun () ->
  (* a small normalized dataset + a model trained on its schema *)
  let g = Rng.of_int 4242 in
  let s = Dense.random ~rng:g 200 3 in
  let r = Dense.random ~rng:g 15 4 in
  let k = Sparse.Indicator.random ~rng:g ~rows:200 ~cols:15 () in
  let t = Normalized.pkfk ~s:(Sparse.Mat.of_dense s) ~k ~r:(Sparse.Mat.of_dense r) in
  let d = snd (Normalized.dims t) in
  let artifact = Artifact.Logreg (Dense.random ~rng:g d 1) in
  let ds_dir = Filename.concat root "ds" in
  Io.save ~dir:ds_dir t ;
  let reg = Filename.concat root "reg" in
  let entry =
    Registry.save ~dir:reg ~name:"smoke"
      ~schema_hash:(Registry.schema_hash t) artifact
  in
  let socket = Filename.concat root "sock" in
  let server =
    Server.start
      { (Server.default_config ~registry:reg ~socket) with
        Server.max_wait = 1e-3
      }
  in
  Fun.protect ~finally:(fun () -> Server.stop server)
  @@ fun () ->
  Client.with_client ~socket
  @@ fun c ->
  (* ping *)
  (match Client.call c Protocol.Ping with
  | Ok _ -> ()
  | Error (code, msg) -> fail "ping: [%s] %s" code msg) ;
  (* list shows the model *)
  (match Client.call c Protocol.List_models with
  | Error (code, msg) -> fail "list: [%s] %s" code msg
  | Ok j ->
    let n =
      Option.bind (Json.member "models" j) Json.to_list
      |> Option.value ~default:[] |> List.length
    in
    if n <> 1 then fail "list: expected 1 model, got %d" n) ;
  (* raw rows over the wire = direct in-process scoring, bitwise *)
  let rows = [| Array.make d 0.25; Array.init d (fun i -> float_of_int i) |] in
  (match Client.score_rows c ~model:"smoke" rows with
  | Error (code, msg) -> fail "score rows: [%s] %s" code msg
  | Ok preds ->
    let direct = Artifact.score_dense artifact (Dense.of_arrays rows) in
    if preds <> direct then fail "row predictions differ from direct scoring") ;
  (* dataset ids over the wire = direct factorized scoring, bitwise *)
  let ids = [| 0; 7; 42; 199; 7 |] in
  (match Client.score_ids c ~model:entry.Registry.id ~dataset:ds_dir ids with
  | Error (code, msg) -> fail "score ids: [%s] %s" code msg
  | Ok preds ->
    let direct = Artifact.score_normalized artifact (Normalized.select_rows t ids) in
    if preds <> direct then fail "id predictions differ from direct scoring") ;
  (* score_where over the wire: the server masks + select_rows + scores
     the whole segment as one factorized plan; predictions must be
     bitwise-identical both to score_ids with client-computed mask ids
     and to direct in-process scoring *)
  let pred =
    match Pred.parse "c0 >= 0.5 && c3 < 0.9" with
    | Ok p -> p
    | Error msg -> fail "where predicate parse: %s" msg
  in
  (match Client.score_where c ~model:"smoke" ~dataset:ds_dir pred with
  | Error (code, msg) -> fail "score where: [%s] %s" code msg
  | Ok preds ->
    let ids = Relalg.mask t pred in
    if ids = [||] then fail "smoke predicate selected no rows" ;
    (match Client.score_ids c ~model:"smoke" ~dataset:ds_dir ids with
    | Error (code, msg) -> fail "score ids (where baseline): [%s] %s" code msg
    | Ok by_ids ->
      if preds <> by_ids then
        fail "where predictions differ from score_ids over the mask") ;
    let direct =
      Artifact.score_normalized artifact (Normalized.select_rows t ids)
    in
    if preds <> direct then fail "where predictions differ from direct scoring") ;
  (* an unknown predicate column is a per-request protocol error *)
  (match
     Client.score_where c ~model:"smoke" ~dataset:ds_dir
       (match Pred.parse "nope > 0" with
       | Ok p -> p
       | Error msg -> fail "predicate parse: %s" msg)
   with
  | Error ("rejected", _) -> ()
  | Ok _ -> fail "unknown-column predicate was scored"
  | Error (code, msg) -> fail "unknown column: wrong error [%s] %s" code msg) ;
  (* errors come back as protocol errors, not hangs *)
  (match Client.score_ids c ~model:"smoke" ~dataset:ds_dir [| 100000 |] with
  | Error ("rejected", _) -> ()
  | Ok _ -> fail "out-of-range id was scored"
  | Error (code, msg) -> fail "out-of-range id: wrong error [%s] %s" code msg) ;
  (match Client.score_rows c ~model:"ghost" rows with
  | Error ("unknown_model", _) -> ()
  | Ok _ -> fail "unknown model was scored"
  | Error (code, msg) -> fail "unknown model: wrong error [%s] %s" code msg) ;
  (* stats reflect the traffic *)
  (match Client.call c Protocol.Stats with
  | Error (code, msg) -> fail "stats: [%s] %s" code msg
  | Ok j ->
    let stats = Option.value ~default:Json.Null (Json.member "stats" j) in
    let int_at path =
      List.fold_left
        (fun acc k -> Option.bind acc (Json.member k))
        (Some stats) path
      |> Fun.flip Option.bind Json.to_int
      |> Option.value ~default:(-1)
    in
    if int_at [ "requests" ] < 4 then
      fail "stats: too few requests (%d)" (int_at [ "requests" ]) ;
    if int_at [ "batches"; "count" ] < 2 then
      fail "stats: too few batches (%d)" (int_at [ "batches"; "count" ]) ;
    if int_at [ "server"; "dataset_cache"; "entries" ] <> 1 then
      fail "stats: dataset cache should hold the dataset" ;
    if int_at [ "errors"; "rejected" ] < 1 then
      fail "stats: the rejected request was not counted") ;
  (* graceful shutdown over the wire *)
  (match Client.call c Protocol.Shutdown with
  | Ok _ -> ()
  | Error (code, msg) -> fail "shutdown: [%s] %s" code msg) ;
  Server.wait server ;
  print_endline "serve smoke: OK"
