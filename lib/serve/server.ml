(* The scoring server. Data path of a score request:

     Listener connection thread: read frame → parse → [handle_request]:
       resolve model (registry) → validate shapes → Batcher.submit
       (blocks)
     batching thread: coalesce same-(model, dataset) requests →
       one factorized select_rows + lmm (or one dense gemm) →
       split results per request
     Listener connection thread: render response frame → write

   The batching thread is the only thread that runs LA kernels, so the
   La.Pool single-caller contract holds; parallelism inside a batch
   still comes from the Exec backend. *)

open La
open Morpheus

type config = {
  registry : string;
  socket : string;
  max_batch : int;
  max_wait : float;
  queue_bound : int;
  cache_capacity : int;
  default_deadline_ms : float option;
  breaker_threshold : int;
  breaker_cooldown : float;
  drain_on_term : bool;
}

let default_config ~registry ~socket =
  { registry;
    socket;
    max_batch = 64;
    max_wait = 2e-3;
    queue_bound = 1024;
    cache_capacity = 4;
    default_deadline_ms = None;
    breaker_threshold = 5;
    breaker_cooldown = 1.0;
    drain_on_term = false
  }

(* Batches coalesce per (resolved model version, dataset, canonical
   predicate): requests for the same model over the same dataset fuse
   into one product, and score_where requests with the same predicate
   (canonically rendered by Pred.to_string) share one mask +
   select_rows + score. *)
type batch_key = {
  bk_model : string;
  bk_dataset : string option;
  bk_where : string option;
}

type batch_payload =
  | P_rows of float array array
  | P_ids of int array
  | P_where of Pred.t

let payload_rows = function
  | P_rows rows -> Array.length rows
  | P_ids ids -> Array.length ids
  | P_where _ -> 1 (* row count known only after the mask runs *)

type t = {
  cfg : config;
  metrics : Metrics.t;
  listener : Listener.t;
  (* loaded artifacts, keyed by resolved "name@vN" *)
  models : (string, Artifact.t * Registry.manifest) Hashtbl.t;
  model_m : Analysis.Sync.t;
  (* loaded normalized datasets + their schema hash, LRU *)
  datasets : (Normalized.t * string) Dataset_cache.t;
  mutable batcher : (batch_key, batch_payload, float array) Batcher.t option;
  (* one circuit breaker per dataset path *)
  breakers : (string, Breaker.t) Hashtbl.t;
  breaker_m : Analysis.Sync.t;
  recovered : int;  (* registry litter quarantined at startup *)
  (* graceful drain: answer health with "draining", finish the queue,
     then stop — entered by the drain op or (with [drain_on_term])
     SIGTERM *)
  drain_m : Analysis.Sync.t;
  mutable draining : bool;
  mutable active : int;  (* score requests inside Batcher.submit *)
  mutable drain_thread : Thread.t option;
  started : float;
}

let now () = Clock.wall ()

(* ---- model / dataset loading ---- *)

let load_model t id =
  Analysis.Sync.lock t.model_m ;
  Fun.protect
    ~finally:(fun () -> Analysis.Sync.unlock t.model_m)
    (fun () ->
      match Hashtbl.find_opt t.models id with
      | Some am -> Ok am
      | None -> (
        match Registry.load ~dir:t.cfg.registry id with
        | Ok (artifact, manifest) ->
          Hashtbl.replace t.models id (artifact, manifest) ;
          Ok (artifact, manifest)
        | Error _ as e -> e))

let dataset_breaker t path =
  Analysis.Sync.lock t.breaker_m ;
  let b =
    match Hashtbl.find_opt t.breakers path with
    | Some b -> b
    | None ->
      let b =
        (* per-path seed: breakers tripped by one shared outage probe
           at spread-out instants instead of in lockstep *)
        Breaker.create ~threshold:t.cfg.breaker_threshold
          ~cooldown:t.cfg.breaker_cooldown ~jitter:0.1
          ~seed:(Hashtbl.hash path) ()
      in
      Hashtbl.replace t.breakers path b ;
      b
  in
  Analysis.Sync.unlock t.breaker_m ;
  b

let open_circuits t =
  Analysis.Sync.lock t.breaker_m ;
  let n =
    Hashtbl.fold
      (fun _ b acc -> if Breaker.state b = Breaker.Open then acc + 1 else acc)
      t.breakers 0
  in
  Analysis.Sync.unlock t.breaker_m ;
  n

let get_dataset t path =
  (* hit/miss recorded against the metrics before the (possibly slow)
     load; only the batching thread calls this, so mem→get is atomic
     enough. A breaker per path makes a persistently broken dataset
     fail fast instead of hammering the filesystem on every batch. *)
  let b = dataset_breaker t path in
  if not (Breaker.allow b) then begin
    Metrics.record_error t.metrics ~code:"circuit_open" ;
    Error
      (Printf.sprintf "circuit open for dataset %s (recent loads failed)" path)
  end
  else begin
    Metrics.record_cache t.metrics ~hit:(Dataset_cache.mem t.datasets path) ;
    let fail msg =
      Breaker.failure b ;
      Error msg
    in
    match Dataset_cache.get t.datasets path with
    | v ->
      Breaker.success b ;
      Ok v
    | exception Invalid_argument msg -> fail msg
    | exception Io.Corrupt msg -> fail msg
    | exception Sys_error msg -> fail msg
    | exception Fault.Injected p -> fail ("injected fault at " ^ p)
    | exception Validate.Numeric_error i -> fail (Validate.message i)
  end

(* ---- the fused batch executor ---- *)

let all_error payloads msg = Array.map (fun _ -> Error msg) payloads

(* Split a flat prediction array back into per-request slices. *)
let split_results payloads preds counts =
  let results = Array.make (Array.length payloads) (Ok [||]) in
  let off = ref 0 in
  Array.iteri
    (fun i count ->
      match count with
      | Error _ as e -> results.(i) <- e
      | Ok c ->
        results.(i) <- Ok (Array.sub preds !off c) ;
        off := !off + c)
    counts ;
  results

(* A model or dataset that slipped past the load-time guards must still
   never serve NaN: scan the fused prediction vector once before
   splitting it back per request. *)
let checked_preds payloads preds counts =
  if Validate.array_ok preds then split_results payloads preds counts
  else all_error payloads "non-finite prediction (corrupt model or dataset)"

let exec_batch t key payloads =
  match load_model t key.bk_model with
  | Error msg -> all_error payloads msg
  | Ok (artifact, manifest) -> (
    match key.bk_dataset with
    | None ->
      (* raw dense rows: one gemm over the concatenated rows *)
      let rows =
        Array.to_list payloads
        |> List.concat_map (function
             | P_rows rows -> Array.to_list rows
             | P_ids _ | P_where _ -> [])
      in
      let counts =
        Array.map
          (function
            | P_rows rows -> Ok (Array.length rows)
            | P_ids _ | P_where _ -> Error "row batch mixed with ids")
          payloads
      in
      if rows = [] then Array.map (fun _ -> Ok [||]) payloads
      else
        let preds =
          Artifact.score_dense artifact (Dense.of_arrays (Array.of_list rows))
        in
        checked_preds payloads preds counts
    | Some path -> (
      match get_dataset t path with
      | Error msg -> all_error payloads msg
      | Ok (tn, hash) -> (
        match manifest.Registry.schema_hash with
        | Some h when h <> hash ->
          all_error payloads
            (Printf.sprintf
               "schema mismatch: model %s was trained on a different column \
                structure than dataset %s"
               key.bk_model path)
        | _ -> (
          match key.bk_where with
          | Some _ -> (
            (* every payload under this key carries the same canonical
               predicate; evaluate the per-table masks and the
               factorized select_rows + score once, then hand each
               fused request the full segment's predictions *)
            match
              Array.find_opt
                (function P_where _ -> true | _ -> false)
                payloads
            with
            | None -> all_error payloads "where batch carries no predicate"
            | Some (P_rows _ | P_ids _) -> assert false
            | Some (P_where pred) -> (
              match Relalg.mask tn pred with
              | exception Relalg.Rel_error msg -> all_error payloads msg
              | ids ->
                if Array.length ids = 0 then
                  Array.map
                    (function
                      | P_where _ -> Ok [||]
                      | _ -> Error "where batch mixed with rows/ids")
                    payloads
                else
                  let preds =
                    Artifact.score_normalized artifact
                      (Normalized.select_rows tn ids)
                  in
                  if Validate.array_ok preds then
                    Array.map
                      (function
                        | P_where _ -> Ok (Array.copy preds)
                        | _ -> Error "where batch mixed with rows/ids")
                      payloads
                  else
                    all_error payloads
                      "non-finite prediction (corrupt model or dataset)"))
          | None ->
            let n = Normalized.rows tn in
            (* per-request id validation; only valid requests join the
               fused gather *)
            let counts =
              Array.map
                (function
                  | P_ids ids ->
                    if Array.exists (fun i -> i < 0 || i >= n) ids then
                      Error
                        (Printf.sprintf
                           "row id out of range (dataset has %d rows)" n)
                    else Ok (Array.length ids)
                  | P_rows _ | P_where _ -> Error "id batch mixed with rows")
                payloads
            in
            let ids =
              Array.to_list payloads
              |> List.concat_map (fun p ->
                     match p with
                     | P_ids ids
                       when not (Array.exists (fun i -> i < 0 || i >= n) ids) ->
                       Array.to_list ids
                     | _ -> [])
              |> Array.of_list
            in
            if Array.length ids = 0 then
              split_results payloads [||] counts
            else
              (* the micro-batching payoff: one factorized select_rows +
                 one factorized product for the whole batch *)
              let preds =
                Artifact.score_normalized artifact
                  (Normalized.select_rows tn ids)
              in
              checked_preds payloads preds counts))))

(* ---- request handling ---- *)

let manifest_json (e : Registry.entry) =
  let m = e.Registry.manifest in
  Json.Obj
    [ ("id", Json.Str e.Registry.id);
      ("name", Json.Str m.Registry.name);
      ("version", Json.Num (float_of_int m.Registry.version));
      ("kind", Json.Str m.Registry.kind);
      ("feature_dim", Json.Num (float_of_int m.Registry.feature_dim));
      ( "schema_hash",
        match m.Registry.schema_hash with
        | Some h -> Json.Str h
        | None -> Json.Null );
      ("created", Json.Num m.Registry.created);
      ( "meta",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) m.Registry.meta) )
    ]

let stats t =
  let metrics = Metrics.snapshot t.metrics in
  let server =
    Json.Obj
      [ ("uptime_s", Json.Num (now () -. t.started));
        ( "models_loaded",
          Json.Num
            (float_of_int
               (Analysis.Sync.lock t.model_m ;
                let n = Hashtbl.length t.models in
                Analysis.Sync.unlock t.model_m ;
                n)) );
        ( "dataset_cache",
          Json.Obj
            [ ("entries", Json.Num (float_of_int (Dataset_cache.length t.datasets)));
              ("capacity", Json.Num (float_of_int (Dataset_cache.capacity t.datasets)));
              ("evictions", Json.Num (float_of_int (Dataset_cache.evictions t.datasets)))
            ] );
        ( "queue",
          Json.Obj
            [ ( "pending",
                Json.Num
                  (float_of_int
                     (match t.batcher with
                     | Some b -> Batcher.pending b
                     | None -> 0)) );
              ("bound", Json.Num (float_of_int t.cfg.queue_bound))
            ] );
        ("open_circuits", Json.Num (float_of_int (open_circuits t)));
        ("recovered_at_startup", Json.Num (float_of_int t.recovered));
        ( "draining",
          Json.Bool
            (Analysis.Sync.lock t.drain_m ;
             let d = t.draining in
             Analysis.Sync.unlock t.drain_m ;
             d) );
        ( "active",
          Json.Num
            (float_of_int
               (Analysis.Sync.lock t.drain_m ;
                let a = t.active in
                Analysis.Sync.unlock t.drain_m ;
                a)) )
      ]
  in
  match metrics with
  | Json.Obj fields -> Json.Obj (fields @ [ ("server", server) ])
  | other -> Json.Obj [ ("metrics", other); ("server", server) ]

let request_stop t = Listener.request_stop t.listener

(* ---- graceful drain ---- *)

let is_draining t =
  Analysis.Sync.lock t.drain_m ;
  let d = t.draining in
  Analysis.Sync.unlock t.drain_m ;
  d

let enter_score t =
  Analysis.Sync.lock t.drain_m ;
  t.active <- t.active + 1 ;
  Analysis.Sync.unlock t.drain_m

let exit_score t =
  Analysis.Sync.lock t.drain_m ;
  t.active <- t.active - 1 ;
  Analysis.Sync.unlock t.drain_m

let request_drain t =
  Analysis.Sync.lock t.drain_m ;
  t.draining <- true ;
  Analysis.Sync.unlock t.drain_m

let cancel_drain t =
  Analysis.Sync.lock t.drain_m ;
  let was = t.draining in
  t.draining <- false ;
  Analysis.Sync.unlock t.drain_m ;
  was

(* Watch for a drain to complete: the server stops once it has been
   draining with an empty queue and no in-flight score for ~8
   consecutive 25ms polls — the grace window is what makes an undrain
   racing the last request safe (and cheap to test). *)
let drain_watcher t =
  let idle = ref 0 in
  let rec loop () =
    if Listener.stopping t.listener then ()
    else begin
      Thread.delay 0.025 ;
      Analysis.Sync.lock t.drain_m ;
      let draining = t.draining and active = t.active in
      Analysis.Sync.unlock t.drain_m ;
      let pending =
        match t.batcher with Some b -> Batcher.pending b | None -> 0
      in
      if draining && active = 0 && pending = 0 then incr idle else idle := 0 ;
      if !idle >= 8 then request_stop t else loop ()
    end
  in
  loop ()

let handle_score t ~model ~target ~deadline_ms =
  let t0 = now () in
  let err code message =
    Metrics.record_error t.metrics ~code ;
    Protocol.error ~code ~message
  in
  match Registry.resolve ~dir:t.cfg.registry model with
  | Error msg -> err "unknown_model" msg
  | Ok entry -> (
    let id = entry.Registry.id in
    match load_model t id with
    | Error msg -> err "unknown_model" msg
    | Ok (_, manifest) -> (
      let d = manifest.Registry.feature_dim in
      let op, validated =
        match target with
        | Protocol.Rows rows ->
          ( "score_rows",
            if Array.exists (fun r -> Array.length r <> d) rows then
              Error
                (Printf.sprintf "every row must have %d features (model %s)" d id)
            else
              Ok
                ( { bk_model = id; bk_dataset = None; bk_where = None },
                  P_rows rows ) )
        | Protocol.Dataset { dataset; ids } ->
          ( "score_ids",
            Ok
              ( { bk_model = id; bk_dataset = Some dataset; bk_where = None },
                P_ids ids ) )
        | Protocol.Dataset_where { dataset; where } ->
          (* the canonical predicate string is the fusion key: equal
             filters batch into one mask + select_rows + score *)
          ( "score_where",
            Ok
              ( { bk_model = id;
                  bk_dataset = Some dataset;
                  bk_where = Some (Pred.to_string where)
                },
                P_where where ) )
      in
      match validated with
      | Error msg -> err "bad_request" msg
      | Ok (key, payload) -> (
        let deadline =
          match
            (deadline_ms, t.cfg.default_deadline_ms)
          with
          | Some ms, _ | None, Some ms -> Some (t0 +. (ms /. 1e3))
          | None, None -> None
        in
        let batcher =
          match t.batcher with Some b -> b | None -> assert false
        in
        let submitted =
          enter_score t ;
          match Batcher.submit batcher ?deadline key payload with
          | r ->
            exit_score t ;
            r
          | exception e ->
            exit_score t ;
            raise e
        in
        match submitted with
        | Ok preds ->
          Metrics.record t.metrics ~op ~seconds:(now () -. t0) ;
          Protocol.ok
            [ ("model", Json.Str id);
              ( "predictions",
                Json.Arr (Array.to_list preds |> List.map (fun x -> Json.Num x))
              )
            ]
        | Error e ->
          (* the batcher already recorded the error code *)
          let message =
            match e with
            | Batcher.Overloaded -> "queue full, request shed"
            | Batcher.Deadline_exceeded -> "deadline passed while queued"
            | Batcher.Expired ->
              "deadline cannot be met within the remaining budget"
            | Batcher.Rejected msg -> msg
          in
          Protocol.error ~code:(Batcher.error_code e) ~message)))

let handle_request t req =
  match req with
  | Protocol.Ping ->
    Metrics.record t.metrics ~op:"ping" ~seconds:0.0 ;
    Protocol.ok [ ("pong", Json.Bool true) ]
  | Protocol.List_models ->
    let t0 = now () in
    let entries = Registry.list ~dir:t.cfg.registry in
    Metrics.record t.metrics ~op:"list" ~seconds:(now () -. t0) ;
    Protocol.ok [ ("models", Json.Arr (List.map manifest_json entries)) ]
  | Protocol.Stats ->
    Metrics.record t.metrics ~op:"stats" ~seconds:0.0 ;
    Protocol.ok [ ("stats", stats t) ]
  | Protocol.Health ->
    Metrics.record t.metrics ~op:"health" ~seconds:0.0 ;
    let open_c = open_circuits t in
    let draining = is_draining t in
    let status =
      if draining then "draining" else if open_c = 0 then "ok" else "degraded"
    in
    Protocol.ok
      [ ("status", Json.Str status);
        ("draining", Json.Bool draining);
        ("open_circuits", Json.Num (float_of_int open_c));
        ( "handler_restarts",
          Json.Num (float_of_int (Metrics.restarts t.metrics)) );
        ("uptime_s", Json.Num (now () -. t.started))
      ]
  | Protocol.Drain _ ->
    (* the shard argument is the router's concern; to a server a drain
       is always about itself *)
    Metrics.record t.metrics ~op:"drain" ~seconds:0.0 ;
    request_drain t ;
    Protocol.ok [ ("draining", Json.Bool true) ]
  | Protocol.Undrain _ ->
    Metrics.record t.metrics ~op:"undrain" ~seconds:0.0 ;
    if Listener.stopping t.listener then
      Protocol.error ~code:"rejected"
        ~message:"drain already completed, server is stopping"
    else begin
      let was = cancel_drain t in
      Protocol.ok [ ("draining", Json.Bool false); ("was_draining", Json.Bool was) ]
    end
  | Protocol.Membership ->
    Metrics.record t.metrics ~op:"membership" ~seconds:0.0 ;
    Analysis.Sync.lock t.drain_m ;
    let draining = t.draining and active = t.active in
    Analysis.Sync.unlock t.drain_m ;
    Protocol.ok
      [ ("role", Json.Str "server");
        ("status", Json.Str (if draining then "draining" else "ok"));
        ("active", Json.Num (float_of_int active));
        ( "pending",
          Json.Num
            (float_of_int
               (match t.batcher with
               | Some b -> Batcher.pending b
               | None -> 0)) )
      ]
  | Protocol.Shutdown ->
    Metrics.record t.metrics ~op:"shutdown" ~seconds:0.0 ;
    request_stop t ;
    Protocol.ok [ ("stopping", Json.Bool true) ]
  | Protocol.Score { model; target; deadline_ms } ->
    handle_score t ~model ~target ~deadline_ms

(* ---- lifecycle ---- *)

let start cfg =
  if cfg.cache_capacity < 1 then invalid_arg "Server.start: cache_capacity < 1" ;
  (* quarantine crash litter before anything reads the registry *)
  let recovered = List.length (Registry.recover ~dir:cfg.registry) in
  let metrics = Metrics.create () in
  let t =
    { cfg;
      metrics;
      listener = Listener.create ~metrics cfg.socket;
      models = Hashtbl.create 8;
      model_m = Analysis.Sync.create ~name:"serve.server.models" ();
      datasets =
        Dataset_cache.create ~capacity:cfg.cache_capacity ~load:(fun path ->
            let tn = Io.load ~dir:path in
            (tn, Registry.schema_hash tn));
      batcher = None;
      breakers = Hashtbl.create 8;
      breaker_m = Analysis.Sync.create ~name:"serve.server.breakers" ();
      recovered;
      drain_m = Analysis.Sync.create ~name:"serve.server.drain" ();
      draining = false;
      active = 0;
      drain_thread = None;
      started = now ()
    }
  in
  t.batcher <-
    Some
      (Batcher.create ~max_batch:cfg.max_batch ~max_wait:cfg.max_wait
         ~queue_bound:cfg.queue_bound ~metrics:t.metrics ~size:payload_rows
         ~exec:(exec_batch t) ()) ;
  Listener.start t.listener (fun ~arrived:_ req -> handle_request t req) ;
  t.drain_thread <- Some (Thread.create drain_watcher t) ;
  t

let wait t = Listener.wait t.listener
let metrics t = t.metrics
let endpoint t = Listener.endpoint t.listener

let stop t =
  request_stop t ;
  Option.iter Thread.join t.drain_thread ;
  t.drain_thread <- None ;
  (* the connections close before the batcher stops: a connection
     blocked in Batcher.submit still gets its answer *)
  Listener.stop t.listener ;
  match t.batcher with Some b -> Batcher.stop b | None -> ()

let run cfg =
  let t = start cfg in
  let stop_signal _ = request_stop t in
  let old_int = Sys.signal Sys.sigint (Sys.Signal_handle stop_signal) in
  let old_term =
    (* --drain-on sigterm: the orchestrator's TERM starts a graceful
       drain (health answers "draining", the queue finishes, then the
       server stops on its own); INT still stops immediately *)
    if cfg.drain_on_term then
      Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> request_drain t))
    else Sys.signal Sys.sigterm (Sys.Signal_handle stop_signal)
  in
  Fmt.pr "morpheus serve: registry %s, listening on %s (batch ≤ %d / %gms)@."
    cfg.registry
    (Endpoint.to_string (endpoint t))
    cfg.max_batch (1e3 *. cfg.max_wait) ;
  if t.recovered > 0 then
    Fmt.pr "morpheus serve: quarantined %d crash-litter entries from the registry@."
      t.recovered ;
  wait t ;
  stop t ;
  Sys.set_signal Sys.sigint old_int ;
  Sys.set_signal Sys.sigterm old_term ;
  Fmt.pr "@.-- serving metrics --@.%s@." (Metrics.summary t.metrics)
