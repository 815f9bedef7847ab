(* The serving workloads: real `morpheus serve` (and `morpheus route`)
   processes, started with their CLI defaults, driven by the generator
   threads over keep-alive connections held for the whole workload.

   Phase order: set-up (cold starts), warm-up, open loop, closed loop,
   traced phase, check. *)

open La
open Morpheus
open Morpheus_serve

type spec = {
  name : string;
  ns : int;
  ds : int;
  nr : int;
  dr : int;
  rate : float;  (** open-loop arrivals per second *)
  publish : bool;  (** worker 0 saves a new version of the model every 2 s *)
  shards : int;  (** 0: the generator talks to one server directly *)
}

let specs ~smoke =
  let ns = if smoke then 20_000 else 100_000 in
  [ { name = "serve-light"; ns; ds = 5; nr = 50; dr = 10; rate = 300.0;
      publish = true; shards = 0 };
    { name = "serve-heavy"; ns; ds = 5; nr = (if smoke then 500 else 2000);
      dr = (if smoke then 100 else 200); rate = 150.0; publish = false;
      shards = 0 };
    { name = "routed"; ns; ds = 5; nr = 50; dr = 10; rate = 150.0;
      publish = false; shards = 2 }
  ]

let model = "m"
let ids_per_request = 8
let publish_every = 2.0

(* A response naming a version superseded by a save that returned at
   least this long before the request was sent is stale. *)
let stale_after = 1.0

(* One connection per generator thread, at most one thread per core. *)
let workers = max 1 (min 2 (Domain.recommended_domain_count ()))

let now = Workload.Timing.now
let clock = Loadgen.real_clock

type reply = Scored of { model : string; preds : float array } | Failed of string

(* worker, ids, reply *)
type sample = (int * int array * reply) Loadgen.sample

type ctx = {
  spec : spec;
  res : Report.result;
  trace : Chrome_trace.t;
  t : Normalized.t;
  dataset : string;  (** the saved dataset, as the servers name it *)
  reg : string;
  rng : Rng.t;
  artifacts : (string, Artifact.t) Hashtbl.t;  (** every saved version *)
  mutable published : (int * float) list;  (** version, when its save returned *)
  mutable saves : float list;  (** seconds per Registry.save *)
  mutable next_publish : float;
  mutable conns : Client.t array;
  mutable checked : sample list;  (** every phase's samples, for the check *)
  pings : float list array;  (** per worker: traced ping round trips *)
}

(* ---- talking to the servers ---- *)

let score_request ctx ids =
  Protocol.Score
    { model; target = Protocol.Dataset { dataset = ctx.dataset; ids }; deadline_ms = None }

let score ctx conn ids =
  match Client.call conn (score_request ctx ids) with
  | Error (code, msg) -> Failed (Printf.sprintf "[%s] %s" code msg)
  | Ok j -> (
    match
      ( Option.bind (Json.member "model" j) Json.to_str,
        Option.bind (Json.member "predictions" j) Json.float_list )
    with
    | Some m, Some ps when List.length ps = Array.length ids ->
      Scored { model = m; preds = Array.of_list ps }
    | _ -> Failed "malformed score response")

let num path j =
  List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) path
  |> Fun.flip Option.bind Json.to_float
  |> Option.value ~default:0.0

let stats_of = function
  | Ok j -> (
    match Json.member "stats" j with
    | Some s -> s
    | None -> failwith "stats response without stats")
  | Error (code, msg) -> failwith (Printf.sprintf "stats failed: [%s] %s" code msg)

(* ---- the model and its versions ---- *)

let save_model ctx =
  let d = Normalized.cols ctx.t in
  let art = Artifact.Logreg (Dense.gaussian ~rng:ctx.rng d 1) in
  let t0 = now () in
  let entry =
    Registry.save ~dir:ctx.reg ~name:model ~schema_hash:(Registry.schema_hash ctx.t) art
  in
  let t1 = now () in
  Chrome_trace.span ctx.trace ~name:"Registry.save" ~cat:"registry" ~tid:0 ~start:t0
    ~stop:t1 ()
  |> ignore ;
  Hashtbl.replace ctx.artifacts entry.Registry.id art ;
  ctx.saves <- (t1 -. t0) :: ctx.saves ;
  ctx.published <- (entry.Registry.manifest.Registry.version, t1) :: ctx.published

(* Worker 0 publishes between its requests: the registry keeps moving
   while it is read. *)
let between ctx w =
  if w = 0 && ctx.spec.publish && now () >= ctx.next_publish then begin
    save_model ctx ;
    ctx.next_publish <- ctx.next_publish +. publish_every
  end

(* ---- set-up ---- *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path) ;
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let sock ctx name = Filename.concat ctx.spec.name (name ^ ".sock")
let log ctx name = Filename.concat ctx.spec.name (name ^ ".log")

let spawn_server ~cli ctx name =
  Procs.spawn ~cli ~log:(log ctx name)
    [ "serve"; "--registry"; ctx.reg; "--socket"; sock ctx name ]

(* Spawn the processes and wait for the first OK score through the
   front endpoint. Returns the pids, the front endpoint, the connection
   that scored (it becomes generator connection 0) and the seconds that
   took. *)
let cold_start ~cli ctx =
  let t0 = now () in
  let pids, front =
    if ctx.spec.shards = 0 then ([ spawn_server ~cli ctx "server" ], sock ctx "server")
    else begin
      let names = List.init ctx.spec.shards (Printf.sprintf "s%d") in
      let shard_pids = List.map (spawn_server ~cli ctx) names in
      List.iter
        (fun n -> Client.close (Procs.await_healthy ~now ~socket:(sock ctx n)))
        names ;
      let router =
        Procs.spawn ~cli ~log:(log ctx "router")
          ([ "route"; "--listen"; sock ctx "router" ]
          @ List.concat_map (fun n -> [ "--shard"; n ^ "=" ^ sock ctx n ]) names)
      in
      (router :: shard_pids, sock ctx "router")
    end
  in
  let c = Procs.await_healthy ~now ~socket:front in
  (* one id in every 64-row block, the router's default placement unit:
     behind a router this first score loads the dataset on every shard *)
  let ids = Array.init ((ctx.spec.ns + 63) / 64) (fun b -> 64 * b) in
  (match score ctx c ids with
  | Scored _ -> ()
  | Failed msg -> failwith ("first score failed: " ^ msg)) ;
  (pids, front, c, now () -. t0)

(* ---- server-side counters ---- *)

(* Latency enters as a sum (count × mean), so a phase's mean is an exact
   difference of two snapshots. Histogram quantiles cannot be
   differenced, and read off bucket upper edges they overstate by up
   to 19 %. *)
type counters = {
  n : float;  (** score_ids requests *)
  sum : float;  (** their server-side seconds *)
  batches : float;
  batched : float;  (** requests inside those batches *)
  hits : float;
  misses : float;
}

let counters stats =
  let batches = num [ "batches"; "count" ] stats in
  let n = num [ "ops"; "score_ids"; "count" ] stats in
  { n;
    sum = n *. num [ "ops"; "score_ids"; "latency"; "mean_s" ] stats;
    batches;
    batched = Float.round (batches *. num [ "batches"; "mean_requests" ] stats);
    hits = num [ "dataset_cache"; "hits" ] stats;
    misses = num [ "dataset_cache"; "misses" ] stats
  }

type snapshot = {
  servers : counters list;
  router : (counters * float * float) option;  (** with scattered, subrequests *)
}

(* The front's stats go over generator connection 0; shards behind a
   router are asked directly, on short connections. *)
let snapshot ctx =
  let front = stats_of (Client.call ctx.conns.(0) Protocol.Stats) in
  if ctx.spec.shards = 0 then { servers = [ counters front ]; router = None }
  else
    { servers =
        List.init ctx.spec.shards (fun i ->
            counters
              (stats_of
                 (Client.with_client
                    ~socket:(sock ctx (Printf.sprintf "s%d" i))
                    (fun c -> Client.call c Protocol.Stats))));
      router =
        Some
          ( counters front,
            num [ "cluster"; "scattered" ] front,
            num [ "cluster"; "subrequests" ] front )
    }

let hit_rate (a : snapshot) (b : snapshot) =
  let sum f = List.fold_left ( +. ) 0.0 (List.map f b.servers) -. List.fold_left ( +. ) 0.0 (List.map f a.servers) in
  let hits = sum (fun c -> c.hits) and misses = sum (fun c -> c.misses) in
  if hits +. misses = 0.0 then 1.0 else hits /. (hits +. misses)

(* Shards the router no longer counts as active. *)
let ejections ctx =
  match Client.call ctx.conns.(0) Protocol.Membership with
  | Ok j -> (
    match Json.member "members" j with
    | Some (Json.Obj members) ->
      List.length
        (List.filter
           (fun (_, m) -> Option.bind (Json.member "state" m) Json.to_str <> Some "active")
           members)
    | _ -> failwith "membership response without members")
  | Error (code, msg) -> failwith (Printf.sprintf "membership failed: [%s] %s" code msg)

(* ---- phases ---- *)

let account ctx (samples : sample array) =
  ctx.res.attempted <- ctx.res.attempted + Array.length samples ;
  Array.iter
    (fun (s : sample) ->
      match s.result with
      | _, _, Failed _ -> ctx.res.failed <- ctx.res.failed + 1
      | _ -> ())
    samples ;
  ctx.checked <- Array.to_list samples @ ctx.checked

let ms_latencies (samples : sample array) =
  Array.map
    (fun (s : sample) ->
      match s.result with
      | _, _, Scored _ -> 1e3 *. Loadgen.latency s
      | _, _, Failed _ -> Float.infinity)
    samples

let ping ctx w =
  let t0 = now () in
  let r = Client.call ctx.conns.(w) Protocol.Ping in
  let t1 = now () in
  ctx.res.attempted <- ctx.res.attempted + 1 ;
  match r with
  | Ok _ ->
    ctx.pings.(w) <- (t1 -. t0) :: ctx.pings.(w) ;
    ignore
      (Chrome_trace.span ctx.trace ~name:"Client.call ping" ~cat:"endpoint" ~tid:w
         ~start:t0 ~stop:t1 ())
  | Error _ -> ctx.res.failed <- ctx.res.failed + 1

(* Poisson arrivals at the workload's rate, 8 uniform ids each. In the
   traced phase every tenth score is followed by a ping on the same
   connection. *)
let open_phase ctx ~seed ~duration ~traced =
  let offsets = Poisson.schedule ~seed ~rate:ctx.spec.rate ~duration in
  let rng = Rng.of_int (seed + 1) in
  let idsets =
    Array.map (fun _ -> Array.init ids_per_request (fun _ -> Rng.int rng ctx.spec.ns)) offsets
  in
  let ping_due = Array.make workers false in
  let between w =
    between ctx w ;
    if ping_due.(w) then begin
      ping_due.(w) <- false ;
      ping ctx w
    end
  in
  let samples =
    Loadgen.open_loop clock ~workers ~start:(now ()) ~offsets ~between (fun w i ->
        if traced && i mod 10 = 0 then ping_due.(w) <- true ;
        (w, idsets.(i), score ctx ctx.conns.(w) idsets.(i)))
  in
  account ctx samples ;
  samples

(* Returns OK responses per second. *)
let closed_phase ctx ~seed ~duration =
  let rngs = Array.init workers (fun w -> Rng.of_int (seed + w)) in
  let t0 = now () in
  let samples =
    Loadgen.closed_loop clock ~workers ~until:(t0 +. duration) ~between:(between ctx)
      (fun w _ ->
        let ids = Array.init ids_per_request (fun _ -> Rng.int rngs.(w) ctx.spec.ns) in
        (w, ids, score ctx ctx.conns.(w) ids))
  in
  let elapsed = now () -. t0 in
  account ctx samples ;
  let ok =
    Array.fold_left
      (fun acc (s : sample) -> match s.result with _, _, Scored _ -> acc + 1 | _ -> acc)
      0 samples
  in
  float_of_int ok /. elapsed

(* ---- per-layer numbers ---- *)

let time f =
  let t0 = now () in
  ignore (Sys.opaque_identity (f ())) ;
  now () -. t0

let median_us f xs = 1e6 *. Stats.median (Array.map (fun x -> time (fun () -> f x)) xs)

(* Replay the traced phase's frames and id sets through the layer
   functions, one span per layer. *)
let replay ctx (samples : sample array) =
  let scored =
    Array.to_list samples
    |> List.filter_map (fun (s : sample) ->
           match s.result with
           | _, ids, Scored { model; preds } -> Some (ids, model, preds)
           | _ -> None)
    |> List.filteri (fun i _ -> i < 200)
    |> Array.of_list
  in
  let layer name cat f =
    Chrome_trace.with_span ctx.trace ~now ~name ~cat ~tid:10 (fun _ -> f ())
  in
  let frames =
    Array.map (fun (ids, _, _) -> Json.to_string (Protocol.request_to_json (score_request ctx ids))) scored
  in
  let decode =
    layer "replay Json.of_string + request_of_json" "json" (fun () ->
        median_us
          (fun f -> Result.map Protocol.request_of_json (Json.of_string f))
          frames)
  in
  let responses =
    Array.map
      (fun (_, model, preds) ->
        Protocol.ok
          [ ("model", Json.Str model);
            ("predictions", Json.Arr (Array.to_list (Array.map (fun x -> Json.Num x) preds)))
          ])
      scored
  in
  let encode = layer "replay Json.to_string" "json" (fun () -> median_us Json.to_string responses) in
  let resolve =
    layer "replay Registry.resolve" "registry" (fun () ->
        median_us (fun () -> Registry.resolve ~dir:ctx.reg model) (Array.make 200 ()))
  in
  let art =
    match Registry.resolve ~dir:ctx.reg model with
    | Ok e -> Hashtbl.find ctx.artifacts e.Registry.id
    | Error msg -> failwith msg
  in
  let idsets = Array.map (fun (ids, _, _) -> ids) scored in
  let select =
    layer "replay Normalized.select_rows" "core" (fun () ->
        median_us (Normalized.select_rows ctx.t) idsets)
  in
  let selections = Array.map (Normalized.select_rows ctx.t) idsets in
  let score =
    layer "replay Artifact.score_normalized" "artifact" (fun () ->
        median_us (Artifact.score_normalized art) selections)
  in
  let _, flops = Flops.count (fun () -> Artifact.score_normalized art selections.(0)) in
  Report.set ctx.res "json.decode_us" decode ;
  Report.set ctx.res "json.encode_us" encode ;
  Report.set ctx.res "registry.resolve_us" resolve ;
  Report.set ctx.res "core.select_rows_us" select ;
  Report.set ctx.res "artifact.score_us" score ;
  Report.set ctx.res "la.score_flops" flops

let record_spans ctx (samples : sample array) =
  Array.iter
    (fun (s : sample) ->
      let w, _, _ = s.result in
      let id = Chrome_trace.fresh_id ctx.trace in
      ignore
        (Chrome_trace.span ctx.trace ~parent:id ~name:"Client.call score" ~cat:"client"
           ~tid:w ~start:s.sent ~stop:s.finished ()) ;
      Chrome_trace.add ctx.trace ~id ~name:"score request (from due time)" ~cat:"loadgen"
        ~tid:w ~start:s.due ~stop:s.finished ())
    samples

(* Seconds per request between two snapshots of one process. *)
let mean_s (a : counters) (b : counters) = (b.sum -. a.sum) /. (b.n -. a.n)

(* The traced phase and the numbers derived from it. The attribution
   subtracts means, which add up exactly; [client.rtt_us] is the p50,
   the traced twin of the untraced open loop's p50. *)
let traced_phase ctx ~seed ~duration ~untraced_p50_ms =
  let before = snapshot ctx in
  let t0 = now () in
  let samples = open_phase ctx ~seed ~duration ~traced:true in
  let elapsed = now () -. t0 in
  let after = snapshot ctx in
  record_spans ctx samples ;
  replay ctx samples ;
  let set = Report.set ctx.res and get = Report.get ctx.res in
  let rtts =
    Array.to_list samples
    |> List.filter_map (fun (s : sample) ->
           match s.result with _, _, Scored _ -> Some (s.finished -. s.sent) | _ -> None)
    |> Array.of_list
  in
  set "client.rtt_us" (1e6 *. Stats.median rtts) ;
  set "client.rtt_mean_us" (1e6 *. Stats.sum rtts /. float_of_int (Array.length rtts)) ;
  set "trace.overhead_us" (get "client.rtt_us" -. (1e3 *. untraced_p50_ms)) ;
  set "endpoint.ping_us" (1e6 *. Stats.median (Array.of_list (List.concat (Array.to_list ctx.pings)))) ;
  (* behind a router: the slower shard *)
  let server_mean =
    List.fold_left2 (fun acc a b -> Float.max acc (mean_s a b)) 0.0 before.servers after.servers
  in
  set "server.score_mean_us" (1e6 *. server_mean) ;
  set "server.transport_us" (get "client.rtt_mean_us" -. get "server.score_mean_us") ;
  set "serve.unattributed_us"
    (get "server.transport_us"
    -. (get "endpoint.ping_us" +. get "json.decode_us" +. get "json.encode_us")) ;
  set "batcher.wait_us"
    (get "server.score_mean_us"
    -. (get "registry.resolve_us" +. get "core.select_rows_us" +. get "artifact.score_us")) ;
  let delta f = List.fold_left2 (fun acc a b -> acc +. f b -. f a) 0.0 before.servers after.servers in
  let batches = delta (fun c -> c.batches) in
  set "batcher.mean_requests" (delta (fun c -> c.batched) /. batches) ;
  set "batcher.batches_per_s" (batches /. elapsed) ;
  set "dataset_cache.hit_rate" (hit_rate before after) ;
  match (before.router, after.router) with
  | Some (a, sc_a, sub_a), Some (b, sc_b, sub_b) ->
    let requests = b.n -. a.n and scattered = sc_b -. sc_a in
    set "router.score_mean_us" (1e6 *. mean_s a b) ;
    set "router.overhead_us" (1e6 *. (mean_s a b -. server_mean)) ;
    (* a request that is not scattered goes whole to one shard *)
    set "router.subrequests_per_request" ((sub_b -. sub_a +. requests -. scattered) /. requests)
  | _ -> ()

(* ---- the check ---- *)

let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
let bits_equal a b = Array.length a = Array.length b && Array.for_all2 same_bits a b

let version_of id =
  match String.split_on_char '@' id with
  | [ _; v ] when String.length v > 1 && v.[0] = 'v' -> int_of_string_opt (String.sub v 1 (String.length v - 1))
  | _ -> None

(* Every served response against one fused factorized scoring per model
   id; stale responses; every saved version through Registry.load. *)
let check ctx =
  let by_model = Hashtbl.create 8 in
  List.iter
    (fun (s : sample) ->
      match s.result with
      | _, ids, Scored { model; preds } ->
        Hashtbl.replace by_model model
          ((ids, preds) :: Option.value ~default:[] (Hashtbl.find_opt by_model model))
      | _ -> ())
    ctx.checked ;
  Hashtbl.iter
    (fun id replies ->
      match Hashtbl.find_opt ctx.artifacts id with
      | None -> Report.problem ctx.res (Printf.sprintf "response names unknown model %s" id)
      | Some art ->
        let ids = Array.concat (List.map fst replies) in
        let expected = Artifact.score_normalized art (Normalized.select_rows ctx.t ids) in
        let got = Array.concat (List.map snd replies) in
        let wrong = ref 0 in
        Array.iteri (fun i e -> if not (same_bits e got.(i)) then incr wrong) expected ;
        Report.require ctx.res (!wrong = 0)
          (Printf.sprintf "%d of %d predictions of %s differ from the reference" !wrong
             (Array.length expected) id))
    by_model ;
  let stale =
    List.length
      (List.filter
         (fun (s : sample) ->
           match s.result with
           | _, _, Scored { model; _ } ->
             let v = Option.value ~default:0 (version_of model) in
             List.exists (fun (v', at) -> v' > v && at +. stale_after <= s.sent) ctx.published
           | _ -> false)
         ctx.checked)
  in
  if stale > 0 then Printf.eprintf "%s: %d stale responses\n%!" ctx.spec.name stale ;
  ctx.res.failed <- ctx.res.failed + stale ;
  Hashtbl.iter
    (fun id art ->
      match (Registry.load ~dir:ctx.reg id, art) with
      | Ok (Artifact.Logreg w', _), Artifact.Logreg w ->
        Report.require ctx.res
          (bits_equal (Dense.data w) (Dense.data w'))
          (id ^ " changed through Registry.load")
      | Ok _, _ -> Report.problem ctx.res (id ^ " loaded as another kind")
      | Error msg, _ -> Report.problem ctx.res (id ^ ": " ^ msg))
    ctx.artifacts

(* ---- the workload ---- *)

let run ~cli ~seed ~(phases : Report.phases) ~(mode : Report.mode) spec =
  let res = Report.create spec.name in
  let trace = Chrome_trace.create ~origin:(now ()) in
  rm_rf spec.name ;
  Sys.mkdir spec.name 0o755 ;
  let data =
    Workload.Synthetic.pkfk ~seed ~ns:spec.ns ~ds:spec.ds ~nr:spec.nr ~dr:spec.dr ()
  in
  let ctx =
    { spec;
      res;
      trace;
      t = data.Workload.Synthetic.t;
      dataset = Filename.concat spec.name "ds";
      reg = Filename.concat spec.name "reg";
      rng = Rng.of_int (seed + 11);
      artifacts = Hashtbl.create 32;
      published = [];
      saves = [];
      next_publish = 0.0;
      conns = [||];
      checked = [];
      pings = Array.make workers []
    }
  in
  Io.save ~dir:ctx.dataset ctx.t ;
  save_model ctx ;
  (* the generator's own collector should not run on input garbage
     while it times requests *)
  Gc.compact () ;
  let pids = ref [] in
  let close () =
    Array.iter Client.close ctx.conns ;
    List.iter Procs.stop !pids
  in
  Fun.protect ~finally:close @@ fun () ->
  let starts = if mode.e2e then phases.cold_starts else 1 in
  let setup =
    Array.init starts (fun _ ->
        Array.iter Client.close ctx.conns ;
        List.iter Procs.stop !pids ;
        let p, front, c, dt =
          Chrome_trace.with_span trace ~now ~name:"cold start" ~cat:"setup" ~tid:0
            (fun _ -> cold_start ~cli ctx)
        in
        pids := p ;
        ctx.conns <- [| c |] ;
        (front, dt))
  in
  let front = fst setup.(0) in
  Report.set res "setup_s" (Stats.median (Array.map snd setup)) ;
  ctx.conns <-
    Array.init workers (fun w -> if w = 0 then ctx.conns.(0) else Client.connect ~socket:front) ;
  ctx.next_publish <- now () +. publish_every ;
  let after_setup = snapshot ctx in
  let untraced =
    if mode.e2e then begin
      ignore (open_phase ctx ~seed:(seed + 100) ~duration:phases.warmup ~traced:false) ;
      let samples = open_phase ctx ~seed:(seed + 200) ~duration:phases.open_loop ~traced:false in
      let lat = ms_latencies samples in
      Report.set res "latency_p50_ms" (Stats.median lat) ;
      Report.set res "latency_p90_ms" (Stats.percentile 90.0 lat) ;
      Report.set res "throughput_per_s"
        (closed_phase ctx ~seed:(seed + 300) ~duration:phases.closed_loop) ;
      samples
    end
    else
      (* the untraced reference for the tracing overhead *)
      open_phase ctx ~seed:(seed + 200) ~duration:phases.traced ~traced:false
  in
  let untraced_ms = ms_latencies untraced in
  if mode.layers then
    traced_phase ctx ~seed:(seed + 400) ~duration:phases.traced
      ~untraced_p50_ms:(Stats.median untraced_ms) ;
  Report.set res "diag.score_p99_ms" (Stats.percentile 99.0 untraced_ms) ;
  Report.set res "loadgen.late_p99_ms"
    (Stats.percentile 99.0 (Array.map (fun s -> 1e3 *. Loadgen.lateness s) untraced)) ;
  Report.require res (hit_rate after_setup (snapshot ctx) = 1.0)
    "dataset cache missed after set-up" ;
  if spec.shards > 0 then begin
    let ejected = ejections ctx in
    Report.set res "router.ejections" (float_of_int ejected) ;
    Report.require res (ejected = 0) (Printf.sprintf "%d shards were ejected" ejected)
  end ;
  Report.set res "rss_mb"
    (List.fold_left (fun acc pid -> acc +. Procs.peak_rss_mb (string_of_int pid)) 0.0 !pids) ;
  Report.set res "registry.versions" (float_of_int (List.length (Registry.list ~dir:ctx.reg))) ;
  Report.set res "registry.save_ms" (1e3 *. Stats.median (Array.of_list ctx.saves)) ;
  check ctx ;
  if mode.layers then Chrome_trace.write trace (Filename.concat spec.name "trace.json") ;
  res
