(* The router process. Data path of a routed score request:

     Listener connection thread: read frame → deadline admission
       (remaining budget after queue time, shed with `expired` if
       overdrawn) → routing key from (model, dataset[, id blocks]) →
       owner shard(s) via the ring
     forward: a kept-alive connection from the shard's idle set,
       circuit breaker per shard, failover to the next
       distinct shard in ring order on transport failure; a request
       with a deadline is bounded by the budget it has left
     scatter-gather: an id-set spanning shards is split per owner,
       the pieces are scored one after another — every piece after the
       first names the model version the first one resolved — and
       reassembled in original id order, bitwise-identical to a single
       server because per-row predictions are batch-invariant

   Control plane: a prober thread issues periodic health calls per
   shard and maintains dynamic membership — consecutive probe failures
   raise suspicion (Active → Suspect → Ejected, the shard leaves the
   ring with minimal key movement), sustained recovery rejoins it, and
   the drain/undrain ops take a shard out gracefully without a single
   failed request.

   The router runs no LA kernels and touches no model or dataset
   state; connection threads share only the counters, the membership
   and each shard's idle connections. *)

open Morpheus_serve

type config = {
  listen : string;
  shards : (string * string) list;
  vnodes : int;
  block : int;
  breaker_threshold : int;
  breaker_cooldown : float;
  probe_interval : float;
  probe_timeout : float;
  eject_after : int;
  rejoin_after : int;
}

let default_config ~listen ~shards =
  { listen;
    shards;
    vnodes = Ring.default_vnodes;
    block = 64;
    breaker_threshold = 3;
    breaker_cooldown = 1.0;
    probe_interval = 0.25;
    probe_timeout = 1.0;
    eject_after = 3;
    rejoin_after = 2
  }

(* Kept in forwarding order; `morpheus lint` (E208) cross-checks this
   list against the routed-operations table in docs/SERVING.md. *)
let routed_op_names = [ "score"; "score_where"; "score_ids"; "health"; "stats" ]

(* ---- membership ---- *)

type member_state = Active | Suspect | Draining | Ejected

let state_name = function
  | Active -> "active"
  | Suspect -> "suspect"
  | Draining -> "draining"
  | Ejected -> "ejected"

(* One record per configured shard. The list itself is immutable after
   start; [ms_idle] is guarded by [idle_m], the other mutable fields
   (and the ring) by [mem_m]. *)
type member = {
  ms_name : string;
  ms_endpoint : Endpoint.t;
  ms_breaker : Breaker.t;
  mutable ms_state : member_state;
  mutable ms_in_ring : bool;
  mutable ms_operator_drain : bool;  (* drains by op never auto-rejoin *)
  mutable ms_fails : int;  (* consecutive probe failures *)
  mutable ms_oks : int;  (* consecutive probe successes while out *)
  mutable ms_ewma : float;  (* probe latency ewma, seconds *)
  mutable ms_probes : int;
  mutable ms_ejects : int;
  mutable ms_idle : Client.t list;  (* kept-alive, no call in flight *)
}

type t = {
  cfg : config;
  metrics : Metrics.t;
  members : (string * member) list;
  mem_m : Analysis.Sync.t;  (* guards ring + mutable member fields *)
  idle_m : Analysis.Sync.t;  (* guards every [ms_idle]; never held across I/O *)
  mutable ring : Ring.t;
  listener : Listener.t;
  (* cluster counters *)
  state_m : Analysis.Sync.t;
  mutable forwarded : int;  (* requests sent whole to one shard *)
  mutable scattered : int;  (* requests split across shards *)
  mutable subrequests : int;  (* per-shard pieces of scattered requests *)
  mutable failovers : int;  (* forwards rerouted after a shard failure *)
  mutable breaker_skips : int;  (* shards skipped on an open circuit *)
  mutable expired : int;  (* requests shed at admission, deadline overdrawn *)
  per_shard_forwards : (string, int) Hashtbl.t;
  per_shard_errors : (string, int) Hashtbl.t;
  mutable prober_thread : Thread.t option;
  started : float;
}

let now () = Clock.wall ()
let member t shard = List.assoc shard t.members
let breaker t shard = (member t shard).ms_breaker

let count t f = Analysis.Sync.with_lock t.state_m f

let note_shard_forward t shard =
  count t (fun () ->
      Hashtbl.replace t.per_shard_forwards shard
        (1 + Option.value ~default:0 (Hashtbl.find_opt t.per_shard_forwards shard)))

let note_shard_error t shard =
  count t (fun () ->
      Hashtbl.replace t.per_shard_errors shard
        (1 + Option.value ~default:0 (Hashtbl.find_opt t.per_shard_errors shard)))

(* ring reads take a snapshot (Ring.t is immutable) so lookups and
   successor walks run without holding the membership lock *)
let ring_now t =
  Analysis.Sync.lock t.mem_m ;
  let r = t.ring in
  Analysis.Sync.unlock t.mem_m ;
  r

let in_ring_count_locked t =
  List.fold_left (fun n (_, m) -> if m.ms_in_ring then n + 1 else n) 0 t.members

(* Remove a member from the ring — minimal movement: only its keys
   move. Refused (no-op) for the last in-ring member: a ring must
   never be empty, a lone unhealthy shard is still the best option. *)
let leave_ring_locked t m =
  if m.ms_in_ring && in_ring_count_locked t > 1 then begin
    t.ring <- Ring.remove t.ring m.ms_name ;
    m.ms_in_ring <- false ;
    true
  end
  else not m.ms_in_ring

let join_ring_locked t m =
  if not m.ms_in_ring then begin
    t.ring <- Ring.add t.ring m.ms_name ;
    m.ms_in_ring <- true
  end

(* ---- forwarding over kept-alive connections ---- *)

let take_idle t m =
  Analysis.Sync.with_lock t.idle_m (fun () ->
      match m.ms_idle with
      | c :: rest ->
        m.ms_idle <- rest ;
        Some c
      | [] -> None)

let give_back t m c =
  Analysis.Sync.with_lock t.idle_m (fun () -> m.ms_idle <- c :: m.ms_idle)

(* One attempt against one shard, over a connection taken from its
   idle set (or a fresh one) and handed back if the shard answered, so
   shard connections scale with forwards in flight; [timeout] bounds
   this call's reads and writes. *)
let attempt_shard ?timeout t shard request =
  match Fault.point "router.forward" with
  | exception Fault.Injected p -> Error ("transport", "injected fault at " ^ p)
  | () ->
    let m = member t shard in
    let slot = ref (take_idle t m) in
    let r =
      Client.call_kept ~metrics:t.metrics ?timeout
        ~socket:(Endpoint.to_string m.ms_endpoint) slot request
    in
    (* a transport failure emptied the slot *)
    Option.iter (give_back t m) !slot ;
    r

(* Forward a request along a shard order (owner first, then the ring's
   failover successors). A shard answering — even with a protocol
   error — ends the walk: only transport-level failures and open
   breakers move on to the next shard.

   [due] is the instant a score request's client budget runs out. Each
   attempt then forwards the budget left as its [deadline_ms] and is
   bounded by it. A forward that runs it out answers
   [deadline_exceeded], tries no successor and records no breaker
   failure: a client's short budget says nothing about the shard, and
   the prober is what ejects a wedged one. *)
let forward_ordered ?due t order request =
  let spent () = match due with Some d -> now () >= d | None -> false in
  let out_of_budget =
    Error ("deadline_exceeded", "deadline passed while forwarding to a shard")
  in
  let rec go ~first = function
    | [] ->
      Error
        ( "unavailable",
          "no shard reachable (all circuits open or connections failing)" )
    | _ when spent () -> out_of_budget
    | shard :: rest ->
      let b = breaker t shard in
      if not (Breaker.allow b) then begin
        count t (fun () -> t.breaker_skips <- t.breaker_skips + 1) ;
        go ~first rest
      end
      else begin
        if not first then count t (fun () -> t.failovers <- t.failovers + 1) ;
        let timeout, request =
          match (due, request) with
          | Some d, Protocol.Score s ->
            (* a socket timeout that rounds to 0 would mean none *)
            let left = Float.max 1e-3 (d -. now ()) in
            (Some left, Protocol.Score { s with deadline_ms = Some (left *. 1e3) })
          | _ -> (None, request)
        in
        match attempt_shard ?timeout t shard request with
        | Error ("transport", _) when spent () ->
          Breaker.abandon b ;
          out_of_budget
        | Error ("transport", _) ->
          Breaker.failure b ;
          note_shard_error t shard ;
          go ~first:false rest
        | r ->
          Breaker.success b ;
          note_shard_forward t shard ;
          r
      end
  in
  go ~first:true order

let forward_by_key ?due t key request =
  count t (fun () -> t.forwarded <- t.forwarded + 1) ;
  forward_ordered ?due t (Ring.successors (ring_now t) key) request

let render = function
  | Ok j -> j
  | Error (code, message) -> Protocol.error ~code ~message

(* ---- scatter-gather over id sets ---- *)

let score_key ~model ~dataset = model ^ "|" ^ dataset

let block_key t ~model ~dataset id =
  Printf.sprintf "%s#%d" (score_key ~model ~dataset) (id / t.cfg.block)

(* Split ids by owning shard (original order preserved within each
   piece), score the pieces one after another on their owners, and
   reassemble the predictions into the original positions. The first
   piece to answer pins the model version: the rest name the id it
   resolved, so a publish between pieces cannot mix two versions
   into one response. The pieces share one [due]. Any failing piece
   fails the whole request with that piece's error — matching a single
   server, which also answers a whole score request with one error. *)
let scatter_score ?due t ~model ~dataset ~ids =
  let ring = ring_now t in
  let owners = Array.map (fun id -> Ring.lookup ring (block_key t ~model ~dataset id)) ids in
  let groups = ref [] in
  (* group by owner in order of first appearance *)
  Array.iteri
    (fun i owner ->
      match List.assoc_opt owner !groups with
      | Some positions -> positions := i :: !positions
      | None -> groups := !groups @ [ (owner, ref [ i ]) ])
    owners ;
  let groups = List.map (fun (o, ps) -> (o, Array.of_list (List.rev !ps))) !groups in
  match groups with
  | [] | [ _ ] ->
    (* one owner (or an empty id set): forward the request whole *)
    let key =
      match groups with
      | _ :: _ -> block_key t ~model ~dataset ids.(0)
      | [] -> score_key ~model ~dataset
    in
    render
      (forward_by_key ?due t key
         (Protocol.Score
            { model; target = Protocol.Dataset { dataset; ids }; deadline_ms = None }))
  | _ ->
    count t (fun () ->
        t.scattered <- t.scattered + 1 ;
        t.subrequests <- t.subrequests + List.length groups) ;
    let preds = Array.make (Array.length ids) 0.0 in
    let model_id = ref None in
    let failed = ref None in
    List.iter
      (fun (owner, positions) ->
        if !failed = None then begin
          let sub_ids = Array.map (fun i -> ids.(i)) positions in
          let order =
            owner
            :: List.filter (( <> ) owner)
                 (Ring.successors ring (score_key ~model ~dataset))
          in
          match
            forward_ordered ?due t order
              (Protocol.Score
                 { model = Option.value !model_id ~default:model;
                   target = Protocol.Dataset { dataset; ids = sub_ids };
                   deadline_ms = None
                 })
          with
          | Error (code, message) -> failed := Some (code, message)
          | Ok j -> (
            if !model_id = None then
              model_id := Option.bind (Json.member "model" j) Json.to_str ;
            match Option.bind (Json.member "predictions" j) Json.float_list with
            | Some ps when List.length ps = Array.length sub_ids ->
              List.iteri (fun k p -> preds.(positions.(k)) <- p) ps
            | _ ->
              failed := Some ("bad_response", "shard response missing predictions"))
        end)
      groups ;
    (match !failed with
    | Some (code, message) -> Protocol.error ~code ~message
    | None ->
      Protocol.ok
        [ ("model", Json.Str (Option.value !model_id ~default:""));
          ( "predictions",
            Json.Arr (Array.to_list preds |> List.map (fun x -> Json.Num x)) )
        ])

(* ---- the prober: active health checking + dynamic membership ---- *)

(* Phi-accrual-style suspicion score, reported in [membership]:
   consecutive failures dominate, scaled latency adds early warning.
   (The eject decision itself uses the integer thresholds — they are
   deterministic and cheap to reason about in tests.) *)
let suspicion t m =
  float_of_int m.ms_fails
  +. (m.ms_ewma /. Float.max 1e-3 t.cfg.probe_interval)

let note_probe t m outcome =
  Analysis.Sync.lock t.mem_m ;
  m.ms_probes <- m.ms_probes + 1 ;
  (match outcome with
  | `Up latency -> (
    m.ms_ewma <-
      (if m.ms_ewma = 0.0 then latency
       else (0.8 *. m.ms_ewma) +. (0.2 *. latency)) ;
    m.ms_fails <- 0 ;
    match m.ms_state with
    | Suspect -> m.ms_state <- Active
    | Draining when m.ms_operator_drain -> () (* operator owns the drain *)
    | Ejected | Draining ->
      (* sustained recovery rejoins without operator action *)
      m.ms_oks <- m.ms_oks + 1 ;
      if m.ms_oks >= t.cfg.rejoin_after then begin
        m.ms_oks <- 0 ;
        join_ring_locked t m ;
        m.ms_state <- Active
      end
    | Active -> ())
  | `Draining ->
    (* the shard itself is draining (drain op or SIGTERM with
       --drain-on): stop giving it new keys; it auto-rejoins when its
       health reports ok again *)
    m.ms_fails <- 0 ;
    m.ms_oks <- 0 ;
    if not m.ms_operator_drain then begin
      ignore (leave_ring_locked t m) ;
      m.ms_state <- Draining
    end
  | `Down -> (
    m.ms_oks <- 0 ;
    m.ms_fails <- m.ms_fails + 1 ;
    match m.ms_state with
    | Draining when m.ms_operator_drain -> ()
    | _ ->
      if m.ms_fails >= t.cfg.eject_after then begin
        if leave_ring_locked t m then begin
          if m.ms_state <> Ejected then m.ms_ejects <- m.ms_ejects + 1 ;
          m.ms_state <- Ejected
        end
        else
          (* last in-ring shard: refuse to empty the ring, stay
             suspect so forwarding still tries it *)
          m.ms_state <- Suspect
      end
      else if m.ms_state = Active then m.ms_state <- Suspect)) ;
  Analysis.Sync.unlock t.mem_m

let probe_member t m =
  let t0 = now () in
  let outcome =
    match
      Fault.point "router.probe" ;
      (* bounded: a shard that accepts but never answers must count as
         down, not wedge the prober (and with it all membership
         transitions) forever *)
      Client.call_once ~timeout:t.cfg.probe_timeout
        ~socket:(Endpoint.to_string m.ms_endpoint) Protocol.Health
    with
    | Ok j -> (
      match Option.bind (Json.member "status" j) Json.to_str with
      | Some "draining" -> `Draining
      | _ -> `Up (now () -. t0))
    | Error _ -> `Down
    | exception Fault.Injected _ -> `Down (* injected probe loss *)
    | exception Unix.Unix_error _ -> `Down
  in
  note_probe t m outcome

let prober t =
  let stopping () = Listener.stopping t.listener in
  (* stop-aware sleep in 50ms quanta so shutdown never waits a full
     probe interval *)
  let sleep dt =
    let rec go dt =
      if stopping () || dt <= 0.0 then ()
      else begin
        Thread.delay (Float.min 0.05 dt) ;
        go (dt -. 0.05)
      end
    in
    go dt
  in
  let rec loop () =
    if stopping () then ()
    else begin
      List.iter (fun (_, m) -> if not (stopping ()) then probe_member t m) t.members ;
      sleep t.cfg.probe_interval ;
      loop ()
    end
  in
  loop ()

(* ---- health / stats aggregation ---- *)

(* Bounded like a probe: a shard that accepts but never answers reads
   as "down" instead of pinning this connection's thread (and the
   health or stats request that asked) forever. *)
let shard_health t shard =
  match attempt_shard ~timeout:t.cfg.probe_timeout t shard Protocol.Health with
  | Ok j -> (
    match Option.bind (Json.member "status" j) Json.to_str with
    | Some s -> s
    | None -> "degraded")
  | Error _ -> "down"

let handle_health t =
  let statuses = List.map (fun (s, _) -> (s, shard_health t s)) t.cfg.shards in
  let status =
    if List.for_all (fun (_, s) -> s = "ok") statuses then "ok" else "degraded"
  in
  Protocol.ok
    [ ("status", Json.Str status);
      ("shards", Json.Obj (List.map (fun (n, s) -> (n, Json.Str s)) statuses));
      ("uptime_s", Json.Num (now () -. t.started))
    ]

let breaker_state_name b =
  match Breaker.state b with
  | Breaker.Closed -> "closed"
  | Breaker.Open -> "open"
  | Breaker.Half_open -> "half_open"

let membership_payload t =
  Analysis.Sync.lock t.mem_m ;
  let members =
    List.map
      (fun (name, m) ->
        ( name,
          Json.Obj
            [ ("endpoint", Json.Str (Endpoint.to_string m.ms_endpoint));
              ("state", Json.Str (state_name m.ms_state));
              ("in_ring", Json.Bool m.ms_in_ring);
              ("operator_drain", Json.Bool m.ms_operator_drain);
              ("probe_fails", Json.Num (float_of_int m.ms_fails));
              ("probe_oks", Json.Num (float_of_int m.ms_oks));
              ("probe_latency_ewma_ms", Json.Num (m.ms_ewma *. 1e3));
              ("suspicion", Json.Num (suspicion t m));
              ("probes", Json.Num (float_of_int m.ms_probes));
              ("ejects", Json.Num (float_of_int m.ms_ejects))
            ] ))
      t.members
  in
  let ring = Ring.members t.ring in
  Analysis.Sync.unlock t.mem_m ;
  Protocol.ok
    [ ("role", Json.Str "router");
      ("members", Json.Obj members);
      ("ring", Json.Arr (List.map (fun n -> Json.Str n) ring))
    ]

let cluster_json ?health t =
  (* snapshot every counter in one locked section, render outside it *)
  let ( forwarded,
        scattered,
        subrequests,
        failovers,
        breaker_skips,
        expired,
        per_shard ) =
    count t (fun () ->
        ( t.forwarded,
          t.scattered,
          t.subrequests,
          t.failovers,
          t.breaker_skips,
          t.expired,
          List.map
            (fun (name, _) ->
              ( name,
                Option.value ~default:0 (Hashtbl.find_opt t.per_shard_forwards name),
                Option.value ~default:0 (Hashtbl.find_opt t.per_shard_errors name)
              ))
            t.cfg.shards ))
  in
  let membership =
    Analysis.Sync.lock t.mem_m ;
    let ms =
      List.map
        (fun (name, m) -> (name, (state_name m.ms_state, m.ms_in_ring)))
        t.members
    in
    let ring = t.ring in
    Analysis.Sync.unlock t.mem_m ;
    (ms, ring)
  in
  let member_states, ring = membership in
  let shard_json (name, ep) =
    let fwd, errs =
      match List.find_opt (fun (n, _, _) -> n = name) per_shard with
      | Some (_, f, e) -> (f, e)
      | None -> (0, 0)
    in
    let state, in_ring =
      match List.assoc_opt name member_states with
      | Some si -> si
      | None -> ("active", true)
    in
    let base =
      [ ("endpoint", Json.Str ep);
        ("breaker", Json.Str (breaker_state_name (breaker t name)));
        ("state", Json.Str state);
        ("in_ring", Json.Bool in_ring);
        ("forwards", Json.Num (float_of_int fwd));
        ("errors", Json.Num (float_of_int errs))
      ]
    in
    let health_field =
      match Option.bind health (List.assoc_opt name) with
      | Some s -> [ ("health", Json.Str s) ]
      | None -> []
    in
    (name, Json.Obj (base @ health_field))
  in
  let ownership =
    Ring.ownership ring ~samples:1024
    |> List.map (fun (name, n) -> (name, Json.Num (float_of_int n)))
  in
  Json.Obj
    [ ("shards", Json.Obj (List.map shard_json t.cfg.shards));
      ( "ring",
        Json.Obj
          [ ("vnodes", Json.Num (float_of_int t.cfg.vnodes));
            ("ownership", Json.Obj ownership)
          ] );
      ("forwarded", Json.Num (float_of_int forwarded));
      ("scattered", Json.Num (float_of_int scattered));
      ("subrequests", Json.Num (float_of_int subrequests));
      ("failovers", Json.Num (float_of_int failovers));
      ("breaker_skips", Json.Num (float_of_int breaker_skips));
      ("expired", Json.Num (float_of_int expired))
    ]

let stats_payload ?health t =
  let cluster = cluster_json ?health t in
  match Metrics.snapshot t.metrics with
  | Json.Obj fields -> Json.Obj (fields @ [ ("cluster", cluster) ])
  | other -> Json.Obj [ ("metrics", other); ("cluster", cluster) ]

let stats t = stats_payload t

(* ---- request handling ---- *)

let request_stop t = Listener.request_stop t.listener

(* Deadline-aware admission: decrement the client's budget by the time
   the frame spent between arrival and dispatch (queue wait + parse +
   any stall), and shed with `expired` when nothing remains. An
   admitted request with a deadline gets its [due] instant, from which
   each forward sends the shard only what is truly left. Never
   silently late: an overdrawn request gets a structured error, not a
   best-effort answer. *)
let admit t ~arrived req =
  match req with
  | Protocol.Score { deadline_ms = Some ms; _ } ->
    (* the fault point sits before the elapsed computation: an armed
       delay action deterministically inflates the measured queue time *)
    Fault.point "router.admit" ;
    let elapsed_ms = (now () -. arrived) *. 1e3 in
    let remaining = ms -. elapsed_ms in
    if remaining <= 0.0 then begin
      count t (fun () -> t.expired <- t.expired + 1) ;
      Metrics.record_error t.metrics ~code:"expired" ;
      Error
        (Protocol.error ~code:"expired"
           ~message:
             (Printf.sprintf
                "deadline expired before dispatch (%.3fms budget, %.3fms queue)"
                ms elapsed_ms))
    end
    else Ok (Some (arrived +. (ms /. 1e3)))
  | _ -> Ok None

let handle_drain t shard =
  match List.assoc_opt shard t.members with
  | None -> Protocol.error ~code:"bad_request" ~message:("unknown shard " ^ shard)
  | Some m ->
    Analysis.Sync.lock t.mem_m ;
    let refused = m.ms_in_ring && in_ring_count_locked t <= 1 in
    if not refused then begin
      ignore (leave_ring_locked t m) ;
      m.ms_state <- Draining ;
      m.ms_operator_drain <- true ;
      m.ms_fails <- 0 ;
      m.ms_oks <- 0
    end ;
    Analysis.Sync.unlock t.mem_m ;
    if refused then
      Protocol.error ~code:"rejected"
        ~message:("cannot drain the last in-ring shard " ^ shard)
    else Protocol.ok [ ("shard", Json.Str shard); ("draining", Json.Bool true) ]

let handle_undrain t shard =
  match List.assoc_opt shard t.members with
  | None -> Protocol.error ~code:"bad_request" ~message:("unknown shard " ^ shard)
  | Some m ->
    Analysis.Sync.lock t.mem_m ;
    join_ring_locked t m ;
    m.ms_state <- Active ;
    m.ms_operator_drain <- false ;
    m.ms_fails <- 0 ;
    m.ms_oks <- 0 ;
    Analysis.Sync.unlock t.mem_m ;
    Protocol.ok [ ("shard", Json.Str shard); ("draining", Json.Bool false) ]

let handle_request t ~arrived req =
  (* the one place a dispatched request's outcome is counted: an ok
     reply as a request with its latency, any other reply as one error
     under its own code *)
  let timed op f =
    let t0 = now () in
    let r = f () in
    (match Protocol.response_result r with
    | Ok _ -> Metrics.record t.metrics ~op ~seconds:(now () -. t0)
    | Error (code, _) -> Metrics.record_error t.metrics ~code) ;
    r
  in
  match admit t ~arrived req with
  | Error resp -> resp
  | Ok due -> (
    match req with
    | Protocol.Ping ->
      Metrics.record t.metrics ~op:"ping" ~seconds:0.0 ;
      Protocol.ok [ ("pong", Json.Bool true) ]
    | Protocol.Shutdown ->
      Metrics.record t.metrics ~op:"shutdown" ~seconds:0.0 ;
      request_stop t ;
      Protocol.ok [ ("stopping", Json.Bool true) ]
    | Protocol.Stats ->
      timed "stats" (fun () ->
          let health = List.map (fun (s, _) -> (s, shard_health t s)) t.cfg.shards in
          Protocol.ok [ ("stats", stats_payload ~health t) ])
    | Protocol.Health -> timed "health" (fun () -> handle_health t)
    | Protocol.Membership ->
      timed "membership" (fun () -> membership_payload t)
    | Protocol.Drain None ->
      Metrics.record_error t.metrics ~code:"bad_request" ;
      Protocol.error ~code:"bad_request"
        ~message:"drain at the router requires a shard name"
    | Protocol.Drain (Some shard) -> timed "drain" (fun () -> handle_drain t shard)
    | Protocol.Undrain None ->
      Metrics.record_error t.metrics ~code:"bad_request" ;
      Protocol.error ~code:"bad_request"
        ~message:"undrain at the router requires a shard name"
    | Protocol.Undrain (Some shard) ->
      timed "undrain" (fun () -> handle_undrain t shard)
    | Protocol.List_models ->
      timed "list" (fun () ->
          render (forward_ordered t (Ring.successors (ring_now t) "list") req))
    | Protocol.Score { model; target = Protocol.Rows _; _ } ->
      timed "score_rows" (fun () -> render (forward_by_key ?due t model req))
    | Protocol.Score { model; target = Protocol.Dataset_where { dataset; _ }; _ } ->
      timed "score_where" (fun () ->
          render (forward_by_key ?due t (score_key ~model ~dataset) req))
    | Protocol.Score { model; target = Protocol.Dataset { dataset; ids }; _ } ->
      timed "score_ids" (fun () -> scatter_score ?due t ~model ~dataset ~ids))

(* ---- lifecycle ---- *)

let start cfg =
  if cfg.shards = [] then invalid_arg "Router.start: no shards" ;
  if cfg.block < 1 then invalid_arg "Router.start: block < 1" ;
  if cfg.eject_after < 1 then invalid_arg "Router.start: eject_after < 1" ;
  if cfg.rejoin_after < 1 then invalid_arg "Router.start: rejoin_after < 1" ;
  if cfg.probe_timeout <= 0.0 then invalid_arg "Router.start: probe_timeout <= 0" ;
  let metrics = Metrics.create () in
  let listener = Listener.create ~metrics cfg.listen in
  let started = now () in
  let t =
    { cfg;
      metrics;
      members =
        List.map
          (fun (n, e) ->
            ( n,
              { ms_name = n;
                ms_endpoint = Endpoint.of_string e;
                ms_breaker =
                  (* per-shard seed: breakers tripped together probe at
                     spread-out instants, not in lockstep *)
                  Breaker.create ~threshold:cfg.breaker_threshold
                    ~cooldown:cfg.breaker_cooldown ~jitter:0.2
                    ~seed:(Hashtbl.hash n) ();
                ms_state = Active;
                ms_in_ring = true;
                ms_operator_drain = false;
                ms_fails = 0;
                ms_oks = 0;
                ms_ewma = 0.0;
                ms_probes = 0;
                ms_ejects = 0;
                ms_idle = []
              } ))
          cfg.shards;
      mem_m = Analysis.Sync.create ~name:"cluster.router.membership" ();
      idle_m = Analysis.Sync.create ~name:"cluster.router.idle" ();
      ring = Ring.create ~vnodes:cfg.vnodes (List.map fst cfg.shards);
      listener;
      state_m = Analysis.Sync.create ~name:"cluster.router.state" ();
      forwarded = 0;
      scattered = 0;
      subrequests = 0;
      failovers = 0;
      breaker_skips = 0;
      expired = 0;
      per_shard_forwards = Hashtbl.create 8;
      per_shard_errors = Hashtbl.create 8;
      prober_thread = None;
      started
    }
  in
  Listener.start listener (handle_request t) ;
  if cfg.probe_interval > 0.0 then t.prober_thread <- Some (Thread.create prober t) ;
  t

let endpoint t = Listener.endpoint t.listener
let metrics t = t.metrics
let wait t = Listener.wait t.listener

let stop t =
  request_stop t ;
  Option.iter Thread.join t.prober_thread ;
  t.prober_thread <- None ;
  Listener.stop t.listener ;
  (* no thread forwards any more *)
  List.iter (fun (_, m) -> List.iter Client.close m.ms_idle) t.members

let cluster_summary t =
  count t (fun () ->
      Printf.sprintf
        "cluster       : %d shards, %d forwarded (%d scattered into %d \
         subrequests), %d failovers, %d breaker skips, %d expired\n"
        (List.length t.cfg.shards)
        t.forwarded t.scattered t.subrequests t.failovers t.breaker_skips
        t.expired)

let run cfg =
  let t = start cfg in
  let stop_signal _ = request_stop t in
  let old_int = Sys.signal Sys.sigint (Sys.Signal_handle stop_signal) in
  let old_term = Sys.signal Sys.sigterm (Sys.Signal_handle stop_signal) in
  Fmt.pr "morpheus route: listening on %s over %d shards (%d vnodes)@."
    (Endpoint.to_string (endpoint t))
    (List.length cfg.shards) cfg.vnodes ;
  List.iter (fun (n, e) -> Fmt.pr "morpheus route:   shard %s at %s@." n e) cfg.shards ;
  wait t ;
  stop t ;
  Sys.set_signal Sys.sigint old_int ;
  Sys.set_signal Sys.sigterm old_term ;
  Fmt.pr "@.-- routing metrics --@.%s%s@."
    (Metrics.summary t.metrics) (cluster_summary t)
