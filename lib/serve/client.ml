type t = { fd : Unix.file_descr; lines : Listener.lines }

(* Responses are read without a size cap: a score_where answer over a
   large segment legitimately exceeds the listener's request limit. *)
let connect ~socket =
  let fd = Endpoint.connect (Endpoint.of_string socket) in
  { fd; lines = Listener.lines (Endpoint.read fd) }

(* Bound every read and write on the connection so a saturated or
   wedged peer surfaces as a transport error instead of blocking the
   caller forever — health probes depend on this. *)
let set_timeouts t dt =
  try
    Unix.setsockopt_float t.fd Unix.SO_RCVTIMEO dt ;
    Unix.setsockopt_float t.fd Unix.SO_SNDTIMEO dt
  with Unix.Unix_error _ -> ()

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

(* All byte movement goes through the Endpoint wrappers so the
   endpoint.* transport faults hit the client side too; an injected
   fault surfaces as a "transport" error via the catch in [call]. *)
let write_all fd s = Endpoint.write_all fd s

let call t request =
  match
    Fault.point "client.write" ;
    write_all t.fd (Json.to_string (Protocol.request_to_json request) ^ "\n") ;
    Fault.point "client.read" ;
    Listener.next_frame t.lines
  with
  | Listener.Frame line -> (
    match Json.of_string line with
    | Ok j -> Protocol.response_result j
    | Error msg -> Error ("transport", "unparseable response: " ^ msg))
  | Listener.Eof | Listener.Oversized ->
    Error ("transport", "connection closed by server")
  | exception Unix.Unix_error (e, _, _) ->
    Error ("transport", Unix.error_message e)
  | exception Fault.Injected p -> Error ("transport", "injected fault at " ^ p)

let predictions = function
  | Ok j -> (
    match Option.bind (Json.member "predictions" j) Json.float_list with
    | Some ps -> Ok (Array.of_list ps)
    | None -> Error ("bad_response", "response missing predictions"))
  | Error _ as e -> e

let score_rows t ~model ?deadline_ms rows =
  predictions
    (call t (Protocol.Score { model; target = Protocol.Rows rows; deadline_ms }))

let score_ids t ~model ~dataset ?deadline_ms ids =
  predictions
    (call t
       (Protocol.Score
          { model; target = Protocol.Dataset { dataset; ids }; deadline_ms }))

let score_where t ~model ~dataset ?deadline_ms where =
  predictions
    (call t
       (Protocol.Score
          { model;
            target = Protocol.Dataset_where { dataset; where };
            deadline_ms
          }))

let with_client ~socket f =
  let t = connect ~socket in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

(* ---- retrying calls ---- *)

type retry = {
  attempts : int;
  base_backoff : float;
  max_backoff : float;
  jitter : float;
  budget : float;
  retry_codes : string list;
}

let default_retry =
  { attempts = 5;
    base_backoff = 0.01;
    max_backoff = 0.5;
    jitter = 0.5;
    budget = 5.0;
    retry_codes = [ "transport"; "overloaded"; "circuit_open"; "internal" ]
  }

(* One attempt on one fresh connection. *)
let attempt_once ~socket request =
  match with_client ~socket (fun t -> call t request) with
  | r -> r
  | exception Unix.Unix_error (e, _, _) ->
    Error ("transport", Unix.error_message e)
  | exception Fault.Injected p -> Error ("transport", "injected fault at " ^ p)

let call_retry ?(policy = default_retry) ?metrics ?rng ~socket request =
  if policy.attempts < 1 then invalid_arg "Client.call_retry: attempts < 1" ;
  let rng = match rng with Some r -> r | None -> La.Rng.of_int 0x5eed in
  let t0 = Clock.wall () in
  (* The connection is kept alive across attempts: a server that
     answered (even with an error code) left the stream at a frame
     boundary, so the next attempt can reuse it. Only a transport
     failure — which may have desynchronized the stream (half a frame
     written) — forces a reconnect. *)
  let conn = ref None in
  let drop_conn () =
    match !conn with
    | Some c ->
      close c ;
      conn := None
    | None -> ()
  in
  let attempt () =
    let reused = !conn <> None in
    match
      let c =
        match !conn with
        | Some c ->
          (match metrics with
          | Some m -> Metrics.record_conn_reused m
          | None -> ()) ;
          c
        | None ->
          let c = connect ~socket in
          (match metrics with
          | Some m -> Metrics.record_conn_fresh m
          | None -> ()) ;
          conn := Some c ;
          c
      in
      call c request
    with
    | Error ("transport", _) as err ->
      drop_conn () ;
      (* a reused stream may have gone stale between attempts (server
         restart, idle timeout): retry immediately on a fresh
         connection before charging the policy an attempt *)
      if reused then begin
        (match metrics with Some m -> Metrics.record_conn_fresh m | None -> ()) ;
        attempt_once ~socket request
      end
      else err
    | r -> r
    | exception Unix.Unix_error (e, _, _) ->
      drop_conn () ;
      Error ("transport", Unix.error_message e)
    | exception Fault.Injected p ->
      drop_conn () ;
      Error ("transport", "injected fault at " ^ p)
  in
  let finish r =
    drop_conn () ;
    r
  in
  let rec go k =
    match attempt () with
    | Ok _ as ok -> finish ok
    | Error (code, _) as err ->
      let elapsed = Clock.wall () -. t0 in
      if
        k >= policy.attempts
        || (not (List.mem code policy.retry_codes))
        || elapsed >= policy.budget
      then finish err
      else begin
        (match metrics with Some m -> Metrics.record_retry m | None -> ()) ;
        let base =
          Float.min policy.max_backoff
            (policy.base_backoff *. (2.0 ** float_of_int (k - 1)))
        in
        let jittered =
          base
          *. (1.0 -. (policy.jitter /. 2.0) +. (policy.jitter *. La.Rng.float rng))
        in
        (* never sleep past the budget: the last attempt still runs *)
        Thread.delay (Float.max 0.0 (Float.min jittered (policy.budget -. elapsed))) ;
        go (k + 1)
      end
  in
  go 1

let score_rows_retry ?policy ?metrics ?rng ~socket ~model ?deadline_ms rows =
  predictions
    (call_retry ?policy ?metrics ?rng ~socket
       (Protocol.Score { model; target = Protocol.Rows rows; deadline_ms }))

let score_ids_retry ?policy ?metrics ?rng ~socket ~model ~dataset ?deadline_ms
    ids =
  predictions
    (call_retry ?policy ?metrics ?rng ~socket
       (Protocol.Score
          { model; target = Protocol.Dataset { dataset; ids }; deadline_ms }))

let score_where_retry ?policy ?metrics ?rng ~socket ~model ~dataset
    ?deadline_ms where =
  predictions
    (call_retry ?policy ?metrics ?rng ~socket
       (Protocol.Score
          { model;
            target = Protocol.Dataset_where { dataset; where };
            deadline_ms
          }))

let health ~socket = attempt_once ~socket Protocol.Health

let health_timeout ~timeout ~socket =
  match
    with_client ~socket (fun t ->
        if timeout > 0.0 then set_timeouts t timeout ;
        call t Protocol.Health)
  with
  | r -> r
  | exception Unix.Unix_error (e, _, _) ->
    Error ("transport", Unix.error_message e)
  | exception Fault.Injected p -> Error ("transport", "injected fault at " ^ p)
