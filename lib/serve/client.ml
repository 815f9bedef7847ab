type t = { fd : Unix.file_descr; lines : Listener.lines }

(* Responses are read without a size cap: a score_where answer over a
   large segment legitimately exceeds the listener's request limit. *)
let of_fd fd = { fd; lines = Listener.lines (Endpoint.read fd) }

let connect ~socket = of_fd (Endpoint.connect (Endpoint.of_string socket))

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

let drop slot =
  Option.iter close !slot ;
  slot := None

(* A server that answered (even with an error code) left the stream at
   a frame boundary, so the connection stays in the slot. A transport
   failure may have left it mid-frame, so it is closed; if it had been
   reused it may just have gone stale between calls (server restart,
   idle close), so the request goes once more on a fresh connection.
   A stale connection fails at once; one that used up [timeout] has a
   peer that stopped answering, and a second connection would only
   double the wait. *)
let call_kept ?metrics ?timeout ~socket slot request =
  let note record = Option.iter record metrics in
  let expired since =
    match timeout with
    | Some dt -> Clock.wall () -. since >= dt
    | None -> false
  in
  let call_on c =
    Option.iter (set_timeouts c) timeout ;
    match call c request with
    | Error ("transport", _) as err ->
      drop slot ;
      err
    | r ->
      (* the bound is for this call only: lift it before the
         connection is reused *)
      if timeout <> None then set_timeouts c 0.0 ;
      r
  in
  let on_fresh () =
    match of_fd (Endpoint.connect ?timeout (Endpoint.of_string socket)) with
    | exception Unix.Unix_error (e, _, _) ->
      Error ("transport", Unix.error_message e)
    | c ->
      note Metrics.record_conn_fresh ;
      slot := Some c ;
      call_on c
  in
  match !slot with
  | None -> on_fresh ()
  | Some c -> (
    note Metrics.record_conn_reused ;
    let t0 = Clock.wall () in
    match call_on c with
    | Error ("transport", _) when not (expired t0) -> on_fresh ()
    | r -> r)

(* One request on a connection of its own, closed afterwards. *)
let call_once ?timeout ~socket request =
  let slot = ref None in
  Fun.protect ~finally:(fun () -> drop slot) (fun () ->
      call_kept ?timeout ~socket slot request)

let call_retry ?(policy = default_retry) ?metrics ?rng ~socket request =
  if policy.attempts < 1 then invalid_arg "Client.call_retry: attempts < 1" ;
  let rng = match rng with Some r -> r | None -> La.Rng.of_int 0x5eed in
  let t0 = Clock.wall () in
  (* one connection kept alive across attempts; the stale-reuse retry
     inside [call_kept] is not charged to the policy *)
  let conn = ref None in
  let finish r =
    drop conn ;
    r
  in
  let rec go k =
    match call_kept ?metrics ~socket conn request with
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
