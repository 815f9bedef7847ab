(* The one connection path of the serving tier, shared by Server and
   the cluster router:

     accept thread: select (100ms, stop-aware) → accept → queue
     handler thread: dequeue → read frame → decode → handle → write
       reply, until EOF, a stop, an oversized frame or a failed write

   The two callers differ only in the [handle] closure each handler
   thread gets from its factory. *)

(* ---- line framing ---- *)

(* A frame that exceeds this without a newline is hostile or corrupt:
   the listener answers a structured error and drops the connection
   rather than buffering without bound. *)
let max_frame = 1 lsl 20

type frame = Frame of string | Eof | Oversized

(* Bytes [start, stop) of [buf] are received but not yet returned, and
   [start, scanned) is known to hold no newline: each byte is examined
   once, however many reads its frame spans. *)
type lines = {
  read : Bytes.t -> int -> int -> int;
  mutable buf : Bytes.t;
  mutable start : int;
  mutable scanned : int;
  mutable stop : int;
}

let chunk = 4096

let lines read = { read; buf = Bytes.create chunk; start = 0; scanned = 0; stop = 0 }

let rec newline buf i stop =
  if i >= stop then None
  else if Bytes.get buf i = '\n' then Some i
  else newline buf (i + 1) stop

(* Room for at least [chunk] more bytes: slide the pending partial
   line to the front, growing the buffer only when the line itself
   fills it (doubling keeps the copies linear). *)
let reserve r =
  if Bytes.length r.buf - r.stop < chunk then begin
    let pending = r.stop - r.start in
    let buf =
      if pending + chunk <= Bytes.length r.buf then r.buf
      else Bytes.create (max (2 * Bytes.length r.buf) (pending + chunk))
    in
    Bytes.blit r.buf r.start buf 0 pending ;
    r.buf <- buf ;
    r.scanned <- r.scanned - r.start ;
    r.start <- 0 ;
    r.stop <- pending
  end

let too_long max len = match max with Some m -> len > m | None -> false

let rec next_frame ?max r =
  match newline r.buf r.scanned r.stop with
  | Some i ->
    let len = i - r.start in
    let frame =
      if too_long max len then Oversized
      else Frame (Bytes.sub_string r.buf r.start len)
    in
    r.start <- i + 1 ;
    r.scanned <- i + 1 ;
    frame
  | None ->
    r.scanned <- r.stop ;
    if too_long max (r.stop - r.start) then Oversized
    else begin
      reserve r ;
      match r.read r.buf r.stop (Bytes.length r.buf - r.stop) with
      | 0 -> Eof (* any partial line is dropped *)
      | n ->
        r.stop <- r.stop + n ;
        next_frame ?max r
    end

(* ---- the listener ---- *)

type handler = {
  handle : arrived:float -> Protocol.request -> Json.t;
  close : unit -> unit;
}

type t = {
  name : string;
  metrics : Metrics.t;
  listen_fd : Unix.file_descr;
  bound : Endpoint.t;
  (* accepted connections awaiting a handler *)
  conns : Unix.file_descr Queue.t;
  conn_m : Analysis.Sync.t;
  conn_cv : Analysis.Sync.cond;
  mutable stopping : bool;
  mutable threads : Thread.t list;
}

let create ~name ~metrics socket =
  (* a dead peer must surface as a write error, not kill the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ()) ;
  let ep = Endpoint.of_string socket in
  let listen_fd = Endpoint.listen ep in
  { name;
    metrics;
    listen_fd;
    bound = Endpoint.bound_endpoint ep listen_fd;
    conns = Queue.create ();
    conn_m = Analysis.Sync.create ~name:"serve.listener.conns" ();
    conn_cv = Analysis.Sync.condition ();
    stopping = false;
    threads = []
  }

let endpoint l = l.bound
let stopping l = l.stopping

(* A signal handler runs at an allocation point of whichever thread
   holds the runtime — possibly one inside [conn_m] — so a stop request
   takes no lock: it sets the flag, and the threads that poll it (the
   accept loop, every connection read, [wait]) act on it within 100ms.
   Idle handler threads are woken by the accept loop on its way out,
   or at once by [stop]. *)
let request_stop l = l.stopping <- true

let wake_handlers l =
  Analysis.Sync.lock l.conn_m ;
  Analysis.Sync.broadcast l.conn_cv ;
  Analysis.Sync.unlock l.conn_m

let wait l =
  while not l.stopping do
    Thread.delay 0.05
  done

(* A connection's byte source: wakes every 100ms to honor a stop; a
   reset peer or an injected read fault reads as EOF. *)
let conn_read l fd buf off len =
  let rec go () =
    if l.stopping then 0
    else
      match Unix.select [ fd ] [] [] 0.1 with
      | [], _, _ -> go ()
      | _ -> Endpoint.read fd buf off len
  in
  try go () with
  | Unix.Unix_error ((EBADF | ECONNRESET | EPIPE), _, _) | Fault.Injected _ -> 0

(* SIGPIPE is ignored, so a dead peer surfaces here as EPIPE → [false].
   An injected transport fault (endpoint.write.torn leaves half a frame
   on the wire) is accounted the same way: the request already ran, so
   this is a delivery failure, not a scoring failure. *)
let reply l fd json =
  match
    Fault.point "listener.write" ;
    Endpoint.write_all fd (Json.to_string json ^ "\n")
  with
  | () -> true
  | exception (Unix.Unix_error _ | Fault.Injected _) ->
    Metrics.record_write_error l.metrics ;
    Metrics.record_error l.metrics ~code:"client_write" ;
    false

let bad_request l message =
  Metrics.record_error l.metrics ~code:"bad_request" ;
  Protocol.error ~code:"bad_request" ~message

let respond l h line =
  (* deadline admission counts from the moment the frame is complete *)
  let arrived = Clock.wall () in
  match Result.bind (Json.of_string line) Protocol.request_of_json with
  | Error msg -> bad_request l msg
  | Ok req -> (
    (* a failing handler answers "internal"; only an injected crash
       takes the connection down *)
    match h.handle ~arrived req with
    | response -> response
    | exception (Fault.Injected _ as e) -> raise e
    | exception e ->
      Metrics.record_error l.metrics ~code:"internal" ;
      Protocol.error ~code:"internal" ~message:(Printexc.to_string e))

let serve_connection l h fd =
  let r = lines (conn_read l fd) in
  let rec loop () =
    match next_frame ~max:max_frame r with
    | Eof -> ()
    | Oversized ->
      (* structured refusal, then hang up: the rest of the stream is
         the same runaway frame *)
      ignore
        (reply l fd
           (bad_request l
              (Printf.sprintf "frame too large (limit %d bytes)" max_frame)))
    | Frame line -> if reply l fd (respond l h line) then loop ()
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Fault.point "listener.handler" ;
      loop ())

let accept_loop l =
  let rec loop () =
    if l.stopping then wake_handlers l
    else begin
      match Unix.select [ l.listen_fd ] [] [] 0.1 with
      | [], _, _ -> loop ()
      | _ -> (
        match Endpoint.accept l.listen_fd with
        | fd, _ ->
          Analysis.Sync.lock l.conn_m ;
          Queue.push fd l.conns ;
          Analysis.Sync.signal l.conn_cv ;
          Analysis.Sync.unlock l.conn_m ;
          loop ()
        | exception Unix.Unix_error ((EBADF | EINVAL), _, _) -> ()
        | exception Unix.Unix_error _ -> loop ()
        (* injected accept fault: the pending connection stays in the
           kernel backlog and is retried on the next select round — a
           delayed accept, never a lost connection *)
        | exception Fault.Injected _ -> loop ())
      | exception Unix.Unix_error _ -> ()
    end
  in
  loop ()

let next_conn l =
  Analysis.Sync.lock l.conn_m ;
  while Queue.is_empty l.conns && not l.stopping do
    Analysis.Sync.wait l.conn_cv l.conn_m
  done ;
  let fd = Queue.take_opt l.conns in
  Analysis.Sync.unlock l.conn_m ;
  fd

(* Anything escaping a connection closes it (serve_connection's
   finally) and counts as a restart; the thread carries on at once
   with a fresh handler, since the crashed one may have been left
   mid-request. *)
let handler_loop l make =
  let rec loop h =
    match next_conn l with
    | None -> h.close ()
    | Some fd -> (
      match serve_connection l h fd with
      | () -> loop h
      | exception _ ->
        Metrics.record_restart l.metrics ;
        h.close () ;
        loop (make ()))
  in
  loop (make ())

let start l ~handlers make =
  l.threads <-
    Thread.create accept_loop l
    :: List.init handlers (fun _ -> Thread.create (handler_loop l) make)

let stop l =
  request_stop l ;
  wake_handlers l ;
  List.iter Thread.join l.threads ;
  l.threads <- [] ;
  (* answer connections no handler reached instead of hanging up *)
  Queue.iter
    (fun fd ->
      ignore
        (reply l fd
           (Protocol.error ~code:"rejected" ~message:(l.name ^ " shutting down"))) ;
      try Unix.close fd with Unix.Unix_error _ -> ())
    l.conns ;
  Queue.clear l.conns ;
  (try Unix.close l.listen_fd with Unix.Unix_error _ -> ()) ;
  Endpoint.cleanup l.bound
