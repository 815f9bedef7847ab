(* The one connection path of the serving tier, shared by Server and
   the cluster router:

     accept thread: select (100ms, stop-aware) → accept → a thread of
       its own for the connection, or [overloaded] past [max_conns]
     connection thread: read frame → decode → handle → write reply,
       until EOF, a stop, an oversized frame or a failed write

   The two callers differ only in the [handle] closure they start the
   listener with. *)

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

(* Each open connection holds one thread and one descriptor, idle or
   not; past this many the accept thread refuses with [overloaded]. *)
let max_conns = 256

type t = {
  metrics : Metrics.t;
  listen_fd : Unix.file_descr;
  bound : Endpoint.t;
  (* open connections: each leaves before its descriptor is closed, so
     the stop sweep never shuts down a reused descriptor number *)
  conns : (Unix.file_descr, unit) Hashtbl.t;
  conn_m : Analysis.Sync.t;
  conn_cv : Analysis.Sync.cond;  (* a connection left [conns] *)
  mutable stopping : bool;
  mutable acceptor : Thread.t option;
}

let create ~metrics socket =
  (* a dead peer must surface as a write error, not kill the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ()) ;
  let ep = Endpoint.of_string socket in
  let listen_fd = Endpoint.listen ep in
  { metrics;
    listen_fd;
    bound = Endpoint.bound_endpoint ep listen_fd;
    conns = Hashtbl.create 64;
    conn_m = Analysis.Sync.create ~name:"serve.listener.conns" ();
    conn_cv = Analysis.Sync.condition ();
    stopping = false;
    acceptor = None
  }

let endpoint l = l.bound
let stopping l = l.stopping

(* A signal handler runs at an allocation point of whichever thread
   holds the runtime — possibly one inside [conn_m] — so a stop request
   takes no lock and touches no connection: it sets the flag, and the
   accept loop and [wait] act on it within 100ms. The accept thread,
   on its way out, ends every blocked connection read. *)
let request_stop l = l.stopping <- true

let wait l =
  while not l.stopping do
    Thread.delay 0.05
  done

(* A connection's byte source: a reset peer or an injected read fault
   reads as EOF. *)
let conn_read fd buf off len =
  try Endpoint.read fd buf off len with
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

let respond l handle line =
  (* deadline admission counts from the moment the frame is complete *)
  let arrived = Clock.wall () in
  match Result.bind (Json.of_string line) Protocol.request_of_json with
  | Error msg -> bad_request l msg
  | Ok req -> (
    (* a failing handler answers "internal"; only an injected crash
       takes the connection down *)
    match handle ~arrived req with
    | response -> response
    | exception (Fault.Injected _ as e) -> raise e
    | exception e ->
      Metrics.record_error l.metrics ~code:"internal" ;
      Protocol.error ~code:"internal" ~message:(Printexc.to_string e))

let serve_connection l handle fd =
  let r = lines (conn_read fd) in
  let rec loop () =
    (* after a stop, the frame in hand is answered and no other *)
    if not l.stopping then
      match next_frame ~max:max_frame r with
      | Eof -> ()
      | Oversized ->
        (* structured refusal, then hang up: the rest of the stream is
           the same runaway frame *)
        ignore
          (reply l fd
             (bad_request l
                (Printf.sprintf "frame too large (limit %d bytes)" max_frame)))
      | Frame line -> if reply l fd (respond l handle line) then loop ()
  in
  Fault.point "listener.handler" ;
  loop ()

let leave l fd =
  Analysis.Sync.with_lock l.conn_m (fun () ->
      Hashtbl.remove l.conns fd ;
      Analysis.Sync.broadcast l.conn_cv)

(* A connection's own thread. Anything escaping the connection (an
   injected crash) closes it and counts as a restart; the thread ends
   either way. *)
let connection l handle fd =
  (try serve_connection l handle fd
   with _ -> Metrics.record_restart l.metrics) ;
  leave l fd ;
  try Unix.close fd with Unix.Unix_error _ -> ()

let refuse l fd =
  let message = Printf.sprintf "connection limit (%d) reached" max_conns in
  Metrics.record_error l.metrics ~code:"overloaded" ;
  ignore (reply l fd (Protocol.error ~code:"overloaded" ~message)) ;
  try Unix.close fd with Unix.Unix_error _ -> ()

let admit l handle fd =
  let room =
    Analysis.Sync.with_lock l.conn_m (fun () ->
        let room = Hashtbl.length l.conns < max_conns in
        if room then Hashtbl.replace l.conns fd () ;
        room)
  in
  if not room then refuse l fd
  else
    match Thread.create (connection l handle) fd with
    | _ -> ()
    | exception _ ->
      leave l fd ;
      refuse l fd

(* On the accept thread's way out: end every blocked connection read.
   Only the receive side is shut, so a request in flight still gets
   its reply. *)
let sweep l =
  Analysis.Sync.with_lock l.conn_m (fun () ->
      Hashtbl.iter
        (fun fd () ->
          try Unix.shutdown fd SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
        l.conns)

let accept_loop l handle =
  let rec loop () =
    if not l.stopping then
      match Unix.select [ l.listen_fd ] [] [] 0.1 with
      | [], _, _ -> loop ()
      | _ -> (
        match Endpoint.accept l.listen_fd with
        | fd, _ ->
          admit l handle fd ;
          loop ()
        | exception Unix.Unix_error ((EBADF | EINVAL), _, _) -> ()
        | exception Unix.Unix_error ((EMFILE | ENFILE), _, _) ->
          (* out of descriptors: the pending connection keeps the
             socket readable, so retrying at once would spin *)
          Thread.delay 0.1 ;
          loop ()
        | exception Unix.Unix_error _ -> loop ()
        (* injected accept fault: the pending connection stays in the
           kernel backlog and is retried on the next select round — a
           delayed accept, never a lost connection *)
        | exception Fault.Injected _ -> loop ())
      | exception Unix.Unix_error (EINTR, _, _) -> loop ()
      | exception Unix.Unix_error _ -> ()
  in
  loop () ;
  sweep l

let start l handle = l.acceptor <- Some (Thread.create (accept_loop l) handle)

let stop l =
  request_stop l ;
  Option.iter Thread.join l.acceptor ;
  l.acceptor <- None ;
  Analysis.Sync.with_lock l.conn_m (fun () ->
      while Hashtbl.length l.conns > 0 do
        Analysis.Sync.wait l.conn_cv l.conn_m
      done) ;
  (try Unix.close l.listen_fd with Unix.Unix_error _ -> ()) ;
  Endpoint.cleanup l.bound
