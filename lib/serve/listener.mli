(** The connection listener shared by {!Server} and the cluster router:
    everything from [accept] to the reply write. It binds the endpoint,
    runs one accept thread and one thread per open connection (up to
    {!max_conns}), frames requests as newline-terminated JSON (refusing
    frames over {!max_frame}), decodes them with {!Protocol}, answers
    malformed ones with [bad_request] and handler exceptions with
    [internal], writes the reply, and stops cleanly.

    An idle connection costs its own thread and descriptor and delays
    no other connection. An injected fault escaping the handler (the
    [listener.handler] drill point, or one raised inside [handle])
    closes only that connection — its client sees a transport error —
    and is counted in {!Metrics.record_restart}. *)

(** {1 Line framing} *)

val max_frame : int
(** 1 MiB: the largest request line the listener accepts. *)

type frame = Frame of string | Eof | Oversized

type lines
(** A buffered newline framer over a byte source. Bytes already
    scanned are never scanned again, so a frame spanning many reads
    costs time linear in its length. *)

val lines : (Bytes.t -> int -> int -> int) -> lines
(** [lines read]: [read buf off len] fills at most [len] bytes of
    [buf] from [off] and returns how many; [0] means end of stream. *)

val next_frame : ?max:int -> lines -> frame
(** The next line, without its newline. [Eof] at end of stream — a
    partial line left at EOF (a torn write) is dropped, never
    returned. With [max], a line longer than [max] bytes is
    [Oversized] as soon as that many bytes are buffered without a
    newline; without it, lines are unbounded. *)

(** {1 Serving} *)

val max_conns : int
(** 256: the most connections open at once. The accept thread answers
    one more with [overloaded] and closes it, as it does a connection
    whose thread cannot be created. *)

type t

val create : metrics:Metrics.t -> string -> t
(** [create ~metrics socket] binds [socket] (an {!Endpoint.of_string}
    string) and ignores SIGPIPE; no thread runs yet. [metrics] receives
    the framing, write, refusal and restart accounting. Raises
    [Unix.Unix_error] if the endpoint cannot be bound. *)

val start : t -> (arrived:float -> Protocol.request -> Json.t) -> unit
(** [start l handle]: start the accept thread. Every accepted
    connection gets a thread of its own, which blocks in a plain read
    and calls [handle ~arrived req] for each decoded request, [arrived]
    being the wall-clock instant its frame was complete. [handle] runs
    on many threads at once. When the process is out of descriptors
    (EMFILE, ENFILE), the accept thread waits 100ms before it tries
    again. *)

val endpoint : t -> Endpoint.t
(** The endpoint actually bound ([host:0] resolved). *)

val stopping : t -> bool

val request_stop : t -> unit
(** Ask for a stop: the accept loop and {!wait} see it within 100ms.
    On its way out the accept thread shuts the receive side of every
    open connection, so a blocked read ends at once while a request in
    flight still gets its reply. Takes no lock and touches no
    connection, so it is safe from any thread, including a signal
    handler or a connection serving [shutdown]; idempotent. *)

val wait : t -> unit
(** Block until a stop has been requested. *)

val stop : t -> unit
(** {!request_stop}, join the accept thread, wait until every
    connection has closed, then close the socket and remove a socket
    file. *)
