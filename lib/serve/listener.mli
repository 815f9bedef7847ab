(** The connection listener shared by {!Server} and the cluster router:
    everything from [accept] to the reply write. It binds the endpoint,
    runs one accept thread and a bounded pool of handler threads,
    frames requests as newline-terminated JSON (refusing frames over
    {!max_frame}), decodes them with {!Protocol}, answers malformed
    ones with [bad_request] and handler exceptions with [internal],
    writes the reply, and stops cleanly.

    A handler thread survives anything a connection throws: an injected
    fault escaping the handler (the [listener.handler] drill point, or
    one raised inside [handle]) closes that connection — its client
    sees a transport error — is counted in {!Metrics.record_restart},
    and the thread goes straight back to the pool with a fresh
    {!handler}. *)

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

type handler = {
  handle : arrived:float -> Protocol.request -> Json.t;
      (** answer one decoded request; [arrived] is the wall-clock
          instant its frame was complete *)
  close : unit -> unit;
      (** release per-thread state; called when the thread exits and
          when a crash replaces this handler *)
}

type t

val create : name:string -> metrics:Metrics.t -> string -> t
(** [create ~name ~metrics socket] binds [socket] (an
    {!Endpoint.of_string} string) and ignores SIGPIPE; no thread runs
    yet. [name] ends the refusal sent to queued connections at stop
    (["<name> shutting down"]); [metrics] receives the framing, write
    and restart accounting. Raises [Unix.Unix_error] if the endpoint
    cannot be bound. *)

val start : t -> handlers:int -> (unit -> handler) -> unit
(** Start the accept thread and [handlers] handler threads; each calls
    the factory once for its own {!handler}, and again after a
    crash. *)

val endpoint : t -> Endpoint.t
(** The endpoint actually bound ([host:0] resolved). *)

val stopping : t -> bool

val request_stop : t -> unit
(** Ask for a stop: the accept loop, connection reads and {!wait} see
    it within 100ms. Takes no lock, so it is safe from any thread,
    including a signal handler or a handler serving [shutdown];
    idempotent. *)

val wait : t -> unit
(** Block until a stop has been requested. *)

val stop : t -> unit
(** {!request_stop}, join the threads, answer connections still queued
    with [rejected], close the socket and remove a socket file. *)
