(** The scoring server: a line-delimited-JSON protocol over a Unix
    domain socket or TCP ({!Endpoint}) in front of the model registry
    and the micro-batching scoring engine.

    Threading: the {!Listener}'s accept thread and one thread per open
    connection (up to {!Listener.max_conns}), one drain-watcher thread,
    and one batching thread; there is no supervisor thread. Connection
    threads only parse, validate, and block in {!Batcher.submit}; every LA
    kernel runs on the batching thread, so the {!La.Pool}
    single-caller contract holds and the kernels may still parallelize
    internally over domains. Overload shedding and per-request
    deadlines are enforced by the batcher; a shed or expired request
    gets an error response, never silence.

    Self-healing: a connection whose handler crashes is closed, and no
    other connection notices (counted in {!Metrics.restarts}); each
    server-side dataset gets a {!Breaker} so repeated load failures fail fast
    instead of hammering the filesystem; {!start} runs
    {!Registry.recover} to quarantine crash litter; and the [health]
    protocol op reports ok/degraded with open-circuit and restart
    counts. See docs/ROBUSTNESS.md. *)

type config = {
  registry : string;  (** registry directory ({!Registry}) *)
  socket : string;
      (** endpoint string ({!Endpoint.of_string}): a Unix domain socket
          path (created; replaced) or ["host:port"] to listen on TCP
          (["host:0"] picks an ephemeral port — read it back with
          {!endpoint}) *)
  max_batch : int;  (** micro-batch close threshold (requests) *)
  max_wait : float;  (** micro-batch max linger, seconds *)
  queue_bound : int;  (** pending requests before shedding *)
  cache_capacity : int;  (** dataset LRU entries *)
  default_deadline_ms : float option;
      (** applied to requests that carry no deadline *)
  breaker_threshold : int;
      (** consecutive dataset-load failures before that dataset's
          circuit opens *)
  breaker_cooldown : float;
      (** seconds an open circuit refuses fast before probing again *)
  drain_on_term : bool;
      (** when true, {!run}'s SIGTERM handler starts a graceful drain
          ([health] answers ["draining"], the queue finishes, then the
          server stops on its own) instead of stopping immediately *)
}

val default_config : registry:string -> socket:string -> config
(** max_batch 64, max_wait 2ms, queue_bound 1024, cache_capacity 4, no
    default deadline, breaker threshold 5 / cooldown 1s, no
    drain-on-term. *)

type t

val start : config -> t
(** Bind the socket and start the threads. Raises [Unix.Unix_error] if
    the socket cannot be bound, [Invalid_argument] on nonsensical
    config values. *)

val request_stop : t -> unit
(** Begin a graceful shutdown (idempotent, callable from any thread —
    including a signal handler or a connection thread serving the
    [shutdown] op): stop accepting, let in-flight requests finish. *)

val request_drain : t -> unit
(** Enter draining: [health] answers ["draining"] (so routers stop
    assigning new keys), queued and in-flight work still completes,
    and the server stops once it has been idle for a short grace
    window. Cancelled by {!cancel_drain} (or the [undrain] op) any
    time before the stop fires. *)

val cancel_drain : t -> bool
(** Leave draining; returns whether a drain was in progress. *)

val is_draining : t -> bool

val wait : t -> unit
(** Block until a stop has been requested. *)

val stop : t -> unit
(** {!request_stop}, wait for every connection to close and the other
    threads to end, remove the socket file. *)

val stats : t -> Json.t
(** The [stats] payload: metrics snapshot + server section (uptime,
    loaded models, dataset cache, queue). *)

val metrics : t -> Metrics.t

val endpoint : t -> Endpoint.t
(** The endpoint actually bound — for [socket = "host:0"] this carries
    the ephemeral port the kernel assigned. *)

val run : config -> unit
(** [start], install SIGINT/SIGTERM handlers that request a stop, block
    until shutdown, then dump the metrics summary to stdout. *)
