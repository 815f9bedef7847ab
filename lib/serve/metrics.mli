(** Serving metrics: request counters, log-bucketed latency histograms
    (p50/p95/p99), the micro-batch size distribution, and cache/shed
    counters. All recording paths are mutex-protected (connection
    threads and the batching thread write concurrently) and O(1). *)

type t

val create : unit -> t

val record : t -> op:string -> seconds:float -> unit
(** One completed request of kind [op] with its wall-clock latency. *)

val record_error : t -> code:string -> unit
(** One failed request by error code (["overloaded"],
    ["deadline_exceeded"], ["unknown_model"], …). *)

val record_batch : t -> requests:int -> rows:int -> unit
(** One executed micro-batch: how many requests were coalesced and how
    many data rows the fused product covered. *)

val record_cache : t -> hit:bool -> unit
(** A dataset-cache lookup. *)

val record_retry : t -> unit
(** One client-side retry attempt (recorded by {!Client.call_retry}
    when handed this metrics instance). *)

val record_shed : t -> unit
(** One request shed at the queue bound. *)

val record_restart : t -> unit
(** One handler crash: an injected fault escaped a connection's
    handler, so that connection was closed and its thread ended
    ({!Listener}). *)

val record_write_error : t -> unit
(** One response write that failed (peer gone mid-write). *)

val record_conn_reused : t -> unit
(** One request attempt served over a kept-alive connection
    ({!Client.call_retry} reuse, or a router forwarding over a cached
    shard connection). *)

val record_conn_fresh : t -> unit
(** One request attempt that had to open a new connection. *)

val retries : t -> int
val sheds : t -> int
val restarts : t -> int
val write_errors : t -> int
val conns_reused : t -> int
val conns_fresh : t -> int

val requests : t -> int
(** Total successful requests recorded. *)

val errors : t -> int

val snapshot : t -> Json.t
(** The stats payload: per-op counts, error counts, latency summary
    (count/mean/p50/p95/p99/max), batch-size distribution, cache hit
    rate. *)

val summary : t -> string
(** Human-readable multi-line dump (printed on server shutdown). *)
