(** Blocking client for the scoring server: one connection, one
    request/response at a time over the line-delimited JSON protocol.
    Used by [morpheus score], the smoke test, and the benchmark. *)

type t

val connect : socket:string -> t
(** [socket] is an endpoint string ({!Endpoint.of_string}): a Unix
    socket path or ["host:port"] for TCP. Raises [Unix.Unix_error] if
    the endpoint cannot be reached. *)

val close : t -> unit

val call : t -> Protocol.request -> (Json.t, string * string) result
(** Send one request and block for its response. [Error (code, message)]
    covers both protocol-level errors and transport failures (which
    surface as code ["transport"]). *)

val score_rows :
  t ->
  model:string ->
  ?deadline_ms:float ->
  float array array ->
  (float array, string * string) result
(** Score raw dense feature rows. *)

val score_ids :
  t ->
  model:string ->
  dataset:string ->
  ?deadline_ms:float ->
  int array ->
  (float array, string * string) result
(** Score rows of a server-side normalized dataset by row id. *)

val score_where :
  t ->
  model:string ->
  dataset:string ->
  ?deadline_ms:float ->
  Morpheus.Pred.t ->
  (float array, string * string) result
(** Score every dataset row satisfying the predicate (the [score_where]
    op): the server runs per-table masks + one factorized [select_rows]
    + one score for the whole segment. Predictions arrive in ascending
    row-id order — identical to {!score_ids} with the matching ids. *)

val with_client : socket:string -> (t -> 'a) -> 'a
(** Connect, run, close (also on exception). *)

val call_kept :
  ?metrics:Metrics.t ->
  ?timeout:float ->
  socket:string ->
  t option ref ->
  Protocol.request ->
  (Json.t, string * string) result
(** [call_kept ~socket slot request]: one request over a kept-alive
    connection slot. The slot's connection is reused when it holds one
    ({!Metrics.record_conn_reused}); otherwise a fresh connection is
    made and stored ({!Metrics.record_conn_fresh}). A transport error
    closes and empties the slot, since the stream may be mid-frame; if
    the failed connection was a reused one it may just have gone stale
    (server restart, idle close), so the request goes once more on a
    fresh connection, which the slot keeps. A failed connect is a
    ["transport"] error too. With [timeout], a fresh connect and every
    read and write of this call are each bounded by that many seconds
    ({!Endpoint.connect}, [SO_RCVTIMEO]/[SO_SNDTIMEO]), and the bound
    is lifted again before the connection stays in the slot; a
    timed-out call is a ["transport"] error, so its connection is
    dropped, and a reused one that ran out its [timeout] gets no fresh
    retry: a peer that stopped answering costs one [timeout], not
    two. *)

val call_once :
  ?timeout:float ->
  socket:string ->
  Protocol.request ->
  (Json.t, string * string) result
(** One request on a connection of its own, closed afterwards, with no
    retries: what a health probe wants, the truth about right now.
    [timeout] bounds the connect and every read and write as in
    {!call_kept}, so a peer that accepts but never answers, or whose
    accept backlog is full, is a ["transport"] error instead of a
    wedged caller — one unresponsive shard must not freeze an active
    prober for the rest of the fleet. *)

val drop : t option ref -> unit
(** Close and empty a connection slot (a no-op when empty). *)

(** {1 Retrying calls}

    Score requests are idempotent (pure functions of model + rows/ids),
    so a retried request returns a bitwise-identical response — retries
    can never produce a wrong answer, only a late one. *)

type retry = {
  attempts : int;  (** total attempts, including the first *)
  base_backoff : float;  (** seconds before the first retry *)
  max_backoff : float;  (** cap on the doubled backoff *)
  jitter : float;
      (** backoff is scaled uniformly in [1 − j/2, 1 + j/2] to
          decorrelate concurrent retries *)
  budget : float;  (** absolute seconds: no sleep extends past this *)
  retry_codes : string list;  (** error codes worth another attempt *)
}

val default_retry : retry
(** 5 attempts, 10ms base doubling to a 0.5s cap, jitter 0.5, 5s
    budget; retries [transport], [overloaded], [circuit_open], and
    [internal]. Permanent errors ([unknown_model], [bad_request],
    [deadline_exceeded], schema mismatches) are never retried. *)

val call_retry :
  ?policy:retry ->
  ?metrics:Metrics.t ->
  ?rng:La.Rng.t ->
  socket:string ->
  Protocol.request ->
  (Json.t, string * string) result
(** One logical request with retries, every attempt a {!call_kept} on
    one slot: a server that answered with a retryable error left the
    stream at a frame boundary, so the next attempt reuses the
    connection; only a transport failure forces a fresh connect, and
    the stale-reuse retry inside {!call_kept} is not charged to the
    policy. The slot is closed when the call returns. [metrics] counts
    connections and each retry ({!Metrics.record_retry});
    [rng] drives the jitter deterministically (defaults to a fixed
    seed). Returns the last error when the policy is exhausted. *)

val score_rows_retry :
  ?policy:retry ->
  ?metrics:Metrics.t ->
  ?rng:La.Rng.t ->
  socket:string ->
  model:string ->
  ?deadline_ms:float ->
  float array array ->
  (float array, string * string) result

val score_ids_retry :
  ?policy:retry ->
  ?metrics:Metrics.t ->
  ?rng:La.Rng.t ->
  socket:string ->
  model:string ->
  dataset:string ->
  ?deadline_ms:float ->
  int array ->
  (float array, string * string) result

val score_where_retry :
  ?policy:retry ->
  ?metrics:Metrics.t ->
  ?rng:La.Rng.t ->
  socket:string ->
  model:string ->
  dataset:string ->
  ?deadline_ms:float ->
  Morpheus.Pred.t ->
  (float array, string * string) result
