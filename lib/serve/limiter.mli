(** AIMD adaptive concurrency limit: admission cap grows additively
    while the completion-latency ewma stays at or under [target],
    shrinks multiplicatively on failures or latency overshoot. Bounds
    in-flight work by observed capacity so overload is shed at
    admission with a structured error instead of queueing into
    deadline blowout. Thread-safe (Sync-named lock [serve.limiter]);
    [now] is injectable for tests. *)

type t

val create :
  ?min_limit:float ->
  ?max_limit:float ->
  ?initial:float ->
  ?backoff:float ->
  ?decrease_interval:float ->
  ?now:(unit -> float) ->
  target:float ->
  unit ->
  t
(** [target] is the latency goal in seconds. Defaults: min 2, max 256,
    initial 16, backoff 0.7 (multiplicative decrease factor, must be
    in (0,1)), at most one decrease per 0.1s. *)

val try_acquire : t -> bool
(** Admit one request if in-flight < limit; [false] counts a shed. *)

val release : t -> latency:float -> ok:bool -> unit
(** Complete a request admitted by {!try_acquire}: folds [latency]
    (seconds) into the ewma and adjusts the limit — multiplicative
    decrease when [not ok] or the ewma exceeds target, additive
    increase (+1/limit) otherwise. *)

val limit : t -> float
val in_flight : t -> int
val ewma : t -> float
val shed : t -> int

val snapshot : t -> Json.t
(** Limit, in-flight, ewma, and counters for the [stats] payload. *)

val admit :
  t option ->
  metrics:Metrics.t ->
  shed_message:string ->
  (unit -> Json.t) ->
  Json.t
(** Run one request under the limiter ([None]: unlimited). At the cap
    it is not run: the shed is counted ({!Metrics.record_limited}, an
    [overloaded] error) and answered with an [overloaded] error carrying
    [shed_message]. Otherwise its latency and outcome — an error
    response or an exception counts as a failure — are {!release}d. *)
