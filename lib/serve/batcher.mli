(** Micro-batching: concurrent scoring requests against the same model
    (and dataset) coalesce into one fused execution — for factorized
    scoring, one [select_rows] + one factorized matrix-vector product
    instead of N row gathers. The paper's rewrites, with [select_rows]
    compacting each [Rᵢ] to the u rows the batch references, make the
    batch cost O(batch·d_S + u·d_R), where N independent requests would
    each pay their own [Rᵢ]-side work.

    Generic over key, payload, and result so the deadline/shedding
    semantics are testable with an injected (slow, failing, counting)
    executor. A batch only ever contains requests with equal keys, in
    submission order, so results are deterministic given an order of
    arrival — and bitwise-identical to scoring each request alone,
    because every scoring path accumulates output rows independently. *)

type error =
  | Overloaded  (** shed at submission: the queue was at its bound *)
  | Deadline_exceeded  (** still queued when its deadline passed *)
  | Expired
      (** shed at batch formation: the remaining budget is smaller
          than the current batch-execution ewma, so the request cannot
          finish in time — refused rather than answered late *)
  | Rejected of string  (** the executor failed this batch *)

val error_code : error -> string
(** Protocol error code: ["overloaded"], ["deadline_exceeded"],
    ["expired"], ["rejected"]. *)

type ('k, 'a, 'b) t

val create :
  ?max_batch:int ->
  ?max_wait:float ->
  ?queue_bound:int ->
  metrics:Metrics.t ->
  size:('a -> int) ->
  exec:('k -> 'a array -> ('b, string) result array) ->
  unit ->
  ('k, 'a, 'b) t
(** Starts the batching thread. A batch closes when [max_batch]
    same-key requests are pending (default 64) or the oldest of them
    has waited [max_wait] seconds (default 2ms; 0 means "whatever is
    queued right now"). [queue_bound] (default 1024) is the shedding
    threshold on pending requests. [size] reports a request's row count
    for the batch metrics. [exec] receives equal-key payloads in
    submission order and returns one result per payload — per-request
    [Error]s become {!Rejected} for that request only; a length
    mismatch or a raised exception rejects the whole batch. It runs on
    the batching thread only, so a single-caller kernel substrate
    ({!La.Pool}) is safe. *)

val submit : ('k, 'a, 'b) t -> ?deadline:float -> 'k -> 'a -> ('b, error) result
(** Blocks the calling thread until its batch executes. [deadline] is
    an absolute [Unix.gettimeofday] instant checked at batch formation:
    a request whose deadline passed while queued is dropped without
    being scored. A deadline cannot abort a batch already executing. *)

val pending : ('k, 'a, 'b) t -> int

val stop : ('k, 'a, 'b) t -> unit
(** Drain: already-queued requests still execute, new submissions are
    rejected; returns after the batching thread exits. Idempotent. *)
