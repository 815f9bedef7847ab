(** A circuit breaker: after [threshold] consecutive failures the
    circuit {e opens} and callers are refused fast (no load attempt)
    for [cooldown] seconds; then one probe call is let through
    ({e half-open}) — success closes the circuit, failure re-opens it
    for another cooldown. The server hangs one breaker on each dataset
    path so a registry of healthy datasets keeps serving while a broken
    one fails fast instead of hammering the filesystem on every batch.

    Thread-safe; [now] is injectable for tests. *)

type t

type state = Closed | Open | Half_open

val create :
  ?threshold:int ->
  ?cooldown:float ->
  ?jitter:float ->
  ?seed:int ->
  ?now:(unit -> float) ->
  unit ->
  t
(** Defaults: threshold 5 consecutive failures, cooldown 1s, jitter 0,
    seed 0, [now = Unix.gettimeofday]. Each open stretches its cooldown
    to [cooldown * (1 + jitter * u)] where [u ∈ [0,1)] is a
    deterministic hash of [(seed, open count)] — give sibling breakers
    distinct seeds so probes after a shared outage spread out instead
    of arriving in lockstep. Raises [Invalid_argument] on
    [threshold < 1], negative [cooldown], or negative [jitter]. *)

val allow : t -> bool
(** May the protected call proceed? [true] when closed; when open,
    [false] until the cooldown elapses, then [true] exactly once (the
    probe) until that probe reports back. *)

val success : t -> unit
(** The protected call succeeded: reset failures, close the circuit. *)

val failure : t -> unit
(** The protected call failed: count it; trips the circuit at
    [threshold] consecutive failures, and re-opens it (fresh cooldown)
    when a probe fails. *)

val abandon : t -> unit
(** The protected call ended with no verdict (its caller's deadline
    ran out first): a claimed half-open probe is handed back, so the
    next caller probes. A no-op on a closed circuit. *)

val state : t -> state

val opens : t -> int
(** Times the circuit has tripped (including probe-failure re-opens). *)
