(** The cluster router: a separate process that speaks the same
    line-delimited-JSON protocol as a shard server and fans requests
    out over a fleet of shards.

    Placement is consistent hashing ({!Ring}) over [(model, dataset)]
    routing keys; a [score] request over an id set whose blocks hash to
    different shards is {e scatter-gathered} — split per owning shard,
    the pieces forwarded one after another, and reassembled in the
    original id order. The first piece to answer pins the model
    version: every later piece names the id it resolved, so a version
    published mid-request cannot mix into the response. Because every
    shard serves any (model, dataset) identically
    (registries are replicas, datasets shared) and per-row predictions
    are batch-invariant, the reassembled response is bitwise-identical
    to a single server's.

    Resilience: one {!Breaker} per shard; a transport failure fails
    over to the next distinct shard in ring order (counted as a
    failover) and the reply is still bitwise-identical, which is what
    the chaos suite asserts while SIGKILLing shard processes
    mid-storm. Forwarding connections are kept alive across requests
    in one idle set per shard: a forward takes one (or opens one) and
    hands it back once the shard has answered
    ({!Metrics.record_conn_reused}), so shard connections scale with
    forwards in flight, not with open client connections.

    Threading: the {!Morpheus_serve.Listener}'s accept thread and one
    thread per open client connection (shared with the server: a
    crashed connection is closed and counts a restart), plus the
    prober thread; no supervisor thread.

    Control plane: a prober thread health-checks every shard each
    [probe_interval] and maintains dynamic membership — one failed
    probe makes an active shard Suspect, [eject_after] consecutive
    failures make it Ejected (it leaves
    the ring with minimal key movement), sustained recovery rejoins it
    automatically, and a shard reporting ["draining"] is taken out
    until healthy again. The [drain]/[undrain] ops drive the same
    machinery by operator hand; [membership] reports the state
    machine. Requests carrying a deadline are admission-checked: the
    budget is decremented by observed queue time before forwarding and
    overdrawn requests are shed with an [expired] error, never
    answered silently late. Each forward of such a request (and every
    piece of a scatter) is bounded by the budget left; one that runs
    it out answers [deadline_exceeded], with no failover and no
    breaker failure counted against the shard.

    The router holds no model or dataset state: [ping], [stats],
    [membership], [drain], [undrain], and [shutdown] answer locally,
    [health] fans out, everything else forwards. *)

type config = {
  listen : string;  (** endpoint string ({!Morpheus_serve.Endpoint}) *)
  shards : (string * string) list;
      (** shard name → endpoint string; names are the ring members *)
  vnodes : int;  (** ring points per shard ({!Ring.create}) *)
  block : int;
      (** ids per routing block: id [i] of a dataset routes by block
          [i / block], so runs of nearby ids stay on one shard *)
  breaker_threshold : int;
      (** consecutive forward failures before a shard's circuit opens *)
  breaker_cooldown : float;  (** seconds an open shard circuit rests *)
  probe_interval : float;
      (** seconds between active health probes of each shard; [<= 0]
          disables the prober (membership then only changes by
          operator [drain]/[undrain]) *)
  probe_timeout : float;
      (** seconds a probe's connect, and each of its reads and
          writes, may take: a shard that accepts but never answers,
          or whose accept backlog is full, counts as a failed probe
          instead of wedging the prober forever. The same bound
          applies to the per-shard health queries of the [health] and
          [stats] ops, which report such a shard ["down"]. *)
  eject_after : int;
      (** consecutive probe failures before the shard leaves the ring
          (never empties the ring: the last in-ring shard stays) *)
  rejoin_after : int;
      (** consecutive probe successes before an ejected or draining
          shard rejoins the ring *)
}

val default_config : listen:string -> shards:(string * string) list -> config
(** vnodes {!Ring.default_vnodes}, block 64, breaker threshold 3 /
    cooldown 1s, probe every 250ms with a 1s probe timeout, eject
    after 3 / rejoin after 2 probes. *)

val routed_op_names : string list
(** The protocol ops the router forwards to shards (the rest are
    answered locally): [score], [score_where], [score_ids], [health],
    [stats] — [stats] in the aggregate: the router answers with its own
    metrics plus the [cluster] section. `morpheus lint` (E208) checks
    this list against the routed-operations table in docs/SERVING.md. *)

type t

val start : config -> t
(** Bind and start the listener (plus the prober when
    [probe_interval > 0]). Raises [Unix.Unix_error] if the endpoint
    cannot be bound, [Invalid_argument] on an empty shard list or
    nonsensical config. *)

val endpoint : t -> Morpheus_serve.Endpoint.t
(** The endpoint actually bound (resolves a [host:0] ephemeral port). *)

val request_stop : t -> unit
val wait : t -> unit
val stop : t -> unit

val metrics : t -> Morpheus_serve.Metrics.t
(** Each answered request counts once: an [ok] reply as a request of
    its op with its latency, any other reply as one error under the
    reply's code. *)

val stats : t -> Morpheus_serve.Json.t
(** The router's [stats] payload: metrics snapshot plus the [cluster]
    section (per-shard breaker and membership state, ring ownership
    histogram, forwarded / scattered / subrequest / failover / expired
    counters). The [stats] protocol op additionally
    live-probes each shard's health, each query bounded by
    [probe_timeout]. *)

val run : config -> unit
(** [start], install SIGINT/SIGTERM stop handlers, block until
    shutdown, then dump the metrics summary plus a cluster line. *)
