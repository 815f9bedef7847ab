(** Wall-clock measurement for the benches: GC-isolated single runs and
    warmup + median-of-runs, enough to read off the speed-up ratios the
    paper reports. *)

val now : unit -> float
(** Monotonic seconds since an arbitrary epoch (CLOCK_MONOTONIC).
    Use only differences; never compare against calendar time. *)

val time : (unit -> 'a) -> 'a * float
(** One run's result and wall-clock seconds. A full major collection
    runs first so leftover garbage from previous measurements is not
    charged to this one. *)

val measure : ?warmup:int -> ?runs:int -> (unit -> 'a) -> float
(** Median seconds over [runs] measured executions after [warmup]
    unmeasured ones (defaults 1 and 3). *)

val percentile : float -> float array -> float
(** [percentile p xs]: the nearest-rank [p]th percentile ([p] in
    percent), the smallest sample with at least [p] percent of [xs] at
    or below it. [xs] is not modified; [nan] when it is empty. *)

(** {1 Allocation-aware measurement}

    Wall-clock time plus [Gc.quick_stat] heap-allocation deltas, the
    observable behind the allocation columns of BENCH_memo.json: the
    [_into] kernels and preallocated ML workspaces show up as
    minor/major words dropping, not just as time. Counters are
    per-domain; work done on Exec pool domains is not charged. *)

type alloc = {
  seconds : float;
  minor_words : float;  (** words allocated on the minor heap *)
  major_words : float;  (** words allocated directly on the major heap *)
  promoted_words : float;  (** minor-heap survivors moved to the major heap *)
}

val time_alloc : (unit -> 'a) -> 'a * alloc
(** One GC-isolated run's result, seconds, and allocation deltas. *)

val measure_alloc : ?warmup:int -> ?runs:int -> (unit -> 'a) -> alloc
(** Median seconds over [runs] measured executions after [warmup]
    unmeasured ones, with the (deterministic) allocation counters of a
    single run. *)

val speedup : materialized:float -> factorized:float -> float

val pp_seconds : Format.formatter -> float -> unit
