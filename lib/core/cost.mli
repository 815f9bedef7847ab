(** Analytic cost model: the arithmetic-computation expressions of
    Table 3 (and the pseudo-inverse rows of Table 11), used by the
    cost-based decision rule and validated against the instrumented
    {!La.Flops} counters. *)

type dims = {
  ns : int;  (** rows of S (and of T) *)
  ds : int;  (** columns of S *)
  nr : int;  (** rows of R *)
  dr : int;  (** columns of R *)
}

type op =
  | Scalar_op
  | Aggregation
  | Lmm of int  (** columns of the multiplier, d_X *)
  | Rmm of int  (** rows of the multiplier, n_X *)
  | Crossprod
  | Pseudo_inverse
  | Selection
      (** relational σ_p: standard = post-hoc mask over materialized
          rows (n·d); factorized = per-table predicate evaluation
          through the indicators + an S-column gather (n + n_R + n·d_S)
          — docs/PLANNER.md *)
  | Group_by
      (** relational γ: standard = group ids + scatter over
          materialized rows (2·n·d); factorized = ids + Gᵀ·S + per-part
          count-matrix products (n + n·d_S + n_R·d_R) *)

val parallel_fraction : op -> float
(** Fraction of the operator's arithmetic the execution engine can
    spread over domains (Amdahl's parallelizable share): ~0.9–0.95 for
    the row-partitioned kernels, 0.5 for the pseudo-inverse (its SVD
    is sequential). *)

val standard : ?threads:int -> dims -> op -> float
(** Arithmetic computations of the materialized operator (Table 3,
    "Standard" column). [?threads] (default 1) applies the Amdahl
    adjustment [serial + parallel/threads] to model multi-domain
    execution. *)

val factorized : ?threads:int -> dims -> op -> float
(** Arithmetic computations of the factorized operator (Table 3,
    "Factorized" column), with the same Amdahl [?threads] knob. *)

val speedup : ?threads:int -> dims -> op -> float
(** [standard / factorized] at the given thread count. For a single
    operator the Amdahl factors cancel; the knob matters when
    comparing whole-algorithm costs mixing kernel and SVD work. *)

(** {1 Measured calibration}

    Two host constants recorded by the autotune sweep ({!La.Tune} /
    [morpheus tune]) turn the flop expressions into predicted seconds.
    With the default 0.0 sentinels ("unmeasured") every [_seconds]
    function returns plain flop counts, so ratios — and therefore the
    decision rule — are unchanged until a profile has been measured. *)

type calibration = {
  flops_per_sec : float;  (** tuned gemm throughput; 0 = unmeasured *)
  dispatch_overhead : float;
      (** seconds per kernel batch dispatched to the pool; 0 = unmeasured *)
}

val uncalibrated : calibration

val set_calibration : calibration -> unit
(** Install measured constants (negative/non-finite fields are clamped
    to the unmeasured sentinel). *)

val get_calibration : unit -> calibration

val standard_seconds : ?threads:int -> dims -> op -> float
(** Predicted wall-clock of the materialized operator: [flops/rate]
    plus one kernel-batch dispatch. Falls back to {!standard} (flop
    units) when uncalibrated. *)

val factorized_seconds : ?threads:int -> dims -> op -> float
(** Predicted wall-clock of the factorized operator: [flops/rate] plus
    ~3 kernel-batch dispatches (per-table parts + assembly), which is
    what makes factorization lose on tiny inputs even when it saves
    flops. Falls back to {!factorized} when uncalibrated. *)

val speedup_measured : ?threads:int -> dims -> op -> float
(** [standard_seconds / factorized_seconds]; equals {!speedup} until a
    calibration is installed. *)

val compacts : nr:int -> dr:int -> k:int -> u:int -> bool
(** Selection-aware compaction (§3.7 on the selected shape): whether a
    [k]-row selection of an [nr × dr] attribute table whose composed
    mapping references [u] distinct rows should gather those rows
    (σ·K·R = K′·(P·R)). True when the gather — [u·dr] scalars plus the
    [nr + k] index work — costs less than the [(nr − u)·dr]
    multiply-adds one single-column product over the selection saves.
    Uses only the shape: both sides run at the same kernel rate, so the
    calibration cancels. {!Normalized.select_rows} asks it at run time
    and {!Check} statically, with an estimated [u]. *)

val limit_tuple_ratio : feature_ratio:float -> op -> float
(** Table 11's asymptotic speed-up as TR → ∞: [1 + FR] for linear ops,
    [(1 + FR)²] for the cross-product, [14(1+FR)²/(2FR+3)] for the
    pseudo-inverse. *)
