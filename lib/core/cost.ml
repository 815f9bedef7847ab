(* Analytic cost model: the arithmetic-computation expressions of the
   paper's Table 3 (and Table 11 with the pseudo-inverse rows), used by
   the cost-based decision rule and checked against the instrumented
   flop counters in tests and in the [table3] bench. *)

type dims = {
  ns : int; (* rows of S (and T) *)
  ds : int; (* columns of S *)
  nr : int; (* rows of R *)
  dr : int; (* columns of R *)
}

let f = float_of_int

type op =
  | Scalar_op
  | Aggregation
  | Lmm of int (* d_X: columns of the multiplier *)
  | Rmm of int (* n_X: rows of the multiplier *)
  | Crossprod
  | Pseudo_inverse
  | Selection (* σ_p: predicate evaluation + row gather *)
  | Group_by (* γ: group ids + per-part count-matrix products *)

(* Parallelizable fraction of each operator's arithmetic, for the
   Amdahl adjustment below. The kernel work (row-partitioned maps and
   chunked reductions in La.Exec) scales; final merges, mirroring and
   block assembly do not. The pseudo-inverse runs through the
   sequential Jacobi SVD, so only its Gram/assembly half scales. *)
let parallel_fraction = function
  | Scalar_op | Aggregation -> 0.90
  | Lmm _ | Rmm _ -> 0.95
  | Crossprod -> 0.95
  | Pseudo_inverse -> 0.50
  | Selection | Group_by -> 0.90

(* Amdahl's law: serial part + parallel part spread over [threads]. *)
let amdahl ~threads op cost =
  if threads <= 1 then cost
  else
    let p = parallel_fraction op in
    cost *. ((1.0 -. p) +. (p /. f threads))

(* Arithmetic computations of the standard (materialized) operator. *)
let standard_arith dims op =
  let { ns; ds; nr = _; dr } = dims in
  let d = f (ds + dr) in
  match op with
  | Scalar_op | Aggregation -> f ns *. d
  | Lmm dx -> f dx *. f ns *. d
  | Rmm nx -> f nx *. f ns *. d
  | Crossprod -> 0.5 *. d *. d *. f ns
  | Pseudo_inverse ->
    if ns > ds + dr then (7.0 *. f ns *. d *. d) +. (20.0 *. (d ** 3.0))
    else (7.0 *. f ns *. f ns *. d) +. (20.0 *. (f ns ** 3.0))
  (* post-hoc masking: the predicate runs over materialized rows and
     the gather touches every surviving column — n·d either way *)
  | Selection -> f ns *. d
  | Group_by -> 2.0 *. f ns *. d

(* Arithmetic computations of the factorized operator. *)
let factorized_arith dims op =
  let { ns; ds; nr; dr } = dims in
  let base = (f ns *. f ds) +. (f nr *. f dr) in
  match op with
  | Scalar_op | Aggregation -> base
  | Lmm dx -> f dx *. base
  | Rmm nx -> f nx *. base
  (* pushed below the join: per-table predicate columns (entity rows +
     attribute base rows), then a gather of S's columns only — the
     attribute side rides along as composed indicator mappings *)
  | Selection -> f ns +. f nr +. (f ns *. f ds)
  (* group ids over n rows, Gᵀ·S scatter, and a (groups × n_R)·R
     product bounded by n_R·d_R *)
  | Group_by -> f ns +. (f ns *. f ds) +. (f nr *. f dr)
  | Crossprod ->
    (0.5 *. f ds *. f ds *. f ns)
    +. (0.5 *. f dr *. f dr *. f nr)
    +. (f ds *. f dr *. f nr)
  | Pseudo_inverse ->
    let d = f (ds + dr) in
    if ns > ds + dr then
      (27.0 *. (d ** 3.0))
      +. (0.5 *. f ds *. f ds *. f ns)
      +. (0.5 *. f dr *. f dr *. f nr)
      +. (f ds *. f dr *. f nr)
      +. (d *. base)
    else
      (27.0 *. (f ns ** 3.0))
      +. (0.5 *. f ns *. f ns *. f ds)
      +. (0.5 *. f nr *. f nr *. f dr)
      +. (f ns *. base)

let standard ?(threads = 1) dims op = amdahl ~threads op (standard_arith dims op)

let factorized ?(threads = 1) dims op =
  amdahl ~threads op (factorized_arith dims op)

(* Predicted speed-up of the factorized operator. Both paths share the
   same parallel fraction, so the Amdahl factors cancel for a fixed
   operator — [threads] is kept in the signature because the decision
   layer compares *whole-algorithm* costs where the pseudo-inverse's
   serial share grows with the thread count. *)
let speedup ?(threads = 1) dims op =
  standard ~threads dims op /. factorized ~threads dims op

(* ---- measured calibration (La.Tune profile → wall-clock model) ----

   The arithmetic expressions above compare flop counts; two measured
   host constants turn them into predicted seconds. [flops_per_sec] is
   the tuned kernels' gemm throughput, [dispatch_overhead] the cost of
   waking the domain pool for one kernel batch — both recorded by the
   autotune sweep (La.Tune / `morpheus tune`). A 0.0 sentinel means
   "unmeasured": predictions then stay in flop units, so the decision
   rule's behavior without a tuned profile is exactly the historical
   flops-ratio rule. *)

type calibration = { flops_per_sec : float; dispatch_overhead : float }

let uncalibrated = { flops_per_sec = 0.0; dispatch_overhead = 0.0 }

let calibration = ref uncalibrated

let set_calibration c =
  calibration :=
    { flops_per_sec =
        (if Float.is_finite c.flops_per_sec then max 0.0 c.flops_per_sec
         else 0.0);
      dispatch_overhead =
        (if Float.is_finite c.dispatch_overhead then
           max 0.0 c.dispatch_overhead
         else 0.0) }

let get_calibration () = !calibration

(* Kernel batches the operator dispatches through the pool: the
   standard path runs one materialized kernel; the factorized rewrite
   issues roughly one per base table plus the combining step (the
   paper's S-part, R-part and assembly — ~3 for a two-table schema).
   Per-invocation overhead is what makes factorization lose on tiny
   inputs even when it saves flops. *)
let invocations ~factorized:fzd _op = if fzd then 3.0 else 1.0

let seconds ~arith ~fzd op =
  let c = !calibration in
  if c.flops_per_sec > 0.0 then
    (arith /. c.flops_per_sec)
    +. (invocations ~factorized:fzd op *. c.dispatch_overhead)
  else arith

let standard_seconds ?(threads = 1) dims op =
  seconds ~arith:(standard ~threads dims op) ~fzd:false op

let factorized_seconds ?(threads = 1) dims op =
  seconds ~arith:(factorized ~threads dims op) ~fzd:true op

(* Measured-time speed-up prediction: collapses to the flops ratio
   when no calibration has been recorded. *)
let speedup_measured ?(threads = 1) dims op =
  standard_seconds ~threads dims op /. factorized_seconds ~threads dims op

(* Selection-aware compaction: §3.7 applied to the selected shape. A
   k-row selection σ·K of one attribute part references u ≤ min(k, n_R)
   distinct rows of R; with P the 0/1 projection onto them,
   σ·K·R = K′·(P·R), so gathering those rows shrinks every later
   product over the selection from n_R to u attribute rows. The gather
   moves u·d_R scalars and re-indexes (a rank pass over n_R, a re-map
   of the k keys); one single-column product then skips (n_R − u)·d_R
   multiply-adds. Both sides count in La.Flops units (one per gathered
   scalar, two per multiply-add) at the same kernel rate, so a
   calibration would cancel: the rule depends on the shape alone. *)
let compacts ~nr ~dr ~k ~u =
  let gather = (f u *. f dr) +. f nr +. f k in
  let saving = 2.0 *. f (nr - u) *. f dr in
  gather < saving

(* Asymptotic speed-up limits from Table 11: 1 + FR as TR → ∞ (linear
   ops), (1 + FR)² for crossprod. *)
let limit_tuple_ratio ~feature_ratio op =
  match op with
  | Scalar_op | Aggregation | Lmm _ | Rmm _ | Selection | Group_by ->
    1.0 +. feature_ratio
  | Crossprod -> (1.0 +. feature_ratio) ** 2.0
  | Pseudo_inverse ->
    14.0 *. ((1.0 +. feature_ratio) ** 2.0) /. ((2.0 *. feature_ratio) +. 3.0)
