(** Factorized linear-algebra operators: the rewrite rules of §3.3
    (single PK-FK), §3.5 (star multi-table), §3.6/appendix D (M:N), and
    appendix A (transposed forms), all over the uniform
    {!Normalized.t} representation.

    Every function here computes exactly what the corresponding operator
    would compute over the materialized T (tested exhaustively against
    {!Materialize}); none of them materializes the join. *)

open La
open Sparse

(** {1 Element-wise scalar operators (§3.3.1)}

    Closure: results are normalized matrices with the same structure,
    so redundancy avoidance propagates through LA pipelines (§3.2). *)

val scale : float -> Normalized.t -> Normalized.t
val add_scalar : float -> Normalized.t -> Normalized.t
val pow : Normalized.t -> float -> Normalized.t

val sq : Normalized.t -> Normalized.t
(** [T^2], K-Means' special case. *)

val map_scalar : (float -> float) -> Normalized.t -> Normalized.t
(** [f(T)] for a scalar function [f]. *)

val exp : Normalized.t -> Normalized.t

val transpose : Normalized.t -> Normalized.t
(** Flip the transpose flag (§3.2); no data is touched. *)

(** {1 Aggregations (§3.3.2)}

    Aggregations and cross-products are memoized on the matrix's
    invariant cells ({!Normalized.memo}): the first call computes, every
    later call returns the cached result at zero flop cost — including
    through {!transpose}, which shares the memo. Callers must not mutate
    returned matrices. See docs/PERFORMANCE.md. *)

val row_sums : Normalized.t -> Dense.t
(** [rowSums(T) → rowSums(S) + Σ Kᵢ·rowSums(Rᵢ)], as an n×1 column. *)

val col_sums : Normalized.t -> Dense.t
(** [colSums(T) → \[colSums(S), colSums(Kᵢ)·Rᵢ, …\]], as a 1×d row. *)

val sum : Normalized.t -> float
(** [sum(T) → sum(S) + Σ colSums(Kᵢ)·rowSums(Rᵢ)]. *)

val row_sums_sq : Normalized.t -> Dense.t
(** [rowSums(T²) → rowSums(S²) + Σ Kᵢ·rowSums(Rᵢ²)]: squaring
    distributes over the gather, so only the base matrices are squared
    (O(size S + Σ size Rᵢ), never O(n·d)). The loop-invariant half of
    K-Means' point-to-centroid distances. *)

val col_sums_sq : Normalized.t -> Dense.t
(** [colSums(T²) → \[colSums(S²), colSums(Kᵢ)·Rᵢ², …\]] — per-column
    squared norms, as a 1×d row. *)

(** {1 Multiplications (§3.3.3–3.3.4)} *)

val lmm : Normalized.t -> Dense.t -> Dense.t
(** [lmm t x] is [T·X], rewritten
    [S·X\[1:dS,\] + Σ Kᵢ(Rᵢ·X\[…\])] — with the order [Kᵢ(RᵢX)], never
    [(KᵢRᵢ)X], which would materialize the join. *)

val rmm : Dense.t -> Normalized.t -> Dense.t
(** [rmm x t] is [X·T → \[X·S, (X·K₁)R₁, …\]]. *)

val tlmm : Normalized.t -> Dense.t -> Dense.t
(** [tlmm t x] is [Tᵀ·X] — the "transposed LMM" the §4 algorithms use,
    rewritten through the Appendix-A transpose rules. *)

(** {1 Cross-products (§3.3.5)} *)

val crossprod : Normalized.t -> Dense.t
(** [TᵀT] by the efficient method (Algorithm 2): [crossprod(S)] blocks,
    weighted cross-products [Rᵢᵀ·diag(colSums Kᵢ)·Rᵢ] on the diagonal,
    [(SᵀKᵢ)Rᵢ] and [Rᵢᵀ(KᵢᵀKⱼ)Rⱼ] off-diagonal. On a transposed input
    this is the Gram matrix [T·Tᵀ] rewrite. *)

val crossprod_naive : Normalized.t -> Dense.t
(** Algorithm 1, kept for the ablation bench: [SᵀS] without the
    symmetry saving and [Rᵀ((KᵀK)R)] instead of the weighted form. *)

(** {1 Inversion (§3.3.6)} *)

val ginv : Normalized.t -> Dense.t
(** Moore-Penrose pseudo-inverse:
    [ginv(T) → ginv(crossprod(T))·Tᵀ] when d < n, else
    [Tᵀ·ginv(crossprod(Tᵀ))]; the outer product is itself factorized. *)

val lstsq : Normalized.t -> Dense.t -> Dense.t
(** Normal-equations solve [ginv(crossprod T)·(Tᵀ·B)] (Algorithm 6's
    core). *)

(** {1 Internal building blocks}

    Exposed for {!Dmm} and the benches. *)

type group = G_ent of Mat.t | G_part of Normalized.part

val groups : Normalized.body -> group list
val group_cols : group -> int

val cross_block : group -> group -> Dense.t
(** The block [gᵢᵀ·gⱼ] of a cross-product for two distinct column
    groups. *)

val dense_tmm : Dense.t -> Mat.t -> Dense.t
(** [aᵀ·b] for dense [a] and either representation of [b]. *)

val ind_tmult : Indicator.t -> Mat.t -> Dense.t
(** [Kᵀ·M] for either representation of [M]. *)
