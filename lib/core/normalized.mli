(** The normalized matrix (§3.1, §3.5, §3.6): the paper's new logical
    data type. Represents the join output

    {v T  =  [ S? | I₁M₁ | … | I_pM_p ] v}

    without materializing it, where each attribute part is an indicator
    matrix times a base-table feature matrix. One uniform representation
    covers all the paper's schema shapes:

    - single PK-FK join: [ent = Some s], parts [[(k, r)]];
    - star multi-table PK-FK (§3.5): [ent = Some s], parts
      [[(k1, r1); …; (kq, rq)]];
    - M:N join (§3.6): [ent = None], parts [[(i_s, s); (i_r, r)]].

    A [trans] flag records logical transposition (§3.2), so transposed
    operators reuse the same type via the Appendix-A rules. *)

open Sparse

type part = { ind : Indicator.t; mat : Mat.t }

type body = {
  ent : Mat.t option;  (** the plain entity feature matrix S, if any *)
  parts : part list;  (** attribute parts, in column order *)
}

(** Lazy caches of the loop-invariant factorized quantities (see
    docs/PERFORMANCE.md). Each cell holds the result for the
    {e non-transposed} body; {!Rewrite} dispatches on the transpose flag
    before touching a cell, which is why [Rewrite.transpose] — a pure
    flag flip — shares its argument's memo, while {!map_mats} and
    {!select_rows} (different logical matrices) build fresh cells. *)
type memo = {
  mc_crossprod : La.Dense.t La.Memo.cell;  (** crossprod(T) = TᵀT, d×d *)
  mc_gram : La.Dense.t La.Memo.cell;  (** crossprod(Tᵀ) = TTᵀ, n×n *)
  mc_row_sums : La.Dense.t La.Memo.cell;  (** rowSums(T), n×1 *)
  mc_col_sums : La.Dense.t La.Memo.cell;  (** colSums(T), 1×d *)
  mc_sum : float La.Memo.cell;  (** sum(T) *)
  mc_row_sums_sq : La.Dense.t La.Memo.cell;  (** rowSums(T²), n×1 *)
  mc_col_sums_sq : La.Dense.t La.Memo.cell;  (** colSums(T²), 1×d *)
}

val fresh_memo : unit -> memo
(** Empty cells for a new logical matrix. *)

type t = {
  body : body;
  trans : bool;
  names : string array option;
      (** column names over the global (non-transposed) column space *)
  memo : memo;
}

(** {1 Accessors} *)

val memo : t -> memo

val body : t -> body
val is_transposed : t -> bool
val ent : t -> Mat.t option
val parts : t -> part list

val names : t -> string array option
(** Column names attached with {!with_names} (e.g. by {!Builder} from
    the encoder's output names), or [None] — in which case the matrix
    answers to the positional defaults [c0 … c{d-1}]. *)

(** {1 Construction}

    All constructors validate that indicators share the row count and
    match their attribute matrices; they raise [Invalid_argument]
    otherwise. *)

val make : ?ent:Mat.t -> (Indicator.t * Mat.t) list -> t

val pkfk : s:Mat.t -> k:Indicator.t -> r:Mat.t -> t
(** Single PK-FK join: TN = (S, K, R). *)

val star : s:Mat.t -> parts:(Indicator.t * Mat.t) list -> t
(** Star-schema multi-table PK-FK join. *)

val mn : is_:Indicator.t -> s:Mat.t -> ir:Indicator.t -> r:Mat.t -> t
(** M:N join: T = [I_S·S, I_R·R]. *)

val with_names : string array -> t -> t
(** Attach column names (length must equal {!base_cols}). Names are
    preserved by {!select_rows}, {!map_mats} and transposition. *)

val validate : t -> string list
(** Total re-check of the structural invariants: non-empty body,
    consistent row counts across parts, indicator/attribute dimension
    agreement, indicator key bounds, non-degenerate dims. Returns
    human-readable violations ([[]] when sound) instead of raising —
    run by {!Builder} after construction, by the static checker
    ({!Check}, code E004), and surfaced in {!Explain.describe}. *)

(** {1 Logical dimensions (respect the transpose flag)} *)

val rows : t -> int
val cols : t -> int
val dims : t -> int * int

val base_rows : body -> int
(** n_S (or |T'| for M:N), ignoring transposition. *)

val base_cols : body -> int
(** d = d_S + Σ d_Ri, ignoring transposition. *)

val col_ranges : body -> (int * int) * (int * int) list
(** Column ranges [lo, hi)[ of the entity block and of each attribute
    part within T's column space — how LMM slices its multiplier. *)

(** {1 Statistics} *)

val storage_size : t -> int
(** Stored scalars across base matrices (indicators excluded: they cost
    one integer per row). *)

val redundancy_ratio : t -> float
(** size(T) / (size(S) + Σ size(Rᵢ)) — the speed-up predictor of
    §3.3.1. *)

val tuple_ratio : t -> float
(** TR = n_S / Σ n_Ri (§3.4). *)

val feature_ratio : t -> float
(** FR = Σ d_Ri / d_S (§3.4). *)

val select_rows : t -> int array -> t
(** Row subset T[idx, ] as a normalized matrix: gathers S's rows and
    composes the indicator mappings. Each attribute part is then
    compacted when {!Cost.compacts} prices the gather cheaper than the
    work it saves: Rᵢ is cut to the uᵢ rows the selection references,
    gathered in ascending original order, and the indicator re-mapped
    to uᵢ columns (σ·K·R = K′·(P·R)). It is the same logical matrix,
    and ascending order keeps every output cell's accumulation order.
    So every {!Rewrite} operator over it is bitwise-identical to the
    shared-R selection on finite operands, with one exception:
    [crossprod(T)] folds its reductions over Rᵢ's rows on
    {!La.Exec.reduce}'s chunk grid, which splits at 4096 rows, so once
    Rᵢ has that many it agrees to rounding only. Rᵢ is physically shared
    only when compaction is declined, as it is when most of its rows are
    referenced. Cost: O(|idx|·d_S + Σ n_Ri) plus O(uᵢ·d_Ri) per
    compacted part. Duplicate and reordered indices are allowed
    (mini-batches, bootstrap samples, CV folds). Raises on transposed
    inputs or out-of-range indices. *)

(** {1 Structure-preserving map} *)

val map_mats : (Mat.t -> Mat.t) -> t -> t
(** Map every base matrix, keeping indicators and shape: the form of
    all element-wise scalar rewrites, and the closure property that
    lets scalar ops return normalized matrices (§3.2). *)

val pp : Format.formatter -> t -> unit
