(** A deep-embedded LA expression language with automatic factorization
    — the OCaml rendering of Figure 1(c). Write the standard script
    against logical matrices; {!eval} dispatches every operator to the
    factorized rewrites when an operand is a normalized matrix, to plain
    kernels otherwise, and materializes only where the paper requires it
    (element-wise matrix ops, §3.3.7).

    The syntax itself lives in {!Ast} (re-exported here, with type
    equalities, so [Expr.t] and [Ast.t] interchange freely); the static
    analysis lives in {!Check}, of which {!shape_of} is a thin raising
    wrapper. *)

open La
open Sparse

type value = Ast.value =
  | Scalar of float
  | Regular of Regular_matrix.t
  | Normalized of Normalized.t

type t = Ast.t =
  | Const of value
  | Var of string
  | Scale of float * t
  | Add_scalar of float * t
  | Pow_scalar of t * float
  | Map_scalar of string * (float -> float) * t  (** named for printing *)
  | Transpose of t
  | Row_sums of t
  | Col_sums of t
  | Sum of t
  | Mult of t * t
  | Crossprod of t
  | Ginv of t
  | Add of t * t
  | Sub of t * t
  | Mul_elem of t * t
  | Div_elem of t * t
  | Filter of Pred.t * t
      (** relational selection σ_p(e) over named columns *)
  | Project of string list * t
      (** relational projection π_cols(e), set semantics *)
  | Group_agg of string list * Relalg.agg * t
      (** group-by aggregation γ_{keys; agg}(e) *)

(** {1 Constructors} *)

val scalar : float -> t
val regular : Mat.t -> t
val dense : Dense.t -> t
val normalized : Normalized.t -> t
val var : string -> t

val ( *@ ) : t -> t -> t
(** Matrix product (R's [%*%]). *)

val ( +@ ) : t -> t -> t
val ( -@ ) : t -> t -> t

val ( *.@ ) : float -> t -> t
(** Scalar multiple. *)

val tr : t -> t
(** Transpose. *)

val filter : Pred.t -> t -> t
val project : string list -> t -> t
val group_agg : string list -> Relalg.agg -> t -> t

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** {1 Simplification}

    Bottom-up local rules: double-transpose elimination, scalar fusion,
    transpose pushdown, and the Appendix-A aggregation swaps
    (rowSums(eᵀ) → colSums(e)ᵀ etc.). Semantics-preserving. *)

val simplify : t -> t

val optimize : ?env:(string * value) list -> t -> t
(** Matrix-chain-order optimization (the related-work companion to the
    rewrites: mmtimes / SystemML): reassociates every maximal product
    chain of length ≥ 3 by the classic dynamic program, with a cost
    model that charges normalized leaves their *factorized* LMM/RMM
    counts. Associativity-preserving. Leaf shapes are resolved by the
    checker's total analysis; chains containing scalar operands or
    unresolvable shapes are left as written and reported as W002 on
    {!Check.log_src}.

    Additionally recognizes the [σ_p(e)ᵀ · σ_p(e)] pattern
    ([Mult (Transpose a, b)] with [a] syntactically equal to [b],
    {!Ast.equal}) and rewrites it to [Crossprod a] — for a filtered
    normalized operand this runs the factorized masked cross-product
    with no materialized intermediate (docs/PLANNER.md). The
    relational pushdown rules themselves (filter fusion, selection
    below projection, projection collapse) live in {!Ast.simplify};
    [morpheus check --explain] runs both. *)

(** {1 Shape inference} *)

exception Type_error of string

type shape = S_scalar | S_mat of int * int

val shape_of : env:(string * value) list -> t -> shape
(** Raises {!Type_error} on dimension mismatches or unbound variables.
    A thin wrapper over {!Check.infer_shape} — the single
    shape-inference code path — raising the first (innermost, leftmost)
    error the checker diagnoses. *)

(** {1 Evaluation} *)

module Matrix : Data_matrix.S with type t = value
(** The one Table-1 dispatch: each {!Data_matrix.S} operator matched
    once on the value's representation — {!Regular_matrix} (memo cells
    included) for a regular value, {!Factorized_matrix} for a normalized
    one. {!eval} and {!Adaptive_matrix} both run through it. A scalar
    is closed under the element-wise scalar operators, has one row and
    one column, and is its own sum; the other operators raise
    {!Type_error} on it. *)

val eval : ?env:(string * value) list -> t -> value
(** Evaluate with automatic factorization. *)

val eval_dense : ?env:(string * value) list -> t -> Dense.t
val eval_scalar : ?env:(string * value) list -> t -> float

val eval_materialized : ?env:(string * value) list -> t -> value
(** Reference evaluator: every normalized leaf is materialized up
    front, so only plain kernels run — the "standard single-table
    script" baseline. *)

val as_dense : value -> Dense.t
val as_mat : value -> Mat.t

val as_scalar : value -> float
(** A scalar, or any 1×1 matrix value (regular or normalized). *)
