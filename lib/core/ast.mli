(** The abstract syntax of the LA expression DSL, split out of {!Expr}
    so that the static plan checker ({!Check}) and the evaluator
    ({!Expr}) share a single definition without a dependency cycle:
    [Ast] is pure syntax (constructors, printing, syntactic
    simplification, tree paths); [Check] abstractly interprets it;
    [Expr] evaluates it and re-exports everything here. *)

open La
open Sparse

type value =
  | Scalar of float
  | Regular of Regular_matrix.t
      (** a regular matrix with its memo cells: repeat aggregations and
          cross-products of one value cost zero flops *)
  | Normalized of Normalized.t

type t =
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

val relational_node_names : string list
(** Constructor names of the relational nodes, in declaration order —
    checked against docs/REWRITE_RULES.md by [morpheus lint] (E206). *)

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
    transpose pushdown, the Appendix-A aggregation swaps
    (rowSums(eᵀ) → colSums(e)ᵀ etc.), and the relational fusion rules
    (filter fusion, selection below projection, projection collapse —
    docs/PLANNER.md). Semantics-preserving. *)

val simplify : t -> t

val equal : t -> t -> bool
(** Syntactic equality, total on every constructor (constants and mapped
    functions compare physically). The optimizer's test for
    [σ_p(T)ᵀ · σ_p(T)] patterns. *)

(** {1 Tree structure and paths}

    A path addresses a subterm as the sequence of child indices from the
    root; the checker attaches every diagnostic and annotation to one. *)

type path = int list

val children : t -> t list

val map_children : (t -> t) -> t -> t
(** The node rebuilt with [f] applied to each of its {!children}; leaves
    are returned unchanged. The shared step of every bottom-up pass
    ({!simplify}, [Expr.optimize], [Expr.eval_materialized]). *)

val node_label : t -> string
(** Short operator head for annotations, e.g. ["mult"], ["crossprod"],
    ["var w"]. *)

val subterm : t -> path -> t option
(** The subterm a path points at, or [None] if the path runs off the
    tree. *)

val path_string : t -> path -> string
(** Human-readable rendering of a path within a given root, e.g.
    ["mult/left › ginv/arg"]; ["root"] for the empty path. *)
