(** The full Morpheus execution policy (Figure 1(c)): apply the §3.7
    heuristic decision rule once at construction and either keep the
    normalized matrix (factorized operators) or materialize T up front
    (standard operators). The operators are {!Expr.Matrix}, the one
    Table-1 dispatch, so every ML functor can run behind the rule. *)

type t

val of_normalized : ?tau:float -> ?rho:float -> Normalized.t -> t
(** Route by the heuristic rule (defaults τ = 5, ρ = 1). *)

val factorized : Normalized.t -> t
(** Force the factorized path (benches). *)

val materialized : Normalized.t -> t
(** Force materialization (benches). *)

val choice : t -> Decision.choice
(** Which path this matrix runs on. *)

(** {1 The Data_matrix.S operations} *)

include Data_matrix.S with type t := t
