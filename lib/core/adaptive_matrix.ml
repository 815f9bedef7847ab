(* The full Morpheus execution policy: apply the heuristic decision rule
   (§3.7 / §5.1) once at construction, and either keep the normalized
   matrix (factorized operators) or materialize T up front (standard
   operators). This mirrors Figure 1(c)'s "heuristic decision rule"
   stage sitting in front of the rewrite rules.

   The rule only picks a representation; the operators are the
   evaluator's one Table-1 dispatch ({!Expr.Matrix}). The materialized
   arm holds a {!Regular_matrix.t}, so both routes of the rule share the
   memoization layer. *)

let of_normalized ?tau ?rho nm =
  match Decision.heuristic ?tau ?rho nm with
  | Decision.Factorized -> Expr.Normalized nm
  | Decision.Materialized -> Expr.Regular (Materialize.to_regular nm)

(* Force one path regardless of the rule (used by benches). *)
let factorized nm = Expr.Normalized nm
let materialized nm = Expr.Regular (Materialize.to_regular nm)

let choice = function
  | Expr.Normalized _ -> Decision.Factorized
  | Expr.Scalar _ | Expr.Regular _ -> Decision.Materialized

include Expr.Matrix
