(* The abstract syntax of the deep-embedded LA expression language —
   the OCaml rendering of Figure 1(c)'s standard script, shared by the
   static plan checker (Check, which abstractly interprets it) and the
   evaluator (Expr, which dispatches every operator to the factorized
   rewrites and re-exports this module). Keeping the syntax separate
   breaks the dependency cycle that a single Expr module would create:
   Expr's shape inference is a thin wrapper over Check, and Check needs
   the expression type. *)

(* A regular value carries the memoizing {!Regular_matrix.t}, so repeat
   aggregations and cross-products of one leaf cost zero flops, as they
   do for a normalized one. *)
type value =
  | Scalar of float
  | Regular of Regular_matrix.t
  | Normalized of Normalized.t

type t =
  | Const of value
  | Var of string
  | Scale of float * t (* x · e *)
  | Add_scalar of float * t
  | Pow_scalar of t * float
  | Map_scalar of string * (float -> float) * t (* named for printing *)
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
  (* relational nodes (docs/PLANNER.md): first-class selection,
     projection and group-by over the expression DAG, so the optimizer
     can push them below the join instead of the relational layer
     running them eagerly *)
  | Filter of Pred.t * t
  | Project of string list * t
  | Group_agg of string list * Relalg.agg * t

(* The Ast constructor names of the relational nodes — the fact the
   source lint (E206) checks against docs/REWRITE_RULES.md. *)
let relational_node_names = [ "Filter"; "Project"; "Group_agg" ]

(* ---- convenience constructors ---- *)

let scalar x = Const (Scalar x)
let regular m = Const (Regular (Regular_matrix.of_mat m))
let dense d = Const (Regular (Regular_matrix.of_dense d))
let normalized n = Const (Normalized n)
let var name = Var name

let ( *@ ) a b = Mult (a, b)
let ( +@ ) a b = Add (a, b)
let ( -@ ) a b = Sub (a, b)
let ( *.@ ) x e = Scale (x, e)
let tr e = Transpose e
let filter p e = Filter (p, e)
let project cols e = Project (cols, e)
let group_agg keys agg e = Group_agg (keys, agg, e)

(* ---- printing ---- *)

let rec pp ppf = function
  | Const (Scalar x) -> Fmt.pf ppf "%g" x
  | Const (Regular m) ->
    Fmt.pf ppf "[%dx%d]" (Regular_matrix.rows m) (Regular_matrix.cols m)
  | Const (Normalized n) ->
    Fmt.pf ppf "T<%dx%d>" (Normalized.rows n) (Normalized.cols n)
  | Var name -> Fmt.string ppf name
  | Scale (x, e) -> Fmt.pf ppf "(%g * %a)" x pp e
  | Add_scalar (x, e) -> Fmt.pf ppf "(%a + %g)" pp e x
  | Pow_scalar (e, p) -> Fmt.pf ppf "(%a ^ %g)" pp e p
  | Map_scalar (name, _, e) -> Fmt.pf ppf "%s(%a)" name pp e
  | Transpose e -> Fmt.pf ppf "%a'" pp e
  | Row_sums e -> Fmt.pf ppf "rowSums(%a)" pp e
  | Col_sums e -> Fmt.pf ppf "colSums(%a)" pp e
  | Sum e -> Fmt.pf ppf "sum(%a)" pp e
  | Mult (a, b) -> Fmt.pf ppf "(%a %%*%% %a)" pp a pp b
  | Crossprod e -> Fmt.pf ppf "crossprod(%a)" pp e
  | Ginv e -> Fmt.pf ppf "ginv(%a)" pp e
  | Add (a, b) -> Fmt.pf ppf "(%a + %a)" pp a pp b
  | Sub (a, b) -> Fmt.pf ppf "(%a - %a)" pp a pp b
  | Mul_elem (a, b) -> Fmt.pf ppf "(%a * %a)" pp a pp b
  | Div_elem (a, b) -> Fmt.pf ppf "(%a / %a)" pp a pp b
  | Filter (p, e) -> Fmt.pf ppf "filter(%a, %s)" pp e (Pred.to_string p)
  | Project (cols, e) ->
    Fmt.pf ppf "project(%a, %s)" pp e (String.concat ", " cols)
  | Group_agg (keys, agg, e) ->
    Fmt.pf ppf "groupby(%a, %s, %s)" pp e (Relalg.agg_name agg)
      (String.concat ", " keys)

let to_string e = Fmt.str "%a" pp e

(* ---- algebraic simplification ---- *)

(* Rebuild one node with [f] applied to each of its [children] — the
   per-constructor rebuild every bottom-up pass shares. *)
let map_children f e =
  match e with
  | Const _ | Var _ -> e
  | Scale (x, a) -> Scale (x, f a)
  | Add_scalar (x, a) -> Add_scalar (x, f a)
  | Pow_scalar (a, p) -> Pow_scalar (f a, p)
  | Map_scalar (n, g, a) -> Map_scalar (n, g, f a)
  | Transpose a -> Transpose (f a)
  | Row_sums a -> Row_sums (f a)
  | Col_sums a -> Col_sums (f a)
  | Sum a -> Sum (f a)
  | Crossprod a -> Crossprod (f a)
  | Ginv a -> Ginv (f a)
  | Filter (p, a) -> Filter (p, f a)
  | Project (cols, a) -> Project (cols, f a)
  | Group_agg (keys, agg, a) -> Group_agg (keys, agg, f a)
  | Mult (a, b) -> Mult (f a, f b)
  | Add (a, b) -> Add (f a, f b)
  | Sub (a, b) -> Sub (f a, f b)
  | Mul_elem (a, b) -> Mul_elem (f a, f b)
  | Div_elem (a, b) -> Div_elem (f a, f b)

(* One bottom-up pass of local rules:
   - (eᵀ)ᵀ → e
   - a·(b·e) → (a·b)·e            (scalar fusion)
   - (x·e)ᵀ → x·eᵀ                (transpose pushdown; exposes the
                                    Appendix-A rules underneath)
   - rowSums(eᵀ) → colSums(e)ᵀ and symmetrically (Appendix A)
   - sum(eᵀ) → sum(e)
   - crossprod(e) stays; ginv(ginv-free) stays
   - σ_p(σ_q(e)) → σ_{p∧q}(e)         (filter fusion)
   - σ_p(π_cs(e)) → π_cs(σ_p(e))      (selection below projection,
                                        when p only reads kept columns)
   - π_cs(π_ds(e)) → π_cs(e)          (projection collapse, cs ⊆ ds). *)
let rec simplify e =
  match map_children simplify e with
  | Transpose (Transpose e) -> e
  | Scale (x, Scale (y, e)) -> Scale (Stdlib.( *. ) x y, e)
  | Transpose (Scale (x, e)) -> Scale (x, simplify (Transpose e))
  | Row_sums (Transpose e) -> Transpose (Col_sums e)
  | Col_sums (Transpose e) -> Transpose (Row_sums e)
  | Sum (Transpose e) -> Sum e
  | Filter (p, Filter (q, e)) -> Filter (Pred.And (p, q), e)
  | Filter (p, Project (cols, e))
    when List.for_all (fun c -> List.mem c cols) (Pred.columns p) ->
    Project (cols, simplify (Filter (p, e)))
  | Project (cols, Project (inner, e))
    when List.for_all (fun c -> List.mem c inner) cols ->
    Project (cols, e)
  | e -> e

(* ---- tree structure and paths ---- *)

type path = int list

let children = function
  | Const _ | Var _ -> []
  | Scale (_, e)
  | Add_scalar (_, e)
  | Pow_scalar (e, _)
  | Map_scalar (_, _, e)
  | Transpose e
  | Row_sums e
  | Col_sums e
  | Sum e
  | Crossprod e
  | Ginv e
  | Filter (_, e)
  | Project (_, e)
  | Group_agg (_, _, e) ->
    [ e ]
  | Mult (a, b) | Add (a, b) | Sub (a, b) | Mul_elem (a, b) | Div_elem (a, b)
    ->
    [ a; b ]

let node_label = function
  | Const (Scalar x) -> Printf.sprintf "const %g" x
  | Const (Regular m) ->
    Printf.sprintf "const [%dx%d]" (Regular_matrix.rows m)
      (Regular_matrix.cols m)
  | Const (Normalized n) ->
    Printf.sprintf "normalized T<%dx%d>" (Normalized.rows n)
      (Normalized.cols n)
  | Var name -> "var " ^ name
  | Scale (x, _) -> Printf.sprintf "scale %g" x
  | Add_scalar (x, _) -> Printf.sprintf "add-scalar %g" x
  | Pow_scalar (_, p) -> Printf.sprintf "pow %g" p
  | Map_scalar (name, _, _) -> "map " ^ name
  | Transpose _ -> "transpose"
  | Row_sums _ -> "rowSums"
  | Col_sums _ -> "colSums"
  | Sum _ -> "sum"
  | Mult _ -> "mult"
  | Crossprod _ -> "crossprod"
  | Ginv _ -> "ginv"
  | Add _ -> "add"
  | Sub _ -> "sub"
  | Mul_elem _ -> "mul-elem"
  | Div_elem _ -> "div-elem"
  | Filter (p, _) -> Printf.sprintf "filter [%s]" (Pred.to_string p)
  | Project (cols, _) ->
    Printf.sprintf "project [%s]" (String.concat ", " cols)
  | Group_agg (keys, agg, _) ->
    Printf.sprintf "groupby [%s; %s]" (Relalg.agg_name agg)
      (String.concat ", " keys)

let rec subterm e = function
  | [] -> Some e
  | i :: rest -> (
    match List.nth_opt (children e) i with
    | Some c -> subterm c rest
    | None -> None)

(* Edge names: "left"/"right" for binary nodes, "arg" for unary. *)
let edge_name e i =
  match children e with
  | [ _ ] -> "arg"
  | [ _; _ ] -> if i = 0 then "left" else "right"
  | _ -> string_of_int i

let path_string root path =
  let rec go e = function
    | [] -> []
    | i :: rest -> (
      let step = Printf.sprintf "%s/%s" (node_label e) (edge_name e i) in
      match List.nth_opt (children e) i with
      | Some c -> step :: go c rest
      | None -> [ step ^ "?" ])
  in
  match go root path with
  | [] -> "root"
  | steps -> String.concat " › " steps

(* ---- structural equality ---- *)

(* Syntactic equality, safe on every constructor: polymorphic compare
   would raise on Map_scalar's closure and is needlessly deep on Const
   payloads, so constants compare physically (scalars by value) and
   mapped functions by name + physical function. Used by the optimizer
   to spot eᵀ·e patterns (σ_p(T)ᵀ · σ_p(T) → crossprod). *)
let rec equal a b =
  match (a, b) with
  | Const (Scalar x), Const (Scalar y) -> x = y
  | Const (Regular m1), Const (Regular m2) ->
    Regular_matrix.to_mat m1 == Regular_matrix.to_mat m2
  | Const (Normalized n1), Const (Normalized n2) -> n1 == n2
  | Var n1, Var n2 -> n1 = n2
  | Scale (x, e1), Scale (y, e2) -> x = y && equal e1 e2
  | Add_scalar (x, e1), Add_scalar (y, e2) -> x = y && equal e1 e2
  | Pow_scalar (e1, x), Pow_scalar (e2, y) -> x = y && equal e1 e2
  | Map_scalar (n1, f1, e1), Map_scalar (n2, f2, e2) ->
    n1 = n2 && f1 == f2 && equal e1 e2
  | Transpose e1, Transpose e2
  | Row_sums e1, Row_sums e2
  | Col_sums e1, Col_sums e2
  | Sum e1, Sum e2
  | Crossprod e1, Crossprod e2
  | Ginv e1, Ginv e2 ->
    equal e1 e2
  | Mult (a1, b1), Mult (a2, b2)
  | Add (a1, b1), Add (a2, b2)
  | Sub (a1, b1), Sub (a2, b2)
  | Mul_elem (a1, b1), Mul_elem (a2, b2)
  | Div_elem (a1, b1), Div_elem (a2, b2) ->
    equal a1 a2 && equal b1 b2
  | Filter (p1, e1), Filter (p2, e2) -> Pred.equal p1 p2 && equal e1 e2
  | Project (c1, e1), Project (c2, e2) -> c1 = c2 && equal e1 e2
  | Group_agg (k1, g1, e1), Group_agg (k2, g2, e2) ->
    k1 = k2 && g1 = g2 && equal e1 e2
  | _ -> false
