(* The evaluator for the deep-embedded LA expression language — the
   OCaml rendering of Figure 1(c): the user writes the *standard*
   script against logical matrices; the evaluator dispatches every
   operator to the factorized rewrites when an operand is a normalized
   matrix, to plain kernels otherwise, and materializes only where the
   paper's rules require it (element-wise matrix ops, §3.3.7).

   The syntax lives in Ast (re-exported below); static analysis lives
   in Check, of which [shape_of] here is a thin raising wrapper — one
   shape-inference code path for the evaluator, the optimizer, and the
   plan checker.

   In the R prototype this dispatch is S4 operator overloading, each
   operator overloaded once; here that once is [Matrix] below, which
   the ML functors reach through Adaptive_matrix. A deep embedding
   additionally enables the algebraic simplifications of
   [Ast.simplify] and the chain-order optimization below, which an
   overloading-based design cannot see. *)

open Sparse
include Ast

(* ---- shape inference ---- *)

exception Type_error of string

let type_error fmt = Fmt.kstr (fun s -> raise (Type_error s)) fmt

type shape = S_scalar | S_mat of int * int

(* Thin raising wrapper over the checker's total analysis: raise the
   first (innermost, leftmost) shape/type error, otherwise convert the
   abstract shape — fully resolved for concrete environments. *)
let shape_of ~env e =
  match Check.infer_shape ~env e with
  | Error msg -> raise (Type_error msg)
  | Ok Check.Scalar -> S_scalar
  | Ok (Check.Matrix (Some r, Some c)) -> S_mat (r, c)
  | Ok _ -> type_error "unresolved shape for %s" (to_string e)

(* ---- the one Table-1 dispatch ---- *)

(* Every Data_matrix.S operator, dispatched once on the value's
   representation: a regular operand runs the plain kernels
   (Regular_matrix, memo cells included), a normalized one the
   factorized rewrites (Factorized_matrix). The evaluator below and the
   §3.7 rule (Adaptive_matrix) both run through this table. A scalar is
   closed under the element-wise scalar operators, has one row and one
   column, and is its own sum; every other operator needs a matrix. *)
module Matrix = struct
  module R = Regular_matrix
  module F = Factorized_matrix

  type t = value

  (* One row of the table: its scalar, regular and normalized arm. *)
  let dispatch fs fr fn = function
    | Scalar x -> fs x
    | Regular r -> fr r
    | Normalized n -> fn n

  (* A row whose result keeps the operand's representation (§3.2). *)
  let closed fs fr fn =
    dispatch
      (fun x -> Scalar (fs x))
      (fun r -> Regular (fr r))
      (fun n -> Normalized (fn n))

  let no_scalar name _ = type_error "%s of scalar" name

  let rows = dispatch (Fun.const 1) R.rows F.rows
  let cols = dispatch (Fun.const 1) R.cols F.cols
  let scale x = closed (Stdlib.( *. ) x) (R.scale x) (F.scale x)
  let add_scalar x = closed (( +. ) x) (R.add_scalar x) (F.add_scalar x)

  let pow v p =
    closed (fun y -> y ** p) (fun r -> R.pow r p) (fun n -> F.pow n p) v

  let map_scalar f = closed f (R.map_scalar f) (F.map_scalar f)

  let select_rows v idx =
    closed (no_scalar "row selection")
      (fun r -> R.select_rows r idx)
      (fun n -> F.select_rows n idx)
      v

  let row_sums = dispatch (no_scalar "rowSums") R.row_sums F.row_sums
  let col_sums = dispatch (no_scalar "colSums") R.col_sums F.col_sums
  let sum = dispatch Fun.id R.sum F.sum

  let row_sums_sq =
    dispatch (no_scalar "rowSums of squares") R.row_sums_sq F.row_sums_sq

  let lmm = dispatch (no_scalar "lmm") R.lmm F.lmm
  let rmm x = dispatch (no_scalar "rmm") (R.rmm x) (F.rmm x)
  let tlmm = dispatch (no_scalar "tlmm") R.tlmm F.tlmm
  let crossprod = dispatch (no_scalar "crossprod") R.crossprod F.crossprod
  let ginv = dispatch (no_scalar "ginv") R.ginv F.ginv
  let describe = dispatch (Fmt.str "%g") R.describe F.describe
end

(* ---- evaluation with automatic factorization ---- *)

let of_mat m = Regular (Regular_matrix.of_mat m)
let of_dense d = Regular (Regular_matrix.of_dense d)

let as_mat = function
  | Scalar _ -> type_error "expected a matrix, got a scalar"
  | Regular r -> Regular_matrix.to_mat r
  | Normalized n -> Materialize.to_mat n

let as_dense = function
  | Normalized n -> Materialize.to_dense n
  | v -> Mat.dense (as_mat v)

(* Any 1×1 value reads as a scalar, whatever its representation. *)
let as_scalar v =
  if Matrix.rows v = 1 && Matrix.cols v = 1 then Matrix.sum v
  else type_error "expected a scalar"

(* Relational misuse (unknown column, transposed operand, …) surfaces
   as the evaluator's own exception, like every other type error. *)
let rel f = try f () with Relalg.Rel_error msg -> raise (Type_error msg)

let rec eval ?(env = []) e =
  let ev e = eval ~env e in
  match e with
  | Const v -> v
  | Var name -> (
    match List.assoc_opt name env with
    | Some v -> v
    | None -> type_error "unbound variable %s" name)
  | Scale (x, e) -> Matrix.scale x (ev e)
  | Add_scalar (x, e) -> Matrix.add_scalar x (ev e)
  | Pow_scalar (e, p) -> Matrix.pow (ev e) p
  | Map_scalar (_, f, e) -> Matrix.map_scalar f (ev e)
  | Transpose e -> (
    match ev e with
    | Scalar x -> Scalar x
    | Regular r -> of_mat (Mat.transpose (Regular_matrix.to_mat r))
    | Normalized n -> Normalized (Rewrite.transpose n))
  | Row_sums e -> of_dense (Matrix.row_sums (ev e))
  | Col_sums e -> of_dense (Matrix.col_sums (ev e))
  | Sum e -> Scalar (Matrix.sum (ev e))
  | Mult (a, b) -> eval_mult (ev a) (ev b)
  | Crossprod e -> (
    match ev e with
    | Scalar x -> Scalar (x *. x)
    | v -> of_dense (Matrix.crossprod v))
  | Ginv e -> (
    match ev e with
    | Scalar x -> Scalar (if x = 0.0 then 0.0 else 1.0 /. x)
    | v -> of_dense (Matrix.ginv v))
  | Add (a, b) -> eval_elementwise "+" Mat.add (ev a) (ev b)
  | Sub (a, b) -> eval_elementwise "-" Mat.sub (ev a) (ev b)
  | Mul_elem (a, b) -> eval_elementwise "*" Mat.mul_elem (ev a) (ev b)
  | Div_elem (a, b) -> eval_elementwise "/" Mat.div_elem (ev a) (ev b)
  (* Relational operators: the normalized paths never materialize the
     join (per-table masks, part pruning, count-matrix group-by —
     Relalg); Regular operands get the same semantics post hoc. *)
  | Filter (p, e) -> (
    match ev e with
    | Scalar _ -> type_error "filter of scalar"
    | Regular r ->
      of_mat (rel (fun () -> Relalg.filter_mat (Regular_matrix.to_mat r) p))
    | Normalized n -> Normalized (rel (fun () -> Relalg.filter n p)))
  | Project (cols, e) -> (
    match ev e with
    | Scalar _ -> type_error "project of scalar"
    | Regular r ->
      of_mat (rel (fun () -> Relalg.project_mat (Regular_matrix.to_mat r) cols))
    | Normalized n -> Normalized (rel (fun () -> Relalg.project n cols)))
  | Group_agg (keys, agg, e) -> (
    match ev e with
    | Scalar _ -> type_error "groupby of scalar"
    | Regular r ->
      of_dense
        (rel (fun () ->
             Relalg.group_agg_mat (Regular_matrix.to_mat r) ~keys agg))
    | Normalized n -> of_dense (rel (fun () -> Relalg.group_agg n ~keys agg)))

(* Matrix product dispatch: the heart of the automatic factorization.
   A normalized operand on the left routes to the LMM rewrite, on the
   right to the RMM rewrite, on both sides to DMM; scalars distribute. *)
and eval_mult a b =
  match (a, b) with
  | Scalar x, v | v, Scalar x -> Matrix.scale x v
  | Normalized n, Normalized n' -> of_dense (Dmm.mult n n')
  | v, Regular _ -> of_dense (Matrix.lmm v (as_dense b))
  | Regular _, v -> of_dense (Matrix.rmm (as_dense a) v)

(* Element-wise matrix ops are non-factorizable (§3.3.7): a normalized
   operand is materialized. Scalar operands fall back to scalar ops. *)
and eval_elementwise name f a b =
  match (a, b) with
  | Scalar x, Scalar y -> (
    Scalar
      (match name with
      | "+" -> x +. y
      | "-" -> x -. y
      | "*" -> Stdlib.( *. ) x y
      | "/" -> x /. y
      | _ -> assert false))
  | Scalar x, v | v, Scalar x when name = "+" ->
    Matrix.map_scalar (fun y -> x +. y) v
  | v, Scalar x when name = "-" -> Matrix.map_scalar (fun y -> y -. x) v
  | Scalar x, v | v, Scalar x when name = "*" ->
    Matrix.map_scalar (fun y -> Stdlib.( *. ) x y) v
  | v, Scalar x when name = "/" -> Matrix.map_scalar (fun y -> y /. x) v
  | Scalar _, _ | _, Scalar _ ->
    type_error "elementwise %s between scalar and matrix unsupported" name
  | _ -> of_mat (f (as_mat a) (as_mat b))

(* Evaluate to a dense matrix (convenience for callers and tests). *)
let eval_dense ?env e = as_dense (eval ?env e)

let eval_scalar ?env e = as_scalar (eval ?env e)

(* ---- matrix-chain-order optimization ----

   The paper's related work points at matrix-chain-product optimization
   (Matlab's mmtimes, SystemML) as a natural companion to factorized
   rewrites. [optimize] reassociates maximal Mult chains with the
   classic O(m³) dynamic program, using a cost model that knows about
   normalized operands: multiplying a normalized leaf on the left of an
   (k×c) argument costs the *factorized* LMM count, not n·k·c, so the
   chosen parenthesization reflects what will actually execute. *)

module Log = (val Logs.src_log Check.log_src)

let rec flatten_mult = function
  | Mult (a, b) -> flatten_mult a @ flatten_mult b
  | e -> [ e ]

let rec rebuild_mult = function
  | [ e ] -> e
  | es ->
    (* only used for even splits chosen by the DP *)
    let n = List.length es in
    let left = List.filteri (fun i _ -> i < n / 2) es in
    let right = List.filteri (fun i _ -> i >= n / 2) es in
    Mult (rebuild_mult left, rebuild_mult right)

(* Cost of multiplying a (r×k) segment by a (k×c) segment, where the
   left segment might be a single normalized leaf (factorized LMM) and
   the right likewise (factorized RMM). *)
let pair_cost left_seg right_seg r k c =
  let f = float_of_int in
  match (left_seg, right_seg) with
  | [ Const (Normalized t) ], _ when not (Normalized.is_transposed t) ->
    Cost.factorized (Decision.cost_dims t) (Cost.Lmm c)
  | _, [ Const (Normalized t) ] when not (Normalized.is_transposed t) ->
    Cost.factorized (Decision.cost_dims t) (Cost.Rmm r)
  | _ -> f r *. f k *. f c

(* The dims are resolved up front by the checker's *total* shape
   analysis (no exceptions as control flow): [None] means the chain has
   a scalar-shaped or unresolvable leaf and must be left as written. *)
let chain_leaf_dims ~env leaves =
  let dim_of leaf =
    match Check.infer_shape ~env leaf with
    | Ok (Check.Matrix (Some r, Some c)) -> Some (r, c)
    | Ok _ | Error _ -> None
  in
  let dims = List.map dim_of leaves in
  if List.for_all Option.is_some dims then
    Some (Array.of_list (List.map Option.get dims))
  else None

let chain_order ~dims leaves =
  let leaves = Array.of_list leaves in
  let m = Array.length leaves in
  (* dp.(i).(j) = (cost, split) for multiplying leaves i..j *)
  let cost = Array.make_matrix m m 0.0 in
  let split = Array.make_matrix m m 0 in
  for len = 2 to m do
    for i = 0 to m - len do
      let j = i + len - 1 in
      cost.(i).(j) <- infinity ;
      for s = i to j - 1 do
        let r = fst dims.(i) and k = snd dims.(s) and c = snd dims.(j) in
        let left_seg = Array.to_list (Array.sub leaves i (s - i + 1)) in
        let right_seg = Array.to_list (Array.sub leaves (s + 1) (j - s)) in
        let total =
          cost.(i).(s) +. cost.(s + 1).(j) +. pair_cost left_seg right_seg r k c
        in
        if total < cost.(i).(j) then begin
          cost.(i).(j) <- total ;
          split.(i).(j) <- s
        end
      done
    done
  done ;
  let rec build i j =
    if i = j then leaves.(i)
    else begin
      let s = split.(i).(j) in
      Mult (build i s, build (s + 1) j)
    end
  in
  build 0 (m - 1)

(* Reassociate every maximal matrix-product chain of length >= 3.
   Chains containing scalar-shaped or unresolvable operands are left as
   written, reported as W002 on the checker's log source. *)
let rec optimize ?(env = []) e =
  let opt = optimize ~env in
  match e with
  (* σ_p(e)ᵀ · σ_p(e) → crossprod(σ_p(e)): one factorized masked
     cross-product, no materialized intermediate. The syntactic-equality
     test (Ast.equal) makes this safe for any matching operand, not just
     filters. *)
  | Mult (Transpose a, b) when Ast.equal a b -> Crossprod (opt a)
  | Mult _ as chain -> (
    let leaves = List.map opt (flatten_mult chain) in
    if List.length leaves < 3 then rebuild_mult leaves
    else
      match chain_leaf_dims ~env leaves with
      | Some dims -> chain_order ~dims leaves
      | None ->
        Log.warn (fun m ->
            m
              "W002 product-chain order left unoptimized: scalar or \
               unresolvable shape in %s"
              (to_string chain)) ;
        (* keep the chain as written; resolvable sub-chains still get
           reordered by the recursive calls *)
        map_children opt chain)
  | e -> map_children opt e

(* Reference evaluator: materializes every normalized leaf up front and
   uses only plain kernels — the "standard single-table script". Tests
   compare [eval] against this to certify the automatic factorization
   end-to-end. *)
let eval_materialized ?(env = []) e =
  let material = function
    | Normalized n -> Regular (Materialize.to_regular n)
    | v -> v
  in
  let rec mat_leaves = function
    | Const v -> Const (material v)
    | e -> map_children mat_leaves e
  in
  eval ~env:(List.map (fun (k, v) -> (k, material v)) env) (mat_leaves e)
