(* Tests for the expression DSL: automatic factorization must be
   observationally identical to the materialized reference evaluator on
   every expression form, simplification must preserve semantics, and
   shape inference must catch ill-typed scripts. *)

open La
open Morpheus
open Test_support

let check_close = Gen.check_close

let t0 () = Gen.normalized ~seed:21 Gen.Star2
let t_mn () = Gen.normalized ~seed:22 ~sparse:true Gen.Mn

(* compare factorized vs materialized evaluation of an expression *)
let both_ways name e =
  let f = Expr.eval e in
  let m = Expr.eval_materialized e in
  match (f, m) with
  | Expr.Scalar x, Expr.Scalar y ->
    if Float.abs (x -. y) > 1e-7 *. (1.0 +. Float.abs y) then
      Alcotest.failf "%s: scalar %g vs %g" name x y
  | _ -> check_close ~tol:1e-7 name (Expr.as_dense m) (Expr.as_dense f)

let test_scalar_pipeline () =
  let t = Expr.normalized (t0 ()) in
  both_ways "sum(2*(T^2) + 1)"
    Expr.(Sum (Add_scalar (1.0, Scale (2.0, Pow_scalar (t, 2.0)))))

let test_aggregations () =
  let t = Expr.normalized (t0 ()) in
  both_ways "rowSums" Expr.(Row_sums t) ;
  both_ways "colSums" Expr.(Col_sums t) ;
  both_ways "rowSums of transpose" Expr.(Row_sums (Transpose t)) ;
  both_ways "sum of scaled" Expr.(Sum (Scale (3.0, t)))

let test_products () =
  let tn = t0 () in
  let t = Expr.normalized tn in
  let x = Expr.dense (Dense.random ~rng:(Rng.of_int 30) (Normalized.cols tn) 2) in
  let z = Expr.dense (Dense.random ~rng:(Rng.of_int 31) 2 (Normalized.rows tn)) in
  both_ways "T*X (LMM)" Expr.(t *@ x) ;
  both_ways "Z*T (RMM)" Expr.(z *@ t) ;
  both_ways "T'*(T*X) chains" Expr.(tr t *@ (t *@ x)) ;
  both_ways "crossprod" Expr.(Crossprod t) ;
  both_ways "gram" Expr.(Crossprod (Transpose t))

let test_dmm_via_expr () =
  let a = t0 () in
  let b = Gen.normalized ~seed:23 Gen.Pkfk in
  (* Aᵀ·B requires equal row counts: build b with same rows via gram trick
     instead: use A'·A which routes to DMM when both sides normalized *)
  ignore b ;
  both_ways "T'*T via DMM"
    Expr.(tr (Expr.normalized a) *@ Expr.normalized a)

let test_elementwise_materializes () =
  let tn = t_mn () in
  let n, d = Normalized.dims tn in
  let x = Expr.dense (Dense.add_scalar 1.5 (Dense.random ~rng:(Rng.of_int 32) n d)) in
  let t = Expr.normalized tn in
  both_ways "T + X" Expr.(t +@ x) ;
  both_ways "T - X" Expr.(t -@ x) ;
  both_ways "T .* X" Expr.(Mul_elem (t, x)) ;
  both_ways "X ./ T(+2)" Expr.(Div_elem (x, Add_scalar (2.0, t)))

let test_ginv_expr () =
  let rng = Rng.of_int 33 in
  let s = Sparse.Mat.of_dense (Dense.random ~rng 30 3) in
  let r = Sparse.Mat.of_dense (Dense.random ~rng 5 3) in
  let k = Sparse.Indicator.random ~rng ~rows:30 ~cols:5 () in
  let t = Normalized.pkfk ~s ~k ~r in
  both_ways "ginv" Expr.(Ginv (Expr.normalized t))

(* the full logistic-regression update as one expression *)
let test_logreg_update_expression () =
  let tn = t0 () in
  let n = Normalized.rows tn in
  let d = Normalized.cols tn in
  let w = Dense.random ~rng:(Rng.of_int 34) d 1 in
  let y = Dense.init n 1 (fun i _ -> if i mod 2 = 0 then 1.0 else -1.0) in
  let t = Expr.normalized tn in
  let update =
    (* w + α·Tᵀ(Y / (1 + exp(T·w))) *)
    Expr.(
      dense w
      +@ Scale
           ( 0.01,
             tr t
             *@ Div_elem
                  ( dense y,
                    Add_scalar (1.0, Map_scalar ("exp", Stdlib.exp, t *@ dense w)) ) ))
  in
  both_ways "logreg update" update

(* ---- simplification ---- *)

let test_simplify_double_transpose () =
  let t = Expr.normalized (t0 ()) in
  let e = Expr.(Transpose (Transpose t)) in
  Alcotest.(check string) "Tᵀᵀ → T" (Expr.to_string t)
    (Expr.to_string (Expr.simplify e))

let test_simplify_scalar_fusion () =
  let t = Expr.normalized (t0 ()) in
  let e = Expr.(Scale (2.0, Scale (3.0, t))) in
  match Expr.simplify e with
  | Expr.Scale (x, _) -> Alcotest.(check (float 0.)) "fused" 6.0 x
  | _ -> Alcotest.fail "expected fused Scale"

let test_simplify_preserves_semantics () =
  let tn = t0 () in
  let t = Expr.normalized tn in
  let x = Expr.dense (Dense.random ~rng:(Rng.of_int 35) (Normalized.rows tn) 1) in
  let exprs =
    [ Expr.(Row_sums (Transpose (Scale (2.0, t))));
      Expr.(Sum (Transpose t));
      Expr.(Transpose (Transpose (Col_sums t)));
      Expr.(tr (Scale (0.5, t)) *@ x) ]
  in
  List.iter
    (fun e ->
      let simplified = Expr.simplify e in
      let a = Expr.eval e and b = Expr.eval simplified in
      match (a, b) with
      | Expr.Scalar x, Expr.Scalar y ->
        Alcotest.(check (float 1e-9)) "scalar preserved" x y
      | _ ->
        check_close ~tol:1e-9
          ("simplify preserves " ^ Expr.to_string e)
          (Expr.as_dense a) (Expr.as_dense b))
    exprs

(* ---- shape inference & typing ---- *)

let test_shape_inference () =
  let tn = t0 () in
  let n, d = Normalized.dims tn in
  let t = Expr.normalized tn in
  let x = Expr.dense (Dense.create d 3) in
  Alcotest.(check bool) "product shape" true
    (Expr.shape_of ~env:[] Expr.(t *@ x) = Expr.S_mat (n, 3)) ;
  Alcotest.(check bool) "crossprod shape" true
    (Expr.shape_of ~env:[] Expr.(Crossprod t) = Expr.S_mat (d, d)) ;
  Alcotest.(check bool) "sum is scalar" true
    (Expr.shape_of ~env:[] Expr.(Sum t) = Expr.S_scalar)

let test_type_errors () =
  let t = Expr.normalized (t0 ()) in
  let bad = Expr.(t *@ t) in
  Alcotest.(check bool) "bad product rejected" true
    (try
       ignore (Expr.shape_of ~env:[] bad) ;
       false
     with Expr.Type_error _ -> true) ;
  Alcotest.(check bool) "unbound var" true
    (try
       ignore (Expr.eval (Expr.var "nope")) ;
       false
     with Expr.Type_error _ -> true)

let test_env_binding () =
  let tn = t0 () in
  let env = [ ("T", Expr.Normalized tn) ] in
  let e = Expr.(Sum (var "T")) in
  match Expr.eval ~env e with
  | Expr.Scalar x ->
    Alcotest.(check (float 1e-7)) "env eval" (Rewrite.sum tn) x
  | _ -> Alcotest.fail "expected scalar"

(* A 1×1 matrix reads as a scalar whatever its representation; the
   checker already accepts a 1×1 normalized value. *)
let test_one_by_one_reads_as_scalar () =
  let r = Sparse.Mat.of_dense (Dense.of_arrays [| [| 2.5 |] |]) in
  let t = Normalized.make [ (Sparse.Indicator.create ~cols:1 [| 0 |], r) ] in
  Alcotest.(check int) "checker reports no error" 0
    (List.length (Check.errors (Check.analyze (Expr.normalized t)))) ;
  Alcotest.(check (float 0.0)) "normalized 1×1" 2.5
    (Expr.as_scalar (Expr.Normalized t)) ;
  Alcotest.(check (float 0.0)) "regular 1×1" 2.5
    (Expr.eval_scalar (Expr.regular r))

let test_pretty_printing () =
  let t = Expr.normalized (t0 ()) in
  let s = Expr.to_string Expr.(Crossprod (Scale (2.0, t))) in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions crossprod" true (contains s "crossprod")

(* ---- fuzzing: random well-typed expressions ----

   Grow random expression trees over a normalized matrix and dense
   leaves, restricted to type-correct constructions, and check that the
   factorizing evaluator, the materialized reference evaluator, and the
   simplified expression all agree — and that [Ast.map_children], the
   rebuild those passes share, is the identity under [Fun.id] and maps
   exactly the [Ast.children], in order. *)

let rec random_expr rng tn depth =
  (* returns (expr, rows, cols); scalars are represented as (e, 0, 0) *)
  let n, d = Normalized.dims tn in
  let leaf () =
    match Rng.int rng 3 with
    | 0 -> (Expr.normalized tn, n, d)
    | 1 ->
      let k = 1 + Rng.int rng 2 in
      (Expr.dense (Dense.random ~rng d k), d, k)
    | _ ->
      let k = 1 + Rng.int rng 2 in
      (Expr.dense (Dense.random ~rng k n), k, n)
  in
  if depth = 0 then leaf ()
  else begin
    let e, r, c = random_expr rng tn (depth - 1) in
    if r = 0 then (e, 0, 0)
    else
      match Rng.int rng 8 with
      | 0 -> (Expr.Scale (Rng.uniform rng ~lo:(-2.0) ~hi:2.0, e), r, c)
      | 1 -> (Expr.Add_scalar (Rng.uniform rng ~lo:(-1.0) ~hi:1.0, e), r, c)
      | 2 -> (Expr.Transpose e, c, r)
      | 3 -> (Expr.Row_sums e, r, 1)
      | 4 -> (Expr.Col_sums e, 1, c)
      | 5 -> (Expr.Sum e, 0, 0)
      | 6 -> (Expr.Crossprod e, c, c)
      | _ ->
        (* multiply on the right by a random compatible dense matrix *)
        let k = 1 + Rng.int rng 2 in
        (Expr.(e *@ dense (Dense.random ~rng c k)), r, k)
  end

let prop_random_expressions =
  QCheck.Test.make ~name:"qcheck: random well-typed expressions" ~count:120
    (QCheck.make
       ~print:(fun (seed, depth) -> Printf.sprintf "seed=%d depth=%d" seed depth)
       QCheck.Gen.(pair (int_range 0 100_000) (int_range 1 4)))
    (fun (seed, depth) ->
      let tn = Gen.normalized ~seed:(seed mod 7) Gen.Star2 in
      let rng = Rng.of_int seed in
      let e, _, _ = random_expr rng tn depth in
      let close a b =
        match (a, b) with
        | Expr.Scalar x, Expr.Scalar y ->
          Float.abs (x -. y) <= 1e-6 *. (1.0 +. Float.abs y)
        | _ ->
          (* depth-4 chains of crossprods amplify roundoff: a handful
             of seeds exceed 1e-6 between the factorized and
             materialized accumulation orders *)
          Dense.approx_equal ~tol:1e-5 (Expr.as_dense a) (Expr.as_dense b)
      in
      let wrap c = Ast.Transpose c in
      let v = Expr.eval e in
      Ast.equal (Ast.map_children Fun.id e) e
      && List.equal Ast.equal
           (Ast.children (Ast.map_children wrap e))
           (List.map wrap (Ast.children e))
      && close v (Expr.eval_materialized e)
      && close v (Expr.eval (Expr.simplify e)))

let qc = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "expr"
    [ ( "evaluation",
        [ Alcotest.test_case "scalar pipeline" `Quick test_scalar_pipeline;
          Alcotest.test_case "aggregations" `Quick test_aggregations;
          Alcotest.test_case "products" `Quick test_products;
          Alcotest.test_case "DMM" `Quick test_dmm_via_expr;
          Alcotest.test_case "elementwise materializes" `Quick test_elementwise_materializes;
          Alcotest.test_case "ginv" `Quick test_ginv_expr;
          Alcotest.test_case "logreg update" `Quick test_logreg_update_expression ] );
      ( "simplify",
        [ Alcotest.test_case "double transpose" `Quick test_simplify_double_transpose;
          Alcotest.test_case "scalar fusion" `Quick test_simplify_scalar_fusion;
          Alcotest.test_case "semantics preserved" `Quick test_simplify_preserves_semantics ] );
      ( "typing",
        [ Alcotest.test_case "shape inference" `Quick test_shape_inference;
          Alcotest.test_case "type errors" `Quick test_type_errors;
          Alcotest.test_case "environment" `Quick test_env_binding;
          Alcotest.test_case "printing" `Quick test_pretty_printing;
          Alcotest.test_case "1x1 reads as scalar" `Quick
            test_one_by_one_reads_as_scalar ] );
      ("fuzz", [ qc prop_random_expressions ]) ]
