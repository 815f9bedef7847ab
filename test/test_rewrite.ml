(* The central correctness suite: every Morpheus rewrite rule must
   produce exactly what the corresponding operator computes over the
   materialized T ("our rewrites do not alter the outputs of the
   operators, assuming exact arithmetic", §3.7). Each operator is
   checked across all schema shapes (PK-FK, 2- and 3-table star, M:N) ×
   representations (dense, sparse) × transposition, over several seeds. *)

open La
open Sparse
open Morpheus
open Test_support

let seeds = [ 0; 1; 2; 3; 4 ]

let for_all_cases f =
  List.iter (fun seed -> List.iter (fun (label, t) -> f label t) (Gen.all_cases ~seed)) seeds

(* ---- materialization sanity ---- *)

let test_materialize_dims () =
  for_all_cases (fun label t ->
      let m = Gen.ground_truth t in
      Alcotest.(check (pair int int))
        (label ^ ": dims")
        (Normalized.dims t) (Dense.dims m))

let test_materialize_transpose () =
  for_all_cases (fun label t ->
      let m = Gen.ground_truth t in
      let mt = Gen.ground_truth (Rewrite.transpose t) in
      Gen.check_close (label ^ ": transpose materializes") (Dense.transpose m) mt)

(* ---- element-wise scalar ops (§3.3.1): result is normalized and its
   materialization matches ---- *)

let scalar_case name f_norm f_mat () =
  for_all_cases (fun label t ->
      let m = Gen.ground_truth t in
      let got = Gen.ground_truth (f_norm t) in
      Gen.check_close (label ^ ": " ^ name) (f_mat m) got)

let test_scale = scalar_case "scale" (Rewrite.scale 3.5) (Dense.scale 3.5)
let test_add_scalar = scalar_case "add_scalar" (Rewrite.add_scalar 1.25) (Dense.add_scalar 1.25)
let test_pow = scalar_case "pow 2" (fun t -> Rewrite.pow t 2.0) (fun m -> Dense.pow_scalar m 2.0)
let test_sq = scalar_case "sq" Rewrite.sq (fun m -> Dense.pow_scalar m 2.0)

let test_exp = scalar_case "exp" Rewrite.exp Dense.exp

let test_map_scalar =
  let f v = Stdlib.log ((v *. v) +. 1.0) in
  scalar_case "log(x²+1)" (Rewrite.map_scalar f) (Dense.map_scalar f)

let test_closure_structure () =
  for_all_cases (fun label t ->
      let scaled = Rewrite.scale 2.0 t in
      Alcotest.(check int)
        (label ^ ": closure keeps parts")
        (List.length (Normalized.parts t))
        (List.length (Normalized.parts scaled)) ;
      Alcotest.(check bool)
        (label ^ ": closure keeps ent presence")
        (Option.is_some (Normalized.ent t))
        (Option.is_some (Normalized.ent scaled)))

(* ---- aggregations (§3.3.2) ---- *)

let test_row_sums () =
  for_all_cases (fun label t ->
      Gen.check_close (label ^ ": rowSums")
        (Dense.row_sums (Gen.ground_truth t))
        (Rewrite.row_sums t))

let test_col_sums () =
  for_all_cases (fun label t ->
      Gen.check_close (label ^ ": colSums")
        (Dense.col_sums (Gen.ground_truth t))
        (Rewrite.col_sums t))

let test_sum () =
  for_all_cases (fun label t ->
      let expected = Dense.sum (Gen.ground_truth t) in
      let got = Rewrite.sum t in
      if Float.abs (expected -. got) > 1e-8 then
        Alcotest.failf "%s: sum %g vs %g" label expected got)

(* ---- multiplications ---- *)

let test_lmm () =
  List.iter
    (fun k ->
      for_all_cases (fun label t ->
          let x = Dense.random ~rng:(Rng.of_int (k + 17)) (Normalized.cols t) k in
          Gen.check_close
            (Printf.sprintf "%s: LMM k=%d" label k)
            (Blas.gemm (Gen.ground_truth t) x)
            (Rewrite.lmm t x)))
    [ 1; 3 ]

let test_rmm () =
  List.iter
    (fun k ->
      for_all_cases (fun label t ->
          let x = Dense.random ~rng:(Rng.of_int (k + 31)) k (Normalized.rows t) in
          Gen.check_close
            (Printf.sprintf "%s: RMM k=%d" label k)
            (Blas.gemm x (Gen.ground_truth t))
            (Rewrite.rmm x t)))
    [ 1; 2 ]

let test_tlmm () =
  for_all_cases (fun label t ->
      let x = Dense.random ~rng:(Rng.of_int 53) (Normalized.rows t) 2 in
      Gen.check_close (label ^ ": transposed LMM")
        (Blas.tgemm (Gen.ground_truth t) x)
        (Rewrite.tlmm t x))

let test_crossprod () =
  for_all_cases (fun label t ->
      let m = Gen.ground_truth t in
      Gen.check_close (label ^ ": crossprod (efficient)") (Blas.crossprod m)
        (Rewrite.crossprod t))

let test_crossprod_naive () =
  for_all_cases (fun label t ->
      let m = Gen.ground_truth t in
      Gen.check_close (label ^ ": crossprod (naive)") (Blas.crossprod m)
        (Rewrite.crossprod_naive t))

let test_gram () =
  (* crossprod of the transpose: the Gram matrix rewrite (appendix A) *)
  for_all_cases (fun label t ->
      let m = Gen.ground_truth t in
      Gen.check_close (label ^ ": gram")
        (Blas.tcrossprod m)
        (Rewrite.crossprod (Rewrite.transpose t)))

(* ---- pseudo-inverse (§3.3.6) ---- *)

let test_ginv_moore_penrose () =
  (* comparing against Linalg.ginv directly is numerically fragile when
     the cross-product is near-singular; the Moore-Penrose conditions
     are the right invariant. *)
  List.iter
    (fun seed ->
      List.iter
        (fun (label, t) ->
          let a = Gen.ground_truth t in
          let g = Rewrite.ginv t in
          Alcotest.(check (pair int int))
            (label ^ ": ginv dims")
            (Dense.cols a, Dense.rows a)
            (Dense.dims g) ;
          Gen.check_close ~tol:1e-5 (label ^ ": AGA=A") a
            (Blas.gemm (Blas.gemm a g) a) ;
          Gen.check_close ~tol:1e-5 (label ^ ": GAG=G") g
            (Blas.gemm (Blas.gemm g a) g))
        (Gen.all_cases ~seed))
    [ 0; 1 ]

let test_ginv_matches_direct () =
  (* on a well-conditioned tall case the rewrite must agree with the
     SVD-based ginv of the materialized matrix *)
  let rng = Rng.of_int 271 in
  let s = Mat.of_dense (Dense.random ~rng 30 3) in
  let r = Mat.of_dense (Dense.random ~rng 5 4) in
  let k = Sparse.Indicator.random ~rng ~rows:30 ~cols:5 () in
  let t = Normalized.pkfk ~s ~k ~r in
  Gen.check_close ~tol:1e-6 "ginv matches"
    (Linalg.ginv (Gen.ground_truth t))
    (Rewrite.ginv t)

let test_lstsq () =
  let rng = Rng.of_int 272 in
  let s = Mat.of_dense (Dense.random ~rng 40 3) in
  let r = Mat.of_dense (Dense.random ~rng 6 4) in
  let k = Sparse.Indicator.random ~rng ~rows:40 ~cols:6 () in
  let t = Normalized.pkfk ~s ~k ~r in
  let w_true = Dense.random ~rng 7 1 in
  let y = Blas.gemm (Gen.ground_truth t) w_true in
  Gen.check_close ~tol:1e-6 "lstsq recovers w" w_true (Rewrite.lstsq t y)

(* ---- non-factorizable ops (§3.3.7): the evaluator materializes ---- *)

let test_elementwise_matrix_ops () =
  for_all_cases (fun label t ->
      let n, d = Normalized.dims t in
      let x = Mat.of_dense (Dense.add_scalar 0.5 (Dense.random ~rng:(Rng.of_int 5) n d)) in
      let m = Mat.of_dense (Gen.ground_truth t) in
      let eval op = Expr.eval_dense (op (Expr.normalized t) (Expr.regular x)) in
      Gen.check_close (label ^ ": T+X") (Mat.dense (Mat.add m x))
        (eval (fun a b -> Expr.Add (a, b))) ;
      Gen.check_close (label ^ ": T*X") (Mat.dense (Mat.mul_elem m x))
        (eval (fun a b -> Expr.Mul_elem (a, b))) ;
      Gen.check_close (label ^ ": T/X") (Mat.dense (Mat.div_elem m x))
        (eval (fun a b -> Expr.Div_elem (a, b))))

(* ---- composition / propagation (§3.2) ---- *)

let test_operator_pipeline () =
  (* rowSums(((2·T)²)) — scalar ops stay normalized, aggregation fires at
     the end; mirrors K-Means' DT pre-computation. *)
  for_all_cases (fun label t ->
      let m = Gen.ground_truth t in
      let expected = Dense.row_sums (Dense.pow_scalar (Dense.scale 2.0 m) 2.0) in
      let got = Rewrite.row_sums (Rewrite.pow (Rewrite.scale 2.0 t) 2.0) in
      Gen.check_close (label ^ ": pipeline") expected got)

let test_double_transpose () =
  for_all_cases (fun label t ->
      let tt = Rewrite.transpose (Rewrite.transpose t) in
      Gen.check_close (label ^ ": Tᵀᵀ = T") (Gen.ground_truth t)
        (Gen.ground_truth tt))

(* ---- Theorem B.1: invertibility of a square T forces TR ≤ 1/FR + 1;
   contrapositive: TR > 1/FR + 1 ⇒ T is singular. ---- *)

let test_theorem_b1 () =
  let rng = Rng.of_int 999 in
  (* ns = 6 = d, nr = 2, ds = dr = 3 → TR = 3 > 1/1 + 1 = 2 *)
  let s = Mat.of_dense (Dense.random ~rng 6 3) in
  let r = Mat.of_dense (Dense.random ~rng 2 3) in
  let k = Sparse.Indicator.random ~rng ~rows:6 ~cols:2 () in
  let t = Normalized.pkfk ~s ~k ~r in
  let m = Gen.ground_truth t in
  Alcotest.(check (pair int int)) "square" (6, 6) (Dense.dims m) ;
  let det = Linalg.determinant m in
  if Float.abs det > 1e-9 then
    Alcotest.failf "T should be singular (det = %g)" det

(* ---- Theorems C.1/C.2: max(n_RA, n_RB) ≤ nnz(KᵀA·KB) ≤ n_S ---- *)

let test_theorem_c_bounds () =
  List.iter
    (fun seed ->
      let rng = Rng.of_int seed in
      let n = 10 + Rng.int rng 30 in
      let ca = 2 + Rng.int rng 5 and cb = 2 + Rng.int rng 5 in
      let a = Sparse.Indicator.random ~rng ~rows:n ~cols:ca () in
      let b = Sparse.Indicator.random ~rng ~rows:n ~cols:cb () in
      let p = Sparse.Indicator.cross a b in
      let nnz = Sparse.Coo.nnz p in
      Alcotest.(check bool)
        (Printf.sprintf "lower bound (seed %d)" seed)
        true
        (nnz >= max ca cb) ;
      Alcotest.(check bool)
        (Printf.sprintf "upper bound (seed %d)" seed)
        true (nnz <= n) ;
      (* and P really is KᵀA·KB *)
      let expected =
        Blas.gemm
          (Dense.transpose (Sparse.Indicator.to_dense a))
          (Sparse.Indicator.to_dense b)
      in
      Gen.check_close "P = KᵀK" expected (Sparse.Coo.to_dense p))
    [ 1; 2; 3; 4; 5 ]

(* ---- qcheck: LMM correctness over random shapes ---- *)

let qc_case =
  QCheck.make
    ~print:(fun (seed, shape_i, sparse) ->
      Printf.sprintf "seed=%d shape=%d sparse=%b" seed shape_i sparse)
    QCheck.Gen.(triple (int_range 0 10_000) (int_range 0 3) bool)

let prop name f =
  QCheck.Test.make ~name ~count:60 qc_case (fun (seed, shape_i, sparse) ->
      let shape = List.nth Gen.shapes shape_i in
      let t = Gen.normalized ~seed ~sparse shape in
      f t)

let prop_lmm =
  prop "qcheck: factorized LMM = materialized" (fun t ->
      let x = Dense.random ~rng:(Rng.of_int 7) (Normalized.cols t) 2 in
      Dense.approx_equal ~tol:1e-8
        (Blas.gemm (Gen.ground_truth t) x)
        (Rewrite.lmm t x))

let prop_crossprod =
  prop "qcheck: factorized crossprod = materialized" (fun t ->
      Dense.approx_equal ~tol:1e-8
        (Blas.crossprod (Gen.ground_truth t))
        (Rewrite.crossprod t))

let prop_aggregations =
  prop "qcheck: aggregations = materialized" (fun t ->
      let m = Gen.ground_truth t in
      Dense.approx_equal ~tol:1e-8 (Dense.row_sums m) (Rewrite.row_sums t)
      && Dense.approx_equal ~tol:1e-8 (Dense.col_sums m) (Rewrite.col_sums t)
      && Float.abs (Dense.sum m -. Rewrite.sum t) < 1e-7)

let qc = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "rewrite"
    [ ( "materialize",
        [ Alcotest.test_case "dims" `Quick test_materialize_dims;
          Alcotest.test_case "transpose" `Quick test_materialize_transpose ] );
      ( "scalar-ops",
        [ Alcotest.test_case "scale" `Quick test_scale;
          Alcotest.test_case "add_scalar" `Quick test_add_scalar;
          Alcotest.test_case "pow" `Quick test_pow;
          Alcotest.test_case "sq" `Quick test_sq;
          Alcotest.test_case "exp" `Quick test_exp;
          Alcotest.test_case "map_scalar" `Quick test_map_scalar;
          Alcotest.test_case "closure structure" `Quick test_closure_structure ] );
      ( "aggregations",
        [ Alcotest.test_case "rowSums" `Quick test_row_sums;
          Alcotest.test_case "colSums" `Quick test_col_sums;
          Alcotest.test_case "sum" `Quick test_sum;
          qc prop_aggregations ] );
      ( "multiplications",
        [ Alcotest.test_case "LMM" `Quick test_lmm;
          Alcotest.test_case "RMM" `Quick test_rmm;
          Alcotest.test_case "transposed LMM" `Quick test_tlmm;
          qc prop_lmm ] );
      ( "crossprod",
        [ Alcotest.test_case "efficient (Algorithm 2)" `Quick test_crossprod;
          Alcotest.test_case "naive (Algorithm 1)" `Quick test_crossprod_naive;
          Alcotest.test_case "gram (transposed)" `Quick test_gram;
          qc prop_crossprod ] );
      ( "inversion",
        [ Alcotest.test_case "Moore-Penrose" `Quick test_ginv_moore_penrose;
          Alcotest.test_case "matches direct ginv" `Quick test_ginv_matches_direct;
          Alcotest.test_case "lstsq" `Quick test_lstsq ] );
      ( "non-factorizable",
        [ Alcotest.test_case "elementwise matrix ops" `Quick test_elementwise_matrix_ops ] );
      ( "composition",
        [ Alcotest.test_case "pipeline" `Quick test_operator_pipeline;
          Alcotest.test_case "double transpose" `Quick test_double_transpose ] );
      ( "theory",
        [ Alcotest.test_case "Theorem B.1" `Quick test_theorem_b1;
          Alcotest.test_case "Theorems C.1/C.2" `Quick test_theorem_c_bounds ] ) ]
