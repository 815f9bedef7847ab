(* Edge cases that real datasets exercise: zero-column entity matrices
   (Movies/Yelp/LastFM/Books have d_S = 0 in Table 6), single-row and
   single-column matrices, empty sparse rows, tuple ratio 1 joins, and
   degenerate indicator structures. *)

open La
open Sparse
open Morpheus
open Test_support

let check_close = Gen.check_close

(* ---- zero-column entity matrix (Table 6's dS = 0 datasets) ---- *)

let zero_col_ent () =
  let rng = Rng.of_int 70 in
  let ns = 20 in
  let s = Mat.of_csr (Csr.of_triplets ~rows:ns ~cols:0 []) in
  let r1 = Mat.of_dense (Dense.random ~rng 4 3) in
  let r2 = Mat.random_sparse ~rng ~density:0.5 5 2 in
  let k1 = Indicator.random ~rng ~rows:ns ~cols:4 () in
  let k2 = Indicator.random ~rng ~rows:ns ~cols:5 () in
  Normalized.star ~s ~parts:[ (k1, r1); (k2, r2) ]

let test_zero_col_entity () =
  let t = zero_col_ent () in
  Alcotest.(check (pair int int)) "dims" (20, 5) (Normalized.dims t) ;
  let m = Gen.ground_truth t in
  let x = Dense.random ~rng:(Rng.of_int 71) 5 2 in
  check_close "lmm" (Blas.gemm m x) (Rewrite.lmm t x) ;
  check_close "crossprod" (Blas.crossprod m) (Rewrite.crossprod t) ;
  check_close "rowSums" (Dense.row_sums m) (Rewrite.row_sums t) ;
  check_close "colSums" (Dense.col_sums m) (Rewrite.col_sums t) ;
  (* ML still runs *)
  let y = Dense.init 20 1 (fun i _ -> if i mod 2 = 0 then 1.0 else -1.0) in
  let module F = Ml_algs.Logreg.Make (Factorized_matrix) in
  let module M = Ml_algs.Logreg.Make (Regular_matrix) in
  let f = F.train ~alpha:1e-2 ~iters:5 t y in
  let g = M.train ~alpha:1e-2 ~iters:5 (Regular_matrix.of_dense m) y in
  check_close "logreg with dS=0" g.M.w f.F.w

(* ---- single-row / single-column shapes ---- *)

let test_single_column_r () =
  let rng = Rng.of_int 72 in
  let s = Mat.of_dense (Dense.random ~rng 10 1) in
  let r = Mat.of_dense (Dense.random ~rng 2 1) in
  let k = Indicator.random ~rng ~rows:10 ~cols:2 () in
  let t = Normalized.pkfk ~s ~k ~r in
  let m = Gen.ground_truth t in
  check_close "crossprod 2x2" (Blas.crossprod m) (Rewrite.crossprod t) ;
  check_close "ginv" (Linalg.ginv m) (Rewrite.ginv t)

let test_single_tuple_attribute () =
  (* n_R = 1: every S row references the same R row *)
  let rng = Rng.of_int 73 in
  let s = Mat.of_dense (Dense.random ~rng 8 2) in
  let r = Mat.of_dense (Dense.random ~rng 1 3) in
  let k = Indicator.create ~cols:1 (Array.make 8 0) in
  let t = Normalized.pkfk ~s ~k ~r in
  let m = Gen.ground_truth t in
  check_close "fan-out-to-one lmm"
    (Blas.gemm m (Dense.random ~rng:(Rng.of_int 74) 5 1))
    (Rewrite.lmm t (Dense.random ~rng:(Rng.of_int 74) 5 1)) ;
  check_close "fan-out-to-one crossprod" (Blas.crossprod m) (Rewrite.crossprod t)

let test_tuple_ratio_one () =
  (* n_S = n_R with a bijective mapping: the join is a 1:1 key join *)
  let rng = Rng.of_int 75 in
  let n = 6 in
  let s = Mat.of_dense (Dense.random ~rng n 2) in
  let r = Mat.of_dense (Dense.random ~rng n 3) in
  let perm = Array.init n Fun.id in
  Rng.shuffle rng perm ;
  let k = Indicator.create ~cols:n perm in
  let t = Normalized.pkfk ~s ~k ~r in
  Alcotest.(check (float 1e-9)) "TR = 1" 1.0 (Normalized.tuple_ratio t) ;
  let m = Gen.ground_truth t in
  check_close "bijective join" (Blas.crossprod m) (Rewrite.crossprod t) ;
  Alcotest.(check string) "rule says materialize" "materialized"
    (Decision.to_string (Decision.heuristic t))

(* ---- sparse matrices with empty rows/columns ---- *)

let test_csr_empty_rows () =
  let c = Csr.of_triplets ~rows:5 ~cols:3 [ (0, 1, 2.0); (4, 0, 1.0) ] in
  let x = Dense.random ~rng:(Rng.of_int 76) 3 2 in
  check_close "smm with empty rows" (Blas.gemm (Csr.to_dense c) x) (Csr.smm c x) ;
  check_close "row_sums" (Dense.row_sums (Csr.to_dense c)) (Csr.row_sums c) ;
  let t = Csr.transpose c in
  Alcotest.(check int) "transpose nnz" 2 (Csr.nnz t)

let test_empty_csr () =
  let c = Csr.of_triplets ~rows:3 ~cols:4 [] in
  Alcotest.(check int) "nnz" 0 (Csr.nnz c) ;
  Alcotest.(check (float 0.)) "sum" 0.0 (Csr.sum c) ;
  let x = Dense.random ~rng:(Rng.of_int 77) 4 2 in
  check_close "smm zero" (Dense.create 3 2) (Csr.smm c x) ;
  check_close "crossprod zero" (Dense.create 4 4) (Csr.crossprod c)

(* ---- 1×1 and tiny dense matrices ---- *)

let test_one_by_one () =
  let m = Dense.of_arrays [| [| 4.0 |] |] in
  check_close "inverse" (Dense.of_arrays [| [| 0.25 |] |]) (Linalg.inverse m) ;
  check_close "ginv" (Dense.of_arrays [| [| 0.25 |] |]) (Linalg.ginv m) ;
  let vals, v = Linalg.sym_eig m in
  Alcotest.(check (float 1e-12)) "eigenvalue" 4.0 vals.(0) ;
  Alcotest.(check (float 1e-12)) "eigenvector" 1.0 (Float.abs (Dense.get v 0 0)) ;
  let u, s, _ = Linalg.svd m in
  Alcotest.(check (float 1e-12)) "singular value" 4.0 s.(0) ;
  Alcotest.(check (float 1e-12)) "u" 1.0 (Float.abs (Dense.get u 0 0))

let test_zero_matrix_ginv () =
  let z = Dense.create 3 2 in
  check_close "ginv of 0 is 0" (Dense.create 2 3) (Linalg.ginv z)

(* ---- indicator degenerate structures ---- *)

let test_indicator_all_same_column () =
  let k = Indicator.create ~cols:3 (Array.make 7 1) in
  let counts = Indicator.col_counts k in
  Alcotest.(check (array (float 0.))) "counts" [| 0.; 7.; 0. |] counts ;
  let r = Dense.random ~rng:(Rng.of_int 78) 3 2 in
  let gathered = Indicator.mult k r in
  for i = 0 to 6 do
    for j = 0 to 1 do
      Alcotest.(check (float 0.)) "same row" (Dense.get r 1 j) (Dense.get gathered i j)
    done
  done

let test_identity_indicator_laws () =
  let n = 9 in
  let k = Indicator.identity n in
  let x = Dense.random ~rng:(Rng.of_int 79) n 3 in
  check_close "I·X = X" x (Indicator.mult k x) ;
  check_close "Iᵀ·X = X" x (Indicator.tmult k x) ;
  let v = Array.init n float_of_int in
  Alcotest.(check (array (float 0.))) "gather id" v (Indicator.gather k v) ;
  Alcotest.(check (array (float 0.))) "scatter id" v (Indicator.scatter_add k v)

(* ---- select_rows degenerate cases ---- *)

let test_select_rows_empty_and_full () =
  let t = Gen.normalized ~seed:80 Gen.Pkfk in
  let n = Normalized.rows t in
  let full = Normalized.select_rows t (Array.init n Fun.id) in
  check_close "identity selection" (Gen.ground_truth t) (Gen.ground_truth full) ;
  let single = Normalized.select_rows t [| n - 1 |] in
  Alcotest.(check int) "single row" 1 (Normalized.rows single) ;
  let m = Gen.ground_truth single in
  check_close "single-row rowSums" (Dense.row_sums m) (Rewrite.row_sums single)

(* ---- scalar ops on extreme values ---- *)

let test_scalar_extremes () =
  let t = Gen.normalized ~seed:81 Gen.Pkfk in
  let m = Gen.ground_truth t in
  (* multiply by zero *)
  check_close "scale by 0" (Dense.create (Dense.rows m) (Dense.cols m))
    (Gen.ground_truth (Rewrite.scale 0.0 t)) ;
  (* negative power of squares stays finite *)
  let sq = Rewrite.sq t in
  let inv = Rewrite.map_scalar (fun v -> 1.0 /. (v +. 1.0)) sq in
  let expected = Dense.map (fun v -> 1.0 /. ((v *. v) +. 1.0)) m in
  check_close "1/(x²+1)" expected (Gen.ground_truth inv)

(* An R row no tuple references may hold a non-finite value after a
   scalar map (log 0 = -inf): factorized sum(T) must skip it, as the
   materialized sum and colSums do, instead of forming 0·inf = NaN. *)
let test_sum_skips_unreferenced_nonfinite () =
  let s = Mat.of_dense (Dense.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |]; [| 5.; 6. |] |]) in
  let r = Mat.of_dense (Dense.of_arrays [| [| 1.; 1. |]; [| 2.; 2. |]; [| 0.; 3. |] |]) in
  let k = Indicator.create ~cols:3 [| 0; 1; 0 |] in
  let t = Rewrite.map_scalar log (Normalized.pkfk ~s ~k ~r) in
  let expected = Dense.sum (Materialize.to_dense t) in
  Alcotest.(check bool) "materialized sum is finite" true (Float.is_finite expected) ;
  Alcotest.(check (float 1e-12)) "sum(T)" expected (Rewrite.sum t) ;
  Alcotest.(check (float 1e-12)) "sum(colSums T)" expected
    (Dense.sum (Rewrite.col_sums t))

(* ---- M:N join where every tuple matches exactly one (PK-FK limit) ---- *)

let test_mn_reduces_to_pkfk () =
  (* I_S = identity makes the M:N rewrites coincide with PK-FK ones, as
     noted at the end of appendix D *)
  let rng = Rng.of_int 82 in
  let ns = 12 and nr = 3 in
  let is_ = Indicator.identity ns in
  let ir = Indicator.random ~rng ~rows:ns ~cols:nr () in
  let s = Mat.of_dense (Dense.random ~rng ns 2) in
  let r = Mat.of_dense (Dense.random ~rng nr 2) in
  let t_mn = Normalized.mn ~is_ ~s ~ir ~r in
  let t_pkfk = Normalized.pkfk ~s ~k:ir ~r in
  check_close "same T" (Gen.ground_truth t_mn) (Gen.ground_truth t_pkfk) ;
  check_close "same crossprod" (Rewrite.crossprod t_pkfk) (Rewrite.crossprod t_mn) ;
  let x = Dense.random ~rng 4 1 in
  check_close "same lmm" (Rewrite.lmm t_pkfk x) (Rewrite.lmm t_mn x)

(* ---- validation errors ---- *)

let test_construction_validation () =
  let rng = Rng.of_int 83 in
  let s = Mat.of_dense (Dense.random ~rng 5 2) in
  let r = Mat.of_dense (Dense.random ~rng 3 2) in
  let k_bad_rows = Indicator.random ~rng ~rows:6 ~cols:3 () in
  Alcotest.(check bool) "row mismatch" true
    (try
       ignore (Normalized.pkfk ~s ~k:k_bad_rows ~r) ;
       false
     with Invalid_argument _ -> true) ;
  let k_bad_cols = Indicator.random ~rng ~rows:5 ~cols:4 () in
  Alcotest.(check bool) "col mismatch" true
    (try
       ignore (Normalized.pkfk ~s ~k:k_bad_cols ~r) ;
       false
     with Invalid_argument _ -> true) ;
  Alcotest.(check bool) "empty" true
    (try
       ignore (Normalized.make []) ;
       false
     with Invalid_argument _ -> true)

let test_lmm_dim_error_message () =
  let t = Gen.normalized ~seed:84 Gen.Pkfk in
  let x = Dense.random ~rng:(Rng.of_int 85) (Normalized.cols t + 1) 1 in
  Alcotest.(check bool) "lmm dim mismatch" true
    (try
       ignore (Rewrite.lmm t x) ;
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "edge-cases"
    [ ( "degenerate-shapes",
        [ Alcotest.test_case "zero-column entity (dS=0)" `Quick test_zero_col_entity;
          Alcotest.test_case "single-column tables" `Quick test_single_column_r;
          Alcotest.test_case "fan-out to one tuple" `Quick test_single_tuple_attribute;
          Alcotest.test_case "tuple ratio 1" `Quick test_tuple_ratio_one ] );
      ( "sparse-edges",
        [ Alcotest.test_case "empty rows" `Quick test_csr_empty_rows;
          Alcotest.test_case "all-zero matrix" `Quick test_empty_csr ] );
      ( "dense-edges",
        [ Alcotest.test_case "1x1 factorizations" `Quick test_one_by_one;
          Alcotest.test_case "ginv of zero" `Quick test_zero_matrix_ginv ] );
      ( "indicator-edges",
        [ Alcotest.test_case "all rows to one column" `Quick test_indicator_all_same_column;
          Alcotest.test_case "identity laws" `Quick test_identity_indicator_laws ] );
      ( "normalized-edges",
        [ Alcotest.test_case "select_rows identity/single" `Quick test_select_rows_empty_and_full;
          Alcotest.test_case "scalar extremes" `Quick test_scalar_extremes;
          Alcotest.test_case "sum skips unreferenced non-finite rows" `Quick
            test_sum_skips_unreferenced_nonfinite;
          Alcotest.test_case "M:N reduces to PK-FK" `Quick test_mn_reduces_to_pkfk;
          Alcotest.test_case "construction validation" `Quick test_construction_validation;
          Alcotest.test_case "lmm dimension errors" `Quick test_lmm_dim_error_message ] ) ]
