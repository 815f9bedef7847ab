(* Tests for the ML-layer extensions: row subsetting of normalized
   matrices, the GLM family functor, factorized mini-batch SGD
   (footnote 2's future work), k-fold cross-validation, and normalized-
   matrix persistence. *)

open La
open Sparse
open Morpheus
open Ml_algs
open Test_support

let check_close = Gen.check_close

(* ---- Normalized.select_rows ---- *)

let test_select_rows_matches_dense () =
  List.iter
    (fun shape ->
      let t = Gen.normalized ~seed:40 shape in
      let n = Normalized.rows t in
      let rng = Rng.of_int 41 in
      (* includes duplicates and reordering *)
      let idx = Array.init (n + 3) (fun _ -> Rng.int rng n) in
      let m = Gen.ground_truth t in
      let expected =
        Dense.init (Array.length idx) (Dense.cols m) (fun i j ->
            Dense.get m idx.(i) j)
      in
      let got = Gen.ground_truth (Normalized.select_rows t idx) in
      check_close
        (Printf.sprintf "select_rows %s" (Gen.shape_name shape))
        expected got)
    Gen.shapes

let test_select_rows_shares_attributes () =
  let t = Gen.normalized ~seed:42 Gen.Pkfk in
  (* every row references all of R: compaction is declined and R is
     physically shared *)
  let all = Normalized.select_rows t (Array.init (Normalized.rows t) Fun.id) in
  List.iter2
    (fun (p : Normalized.part) (p' : Normalized.part) ->
      Alcotest.(check bool) "R shared" true (p.Normalized.mat == p'.Normalized.mat))
    (Normalized.parts t) (Normalized.parts all) ;
  (* three rows reference few of R's rows: R is compacted to exactly
     the referenced rows, in ascending original order *)
  let idx = [| 0; 1; 2 |] in
  let sub = Normalized.select_rows t idx in
  List.iter2
    (fun (p : Normalized.part) (p' : Normalized.part) ->
      let keys =
        List.sort_uniq compare
          (Array.to_list (Array.map (Indicator.col_of_row p.Normalized.ind) idx))
      in
      let r = p.Normalized.mat in
      Alcotest.(check bool) "rule compacts" true
        (Cost.compacts ~nr:(Mat.rows r) ~dr:(Mat.cols r) ~k:3 ~u:(List.length keys)) ;
      check_close "R compacted"
        (Mat.dense (Mat.gather_rows r (Array.of_list keys)))
        (Mat.dense p'.Normalized.mat))
    (Normalized.parts t) (Normalized.parts sub)

let test_select_rows_rewrites () =
  let t = Gen.normalized ~seed:43 Gen.Star2 in
  let idx = [| 1; 3; 5; 7; 7; 2 |] in
  let sub = Normalized.select_rows t idx in
  let m = Gen.ground_truth sub in
  let x = Dense.random ~rng:(Rng.of_int 44) (Normalized.cols sub) 2 in
  check_close "subset lmm" (Blas.gemm m x) (Rewrite.lmm sub x) ;
  check_close "subset crossprod" (Blas.crossprod m) (Rewrite.crossprod sub)

let test_select_rows_bounds () =
  let t = Gen.normalized ~seed:45 Gen.Pkfk in
  Alcotest.(check bool) "oob rejected" true
    (try
       ignore (Normalized.select_rows t [| Normalized.rows t |]) ;
       false
     with Invalid_argument _ -> true)

(* ---- GLM functor ---- *)

module FG = Glm.Make (Factorized_matrix)
module MG = Glm.Make (Regular_matrix)

let glm_dataset ?(seed = 50) family =
  let rng = Rng.of_int seed in
  let ns = 150 and nr = 10 and ds = 3 and dr = 3 in
  let s = Dense.gaussian ~rng ns ds in
  let r = Dense.gaussian ~rng nr dr in
  let k = Indicator.random ~rng ~rows:ns ~cols:nr () in
  let t = Normalized.pkfk ~s:(Mat.of_dense s) ~k ~r:(Mat.of_dense r) in
  let m = Materialize.to_dense t in
  let w_true = Dense.scale 0.4 (Dense.gaussian ~rng (ds + dr) 1) in
  let scores = Blas.gemm m w_true in
  let y =
    match family with
    | Glm.Logistic | Glm.Hinge ->
      Dense.map (fun s -> if s >= 0.0 then 1.0 else -1.0) scores
    | Glm.Gaussian -> Dense.add scores (Dense.scale 0.05 (Dense.gaussian ~rng ns 1))
    | Glm.Poisson ->
      (* deterministic "counts": round exp(score) *)
      Dense.map (fun s -> Float.round (Stdlib.exp s)) scores
  in
  (t, m, y)

let test_glm_f_equals_m () =
  List.iter
    (fun family ->
      let t, m, y = glm_dataset family in
      let f = FG.train ~alpha:1e-3 ~iters:15 ~family t y in
      let g = MG.train ~alpha:1e-3 ~iters:15 ~family (Regular_matrix.of_dense m) y in
      check_close "identical weights" g.MG.w f.FG.w)
    [ Glm.Logistic; Glm.Gaussian; Glm.Poisson ]

let test_glm_loss_decreases () =
  List.iter
    (fun family ->
      let t, _, y = glm_dataset family in
      let m0 = { FG.family; w = Dense.create (Normalized.cols t) 1 } in
      let trained = FG.train ~alpha:5e-4 ~iters:40 ~family t y in
      let l0 = FG.loss t m0 y and l1 = FG.loss t trained y in
      Alcotest.(check bool)
        (Printf.sprintf "loss %.4f -> %.4f" l0 l1)
        true (l1 < l0))
    [ Glm.Logistic; Glm.Gaussian; Glm.Poisson ]

let test_glm_gaussian_matches_linreg_gd () =
  let t, _, y = glm_dataset Glm.Gaussian in
  let module FL = Linreg.Make (Factorized_matrix) in
  let w_linreg = FL.train_gd ~alpha:1e-3 ~iters:10 t y in
  let w_glm = (FG.train ~alpha:1e-3 ~iters:10 ~family:Glm.Gaussian t y).FG.w in
  check_close "Gaussian GLM = linear regression GD" w_linreg w_glm

let test_glm_logistic_matches_logreg () =
  let t, _, y = glm_dataset Glm.Logistic in
  let module FLog = Logreg.Make (Factorized_matrix) in
  let logreg = FLog.train ~alpha:1e-3 ~iters:10 t y in
  let glm = FG.train ~alpha:1e-3 ~iters:10 ~family:Glm.Logistic t y in
  check_close "Logistic GLM = Logreg" logreg.FLog.w glm.FG.w

let test_glm_predict_mean_ranges () =
  let t, _, y = glm_dataset Glm.Logistic in
  let model = FG.train ~alpha:1e-3 ~iters:20 ~family:Glm.Logistic t y in
  let mean = FG.predict_mean t model in
  Dense.iteri
    (fun _ _ p -> Alcotest.(check bool) "probability" true (p >= 0.0 && p <= 1.0))
    mean

(* ---- mini-batch SGD ---- *)

let test_minibatch_learns () =
  let t, _, y = glm_dataset ~seed:51 Glm.Logistic in
  let config = { Minibatch.default_config with epochs = 20; alpha = 0.5; batch_size = 32 } in
  let w = Minibatch.train ~config ~family:Glm.Logistic t y in
  let model = { FG.family = Glm.Logistic; w } in
  let l0 = FG.loss t { FG.family = Glm.Logistic; w = Dense.create (Normalized.cols t) 1 } y in
  let l = FG.loss t model y in
  Alcotest.(check bool)
    (Printf.sprintf "SGD loss %.4f -> %.4f" l0 l)
    true (l < l0)

let test_minibatch_deterministic () =
  let t, _, y = glm_dataset ~seed:52 Glm.Gaussian in
  let w1 = Minibatch.train ~family:Glm.Gaussian t y in
  let w2 = Minibatch.train ~family:Glm.Gaussian t y in
  check_close "same seed, same weights" w1 w2

(* ---- cross-validation ---- *)

let test_fold_indices_partition () =
  let folds = Model_selection.fold_indices ~seed:1 ~k:4 22 in
  Alcotest.(check int) "k folds" 4 (List.length folds) ;
  let all = Array.concat folds in
  Alcotest.(check int) "covers all rows" 22 (Array.length all) ;
  let sorted = Array.copy all in
  Array.sort compare sorted ;
  Array.iteri (fun i v -> Alcotest.(check int) "partition" i v) sorted

let test_cross_validate_ridge () =
  let t, m, y = glm_dataset ~seed:53 Glm.Gaussian in
  ignore m ;
  let best, best_score, scored =
    Model_selection.select_ridge_lambda ~seed:2 ~k:4
      ~lambdas:[ 0.01; 1.0; 1000.0 ] t y
  in
  Alcotest.(check int) "all candidates scored" 3 (List.length scored) ;
  Alcotest.(check bool) "best is finite" true (Float.is_finite best_score) ;
  (* data is near-noiseless linear: tiny λ must beat huge λ *)
  let score_of l = List.assoc l scored in
  Alcotest.(check bool) "small λ beats huge λ" true
    (score_of 0.01 < score_of 1000.0) ;
  Alcotest.(check bool) "best not the huge λ" true (best <> 1000.0)

let test_cv_fold_models_match_materialized () =
  (* each fold's factorized fit equals the same fit on materialized data *)
  let t, _, y = glm_dataset ~seed:54 Glm.Gaussian in
  let folds = Model_selection.fold_indices ~seed:3 ~k:3 (Normalized.rows t) in
  let (t_train, y_train), _ = Model_selection.split t y folds 0 in
  let module FL = Linreg.Make (Factorized_matrix) in
  let module ML = Linreg.Make (Regular_matrix) in
  let wf = FL.train_gd ~alpha:1e-3 ~iters:10 t_train y_train in
  let wm =
    ML.train_gd ~alpha:1e-3 ~iters:10
      (Materialize.to_regular t_train)
      y_train
  in
  check_close "fold training agrees" wm wf

(* ---- persistence ---- *)

let tmpdir () =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "morpheus_io_%d_%d" (Unix.getpid ()) (Random.int 1000000))

let test_io_roundtrip () =
  List.iter
    (fun (shape, sparse) ->
      let t = Gen.normalized ~seed:60 ~sparse shape in
      let dir = tmpdir () in
      Fun.protect
        ~finally:(fun () -> Io.delete ~dir)
        (fun () ->
          Io.save ~dir t ;
          let t' = Io.load ~dir in
          check_close
            (Printf.sprintf "roundtrip %s sparse=%b" (Gen.shape_name shape) sparse)
            (Gen.ground_truth t) (Gen.ground_truth t') ;
          (* representation preserved *)
          List.iter2
            (fun (p : Normalized.part) (p' : Normalized.part) ->
              Alcotest.(check bool) "sparsity kept"
                (Mat.is_sparse p.Normalized.mat)
                (Mat.is_sparse p'.Normalized.mat))
            (Normalized.parts t) (Normalized.parts t')))
    [ (Gen.Pkfk, false); (Gen.Star3, true); (Gen.Mn, false) ]

let test_io_rejects_garbage () =
  let dir = tmpdir () in
  Sys.mkdir dir 0o755 ;
  Fun.protect
    ~finally:(fun () -> Io.delete ~dir)
    (fun () ->
      Alcotest.(check bool) "missing meta" true
        (try
           ignore (Io.load ~dir) ;
           false
         with Invalid_argument _ -> true))

let test_io_rejects_transposed () =
  let t = Rewrite.transpose (Gen.normalized ~seed:61 Gen.Pkfk) in
  Alcotest.(check bool) "transposed rejected" true
    (try
       Io.save ~dir:(tmpdir ()) t ;
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "ml-extensions"
    [ ( "select-rows",
        [ Alcotest.test_case "matches dense gather" `Quick test_select_rows_matches_dense;
          Alcotest.test_case "shares attribute matrices" `Quick test_select_rows_shares_attributes;
          Alcotest.test_case "rewrites on subsets" `Quick test_select_rows_rewrites;
          Alcotest.test_case "bounds checked" `Quick test_select_rows_bounds ] );
      ( "glm",
        [ Alcotest.test_case "F = M (all families)" `Quick test_glm_f_equals_m;
          Alcotest.test_case "loss decreases" `Quick test_glm_loss_decreases;
          Alcotest.test_case "Gaussian = linreg GD" `Quick test_glm_gaussian_matches_linreg_gd;
          Alcotest.test_case "Logistic = Logreg" `Quick test_glm_logistic_matches_logreg;
          Alcotest.test_case "predict_mean ranges" `Quick test_glm_predict_mean_ranges ] );
      ( "minibatch-sgd",
        [ Alcotest.test_case "learns" `Quick test_minibatch_learns;
          Alcotest.test_case "deterministic" `Quick test_minibatch_deterministic ] );
      ( "cross-validation",
        [ Alcotest.test_case "folds partition" `Quick test_fold_indices_partition;
          Alcotest.test_case "ridge selection" `Quick test_cross_validate_ridge;
          Alcotest.test_case "fold fits match materialized" `Quick test_cv_fold_models_match_materialized ] );
      ( "persistence",
        [ Alcotest.test_case "roundtrip" `Quick test_io_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_io_rejects_garbage;
          Alcotest.test_case "rejects transposed" `Quick test_io_rejects_transposed ] ) ]
