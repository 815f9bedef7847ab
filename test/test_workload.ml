(* Tests for the workload generators: dimensions, ratios, referential
   integrity, and the Table 6 statistics of the simulated real datasets. *)

open La
open Sparse
open Morpheus
open Workload

let test_pkfk_dims () =
  let d = Synthetic.pkfk ~ns:50 ~ds:3 ~nr:10 ~dr:6 () in
  Alcotest.(check (pair int int)) "T dims" (50, 9) (Normalized.dims d.Synthetic.t) ;
  Alcotest.(check (pair int int)) "y" (50, 1) (Dense.dims d.Synthetic.y) ;
  Alcotest.(check (float 1e-9)) "TR" 5.0 (Normalized.tuple_ratio d.Synthetic.t) ;
  Alcotest.(check (float 1e-9)) "FR" 2.0 (Normalized.feature_ratio d.Synthetic.t)

let test_pkfk_deterministic () =
  let a = Synthetic.pkfk ~seed:5 ~ns:20 ~ds:2 ~nr:4 ~dr:2 () in
  let b = Synthetic.pkfk ~seed:5 ~ns:20 ~ds:2 ~nr:4 ~dr:2 () in
  Alcotest.(check bool) "same data" true
    (Dense.approx_equal
       (Materialize.to_dense a.Synthetic.t)
       (Materialize.to_dense b.Synthetic.t))

let test_pkfk_labels () =
  let d = Synthetic.pkfk ~ns:100 ~ds:2 ~nr:10 ~dr:2 () in
  Dense.iteri
    (fun _ _ v -> Alcotest.(check bool) "±1" true (v = 1.0 || v = -1.0))
    d.Synthetic.y

let test_star_dims () =
  let d = Synthetic.star ~ns:40 ~ds:2 ~atts:[ (5, 3); (4, 4) ] () in
  Alcotest.(check (pair int int)) "dims" (40, 9) (Normalized.dims d.Synthetic.t) ;
  Alcotest.(check int) "parts" 2 (List.length (Normalized.parts d.Synthetic.t))

let test_mn_join_output () =
  let d = Synthetic.mn ~ns:30 ~nr:30 ~ds:2 ~dr:3 ~nu:5 () in
  let t = d.Synthetic.t in
  (* M:N join output is larger than either input for small domains *)
  Alcotest.(check bool) "output grows" true (Normalized.rows t > 30) ;
  Alcotest.(check int) "cols" 5 (Normalized.cols t) ;
  (* y aligned with output *)
  Alcotest.(check int) "y rows" (Normalized.rows t) (Dense.rows d.Synthetic.y) ;
  (* every base tuple used at least once *)
  List.iter
    (fun (p : Normalized.part) ->
      Array.iter
        (fun c -> Alcotest.(check bool) "referenced" true (c > 0.0))
        (Indicator.col_counts p.Normalized.ind))
    (Normalized.parts t)

let test_mn_uniqueness_drives_size () =
  (* smaller domain (more repetition) → bigger join output *)
  let small = Synthetic.mn ~ns:50 ~nr:50 ~ds:2 ~dr:2 ~nu:2 () in
  let large = Synthetic.mn ~ns:50 ~nr:50 ~ds:2 ~dr:2 ~nu:40 () in
  Alcotest.(check bool) "nu=2 bigger than nu=40" true
    (Normalized.rows small.Synthetic.t > Normalized.rows large.Synthetic.t)

let test_mn_rewrites_correct () =
  (* generated M:N data flows through the rewrite rules correctly *)
  let d = Synthetic.mn ~ns:25 ~nr:20 ~ds:2 ~dr:3 ~nu:4 () in
  let t = d.Synthetic.t in
  let m = Materialize.to_dense t in
  let x = Dense.random ~rng:(Rng.of_int 2) (Normalized.cols t) 2 in
  Alcotest.(check bool) "lmm" true
    (Dense.approx_equal ~tol:1e-8 (Blas.gemm m x) (Rewrite.lmm t x)) ;
  Alcotest.(check bool) "crossprod" true
    (Dense.approx_equal ~tol:1e-8 (Blas.crossprod m) (Rewrite.crossprod t))

let test_table4_presets () =
  let d = Synthetic.table4_tuple_ratio ~base:200 ~tr:10 ~fr:2.0 () in
  Alcotest.(check (float 1e-9)) "TR" 10.0 (Normalized.tuple_ratio d.Synthetic.t) ;
  Alcotest.(check (float 1e-9)) "FR" 2.0 (Normalized.feature_ratio d.Synthetic.t)

(* ---- realistic datasets ---- *)

let test_realistic_specs_match_paper () =
  (* Table 6 numbers, spot-checked *)
  Alcotest.(check int) "expedia nS" 942142 Realistic.expedia.Realistic.s.Realistic.n ;
  Alcotest.(check int) "movies q" 2 (List.length Realistic.movies.Realistic.atts) ;
  Alcotest.(check int) "flights q" 3 (List.length Realistic.flights.Realistic.atts) ;
  Alcotest.(check int) "yelp R2 d" 43900
    (List.nth Realistic.yelp.Realistic.atts 1).Realistic.d ;
  Alcotest.(check int) "all datasets" 7 (List.length Realistic.all)

let test_realistic_load_scaled () =
  let t, y, y_num = Realistic.load ~scale_rows:0.01 ~scale_cols:0.05 Realistic.walmart in
  let ns = Normalized.rows t in
  Alcotest.(check bool) "rows scaled" true (ns > 1000 && ns < 10000) ;
  Alcotest.(check int) "y aligned" ns (Dense.rows y) ;
  Alcotest.(check int) "y_num aligned" ns (Dense.rows y_num) ;
  (* feature matrices are sparse *)
  List.iter
    (fun (p : Normalized.part) ->
      Alcotest.(check bool) "sparse atts" true (Mat.is_sparse p.Normalized.mat))
    (Normalized.parts t)

let test_realistic_nnz_per_row_preserved () =
  let spec = Realistic.movies in
  let t, _, _ = Realistic.load ~scale_rows:0.005 ~scale_cols:0.05 spec in
  let parts = Normalized.parts t in
  List.iter2
    (fun (p : Normalized.part) (att : Realistic.table_stats) ->
      let nnz_per_row_paper =
        float_of_int att.Realistic.nnz /. float_of_int att.Realistic.n
      in
      let got =
        float_of_int (Mat.storage_size p.Normalized.mat)
        /. float_of_int (Mat.rows p.Normalized.mat)
      in
      if Float.abs (got -. nnz_per_row_paper) > 1.5 then
        Alcotest.failf "nnz/row %.1f vs paper %.1f" got nnz_per_row_paper)
    parts spec.Realistic.atts

let test_realistic_rewrites_correct () =
  let t, _, _ = Realistic.load ~scale_rows:0.002 ~scale_cols:0.01 Realistic.yelp in
  let m = Materialize.to_dense t in
  let x = Dense.random ~rng:(Rng.of_int 4) (Normalized.cols t) 1 in
  Alcotest.(check bool) "lmm on realistic data" true
    (Dense.approx_equal ~tol:1e-7 (Blas.gemm m x) (Rewrite.lmm t x))

let test_find () =
  Alcotest.(check string) "find" "Expedia" (Realistic.find "expedia").Realistic.name ;
  Alcotest.(check bool) "unknown raises" true
    (try
       ignore (Realistic.find "nope") ;
       false
     with Invalid_argument _ -> true)

(* ---- timing helpers ---- *)

let test_timing_measure () =
  let calls = ref 0 in
  let dt =
    Timing.measure ~warmup:2 ~runs:3 (fun () ->
        incr calls ;
        ())
  in
  Alcotest.(check int) "warmup+runs" 5 !calls ;
  Alcotest.(check bool) "non-negative" true (dt >= 0.0)

let test_timing_speedup () =
  Alcotest.(check (float 1e-9)) "ratio" 4.0
    (Timing.speedup ~materialized:2.0 ~factorized:0.5)

(* Nearest rank on 5 samples: p20 is exactly the 1st sample and p21
   already the 2nd. *)
let test_timing_percentile () =
  let xs = [| 5.0; 1.0; 4.0; 2.0; 3.0 |] in
  List.iter
    (fun (p, want) ->
      Alcotest.(check (float 0.0)) (Printf.sprintf "p%g" p) want
        (Timing.percentile p xs))
    [ (50.0, 3.0); (90.0, 5.0); (20.0, 1.0); (21.0, 2.0); (100.0, 5.0) ] ;
  Alcotest.(check bool) "empty is nan" true
    (Float.is_nan (Timing.percentile 50.0 [||])) ;
  Alcotest.(check (array (float 0.0))) "input left unsorted"
    [| 5.0; 1.0; 4.0; 2.0; 3.0 |] xs

let () =
  Alcotest.run "workload"
    [ ( "synthetic",
        [ Alcotest.test_case "pkfk dims & ratios" `Quick test_pkfk_dims;
          Alcotest.test_case "deterministic" `Quick test_pkfk_deterministic;
          Alcotest.test_case "±1 labels" `Quick test_pkfk_labels;
          Alcotest.test_case "star dims" `Quick test_star_dims;
          Alcotest.test_case "mn join output" `Quick test_mn_join_output;
          Alcotest.test_case "mn uniqueness → size" `Quick test_mn_uniqueness_drives_size;
          Alcotest.test_case "mn rewrites correct" `Quick test_mn_rewrites_correct;
          Alcotest.test_case "table4 presets" `Quick test_table4_presets ] );
      ( "realistic",
        [ Alcotest.test_case "Table 6 specs" `Quick test_realistic_specs_match_paper;
          Alcotest.test_case "scaled load" `Quick test_realistic_load_scaled;
          Alcotest.test_case "nnz/row preserved" `Quick test_realistic_nnz_per_row_preserved;
          Alcotest.test_case "rewrites correct" `Quick test_realistic_rewrites_correct;
          Alcotest.test_case "find" `Quick test_find ] );
      ( "timing",
        [ Alcotest.test_case "measure" `Quick test_timing_measure;
          Alcotest.test_case "speedup" `Quick test_timing_speedup;
          Alcotest.test_case "percentile" `Quick test_timing_percentile ] ) ]
