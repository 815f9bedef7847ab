(* Uniform-signature test: one generic checker runs against every
   Data_matrix.S instantiation (regular, factorized, adaptive, and the
   evaluator's one dispatch Expr.Matrix over both representations) and
   a shared dataset, verifying that every operation in the signature
   gives identical results across the implementations — the contract
   the ML functors rely on. *)

open La
open Sparse
open Morpheus
open Test_support

let dataset () =
  let rng = Rng.of_int 123 in
  let ns = 60 and nr = 6 and ds = 3 and dr = 4 in
  let s = Mat.of_dense (Dense.gaussian ~rng ns ds) in
  let r = Mat.of_dense (Dense.gaussian ~rng nr dr) in
  let k = Indicator.random ~rng ~rows:ns ~cols:nr () in
  Normalized.pkfk ~s ~k ~r

(* Collect every signature operation's result as a list of named dense
   matrices (scalars become 1×1). *)
module Probe (M : Data_matrix.S) = struct
  let run (t : M.t) =
    let n = M.rows t and d = M.cols t in
    let x = Dense.random ~rng:(Rng.of_int 9) d 2 in
    let z = Dense.random ~rng:(Rng.of_int 10) 2 n in
    let p = Dense.random ~rng:(Rng.of_int 11) n 1 in
    [ ("dims", Dense.of_arrays [| [| float_of_int n; float_of_int d |] |]);
      ("scale->sum", Dense.make 1 1 (M.sum (M.scale 2.5 t)));
      ("add_scalar->sum", Dense.make 1 1 (M.sum (M.add_scalar 1.5 t)));
      ("pow->sum", Dense.make 1 1 (M.sum (M.pow t 2.0)));
      ("map->sum", Dense.make 1 1 (M.sum (M.map_scalar (fun v -> (v *. v) +. 1.0) t)));
      ("row_sums", M.row_sums t);
      ("col_sums", M.col_sums t);
      ("lmm", M.lmm t x);
      ("rmm", M.rmm z t);
      ("tlmm", M.tlmm t p);
      ("crossprod", M.crossprod t);
      ("ginv", M.ginv t) ]
end

module PR = Probe (Regular_matrix)
module PF = Probe (Factorized_matrix)
module PA = Probe (Adaptive_matrix)
module PE = Probe (Expr.Matrix)

let compare_runs name a b =
  List.iter2
    (fun (la, ma) (lb, mb) ->
      assert (la = lb) ;
      Gen.check_close ~tol:1e-7 (Printf.sprintf "%s: %s" name la) ma mb)
    a b

let test_all_instances_agree () =
  let t = dataset () in
  let reg = PR.run (Materialize.to_regular t) in
  let fact = PF.run t in
  let adap_f = PA.run (Adaptive_matrix.factorized t) in
  let adap_m = PA.run (Adaptive_matrix.materialized t) in
  let expr_r = PE.run (Expr.Regular (Materialize.to_regular t)) in
  let expr_n = PE.run (Expr.Normalized t) in
  compare_runs "regular vs factorized" reg fact ;
  compare_runs "regular vs adaptive(F)" reg adap_f ;
  compare_runs "regular vs adaptive(M)" reg adap_m ;
  compare_runs "regular vs Expr.Matrix(regular)" reg expr_r ;
  compare_runs "regular vs Expr.Matrix(normalized)" reg expr_n

let test_describe_nonempty () =
  let t = dataset () in
  Alcotest.(check bool) "regular" true
    (String.length (Regular_matrix.describe (Materialize.to_regular t)) > 0) ;
  Alcotest.(check bool) "factorized" true
    (String.length (Factorized_matrix.describe t) > 0) ;
  Alcotest.(check bool) "adaptive" true
    (String.length (Adaptive_matrix.describe (Adaptive_matrix.of_normalized t)) > 0)

let () =
  Alcotest.run "data-matrix"
    [ ( "uniform-signature",
        [ Alcotest.test_case "all instances agree" `Quick test_all_instances_agree;
          Alcotest.test_case "describe" `Quick test_describe_nonempty ] ) ]
