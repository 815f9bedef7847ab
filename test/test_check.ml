(* Tests for the static plan checker: every diagnostic code has a
   minimal trigger, the abstract shape agrees with both the legacy
   raising shape_of and the shape of the evaluated result on random
   well-formed expressions, the analysis is total (never raises, even
   on corrupt or ill-formed trees), and the plan-file parser
   round-trips the R-flavoured surface syntax. *)

open La
open Sparse
open Morpheus
open Test_support

let t0 () = Gen.normalized ~seed:41 Gen.Star2

(* naive substring / prefix tests (avoid extra library deps) *)
let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  m = 0 || at 0

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let codes_of report =
  List.map (fun d -> Check.code_name d.Check.code) report.Check.diagnostics

let check_codes name expected report =
  Alcotest.(check (list string)) name expected (codes_of report)

(* ---- one minimal trigger per diagnostic code ---- *)

(* 8×4, deliberately non-square so T %*% T is a dimension mismatch *)
let rect_normalized () =
  let s = Mat.of_dense (Dense.random ~rng:(Rng.of_int 5) 8 2) in
  let r = Mat.of_dense (Dense.random ~rng:(Rng.of_int 6) 3 2) in
  let k = Indicator.random ~rng:(Rng.of_int 7) ~rows:8 ~cols:3 () in
  Normalized.pkfk ~s ~k ~r

let test_e001_product () =
  let t = Expr.normalized (rect_normalized ()) in
  let report = Check.analyze Expr.(t *@ t) in
  check_codes "E001 only" [ "E001" ] report ;
  let d = List.hd (Check.errors report) in
  Alcotest.(check bool) "error severity" true
    (Check.severity_of d.Check.code = Check.Error) ;
  Alcotest.(check bool) "subterm rendered" true
    (String.length d.Check.subterm > 0)

let test_e001_elementwise () =
  let a = Expr.dense (Dense.create 3 2) and b = Expr.dense (Dense.create 2 3) in
  check_codes "E001 only" [ "E001" ] (Check.analyze Expr.(a +@ b))

let test_e002_unbound () =
  let report = Check.analyze (Expr.var "nope") in
  check_codes "E002 only" [ "E002" ] report ;
  Alcotest.(check bool) "top result" true
    (report.Check.result.Check.shape = Check.Top)

let test_e003_scalar_operand () =
  check_codes "rowSums of scalar" [ "E003" ]
    (Check.analyze Expr.(Row_sums (scalar 2.0))) ;
  check_codes "colSums of scalar" [ "E003" ]
    (Check.analyze Expr.(Col_sums (scalar 2.0))) ;
  check_codes "scalar +@ matrix" [ "E003" ]
    (Check.analyze Expr.(scalar 1.0 +@ dense (Dense.create 2 2)))

(* E004: constructors reject invalid structure, so corrupt an indicator
   mapping in place (Indicator.mapping returns the shared array). *)
let corrupted () =
  let t = Gen.normalized ~seed:42 Gen.Pkfk in
  let part = List.hd (Normalized.parts t) in
  let mapping = Indicator.mapping part.Normalized.ind in
  mapping.(0) <- Indicator.cols part.Normalized.ind + 5 ;
  t

let test_e004_invariants () =
  let t = corrupted () in
  Alcotest.(check bool) "validate reports" true (Normalized.validate t <> []) ;
  check_codes "E004 only" [ "E004" ] (Check.analyze (Expr.normalized t)) ;
  (* also via the environment *)
  check_codes "E004 via env" [ "E004" ]
    (Check.analyze ~env:[ ("T", Expr.Normalized t) ] (Expr.var "T"))

let test_w001_elementwise_materializes () =
  let tn = t0 () in
  let n, d = Normalized.dims tn in
  let x = Expr.dense (Dense.create n d) in
  check_codes "W001 only" [ "W001" ]
    (Check.analyze Expr.(Expr.normalized tn +@ x))

let test_w002_unresolvable_chain () =
  let a = Expr.dense (Dense.create 3 3) in
  let report = Check.analyze Expr.(a *@ (Sum a *@ a)) in
  Alcotest.(check bool) "W002 present" true
    (List.exists (fun d -> d.Check.code = Check.W002) report.Check.diagnostics) ;
  Alcotest.(check bool) "only warnings" true (Check.is_ok report)

let test_w003_slow_factorization () =
  (* tuple ratio 2 < τ=5 → factorization predicted slower *)
  let v = Check.normalized_value ~ns:100 ~ds:2 ~nr:50 ~dr:4 () in
  let x = Check.dense_value 6 1 in
  let report =
    Check.analyze_abstract ~env:[ ("T", v); ("X", x) ] Expr.(var "T" *@ var "X")
  in
  check_codes "W003 only" [ "W003" ] report ;
  Alcotest.(check bool) "still ok (warning)" true (Check.is_ok report)

(* ---- diagnostics carry usable paths ---- *)

let test_paths_address_subterms () =
  let t = Expr.normalized (rect_normalized ()) in
  let bad = Expr.(Sum (t *@ t)) in
  let report = Check.analyze bad in
  match Check.errors report with
  | [ d ] ->
    (match Ast.subterm bad d.Check.path with
    | Some (Ast.Mult _) -> ()
    | _ -> Alcotest.fail "path should address the offending Mult") ;
    Alcotest.(check bool) "where mentions sum" true
      (contains ~sub:"sum" d.Check.where)
  | ds -> Alcotest.failf "expected exactly one error, got %d" (List.length ds)

(* ---- agreement with the legacy raising API and with evaluation ---- *)

let value_shape = function
  | Expr.Scalar _ -> Check.Scalar
  | Expr.Regular m ->
    Check.Matrix (Some (Regular_matrix.rows m), Some (Regular_matrix.cols m))
  | Expr.Normalized n ->
    Check.Matrix (Some (Normalized.rows n), Some (Normalized.cols n))

(* random well-formed expression over tn, as in test_expr.ml *)
let rec random_expr rng tn depth =
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
        let k = 1 + Rng.int rng 2 in
        (Expr.(e *@ dense (Dense.random ~rng c k)), r, k)
  end

let prop_shape_agrees_with_eval =
  QCheck.Test.make ~name:"qcheck: checker shape = eval shape = shape_of"
    ~count:150
    (QCheck.make
       ~print:(fun (seed, depth) -> Printf.sprintf "seed=%d depth=%d" seed depth)
       QCheck.Gen.(pair (int_range 0 100_000) (int_range 1 4)))
    (fun (seed, depth) ->
      let tn = Gen.normalized ~seed:(seed mod 7) Gen.Star2 in
      let rng = Rng.of_int seed in
      let e, _, _ = random_expr rng tn depth in
      let report = Check.analyze e in
      Check.is_ok report
      && report.Check.result.Check.shape = value_shape (Expr.eval e)
      && (match (Expr.shape_of ~env:[] e, report.Check.result.Check.shape) with
         | Expr.S_scalar, Check.Scalar -> true
         | Expr.S_mat (r, c), Check.Matrix (Some r', Some c') ->
           r = r' && c = c'
         | _ -> false))

(* totality: arbitrary (often ill-formed) trees must never raise *)
let rec random_garbage rng depth =
  if depth = 0 then
    match Rng.int rng 4 with
    | 0 -> Expr.scalar (Rng.uniform rng ~lo:(-2.0) ~hi:2.0)
    | 1 -> Expr.var "free"
    | 2 -> Expr.dense (Dense.random ~rng (1 + Rng.int rng 4) (1 + Rng.int rng 4))
    | _ -> Expr.normalized (Gen.normalized ~seed:(Rng.int rng 5) Gen.Pkfk)
  else begin
    let sub () = random_garbage rng (depth - 1) in
    match Rng.int rng 12 with
    | 0 -> Expr.Scale (2.0, sub ())
    | 1 -> Expr.Add_scalar (1.0, sub ())
    | 2 -> Expr.Pow_scalar (sub (), 2.0)
    | 3 -> Expr.Transpose (sub ())
    | 4 -> Expr.Row_sums (sub ())
    | 5 -> Expr.Col_sums (sub ())
    | 6 -> Expr.Sum (sub ())
    | 7 -> Expr.Mult (sub (), sub ())
    | 8 -> Expr.Crossprod (sub ())
    | 9 -> Expr.Ginv (sub ())
    | 10 -> Expr.Add (sub (), sub ())
    | _ -> Expr.Div_elem (sub (), sub ())
  end

let prop_total =
  QCheck.Test.make ~name:"qcheck: analysis is total (never raises)" ~count:200
    (QCheck.make
       ~print:(fun seed -> Printf.sprintf "seed=%d" seed)
       QCheck.Gen.(int_range 0 100_000))
    (fun seed ->
      let rng = Rng.of_int seed in
      let e = random_garbage rng (1 + Rng.int rng 4) in
      let report = Check.analyze e in
      ignore (Check.report_to_string report) ;
      ignore (Check.totals report) ;
      true)

(* ---- per-node annotations ---- *)

let test_annotations () =
  let tn = t0 () in
  let n, d = Normalized.dims tn in
  ignore n ;
  let x = Expr.dense (Dense.create d 2) in
  let report = Check.analyze Expr.(Expr.normalized tn *@ x) in
  Alcotest.(check int) "three nodes" 3 (List.length report.Check.nodes) ;
  let root = List.hd report.Check.nodes in
  Alcotest.(check (list int)) "preorder: root first" [] root.Check.a_path ;
  Alcotest.(check bool) "standard cost present" true
    (root.Check.a_standard <> None) ;
  Alcotest.(check bool) "factorized cost present" true
    (root.Check.a_factorized <> None) ;
  Alcotest.(check bool) "rule names LMM" true
    (match root.Check.a_rule with
    | Some r -> contains ~sub:"LMM" r
    | None -> false) ;
  let std, fact = Check.totals report in
  Alcotest.(check bool) "totals positive" true (std > 0.0 && fact > 0.0)

let test_infer_shape_result () =
  let t = Expr.normalized (rect_normalized ()) in
  (match Check.infer_shape Expr.(Sum t) with
  | Ok Check.Scalar -> ()
  | _ -> Alcotest.fail "sum is scalar") ;
  match Check.infer_shape Expr.(t *@ t) with
  | Error msg ->
    Alcotest.(check bool) "legacy message" true
      (has_prefix ~prefix:"product shape mismatch" msg)
  | Ok _ -> Alcotest.fail "expected error"

(* the raising wrapper keeps the legacy message strings verbatim *)
let test_wrapper_messages () =
  let msg e = try ignore (Expr.shape_of ~env:[] e) ; "" with Expr.Type_error m -> m in
  Alcotest.(check string) "unbound" "unbound variable nope"
    (msg (Expr.var "nope")) ;
  Alcotest.(check string) "rowSums" "rowSums of scalar"
    (msg Expr.(Row_sums (scalar 1.0))) ;
  Alcotest.(check string) "elementwise mix"
    "elementwise op between scalar and matrix"
    (msg Expr.(scalar 1.0 +@ dense (Dense.create 2 2))) ;
  Alcotest.(check string) "elementwise dims"
    "elementwise shape mismatch: 3x2 vs 2x3"
    (msg Expr.(dense (Dense.create 3 2) +@ dense (Dense.create 2 3)))

(* ---- explain / builder integration ---- *)

let test_describe_verdict () =
  let ok = Gen.normalized ~seed:43 Gen.Pkfk in
  let s = Explain.describe ok in
  Alcotest.(check bool) "ok verdict" true (contains ~sub:"invariants: ok" s) ;
  let bad = corrupted () in
  let s = Explain.describe bad in
  Alcotest.(check bool) "violation verdict" true
    (contains ~sub:"invariants: VIOLATED" s)

(* ---- plan files ---- *)

let plan_src =
  "# comment\n\
   normalized T ns=1000 ds=4 nr=50 dr=6\n\
   dense y 1000 1\n\
   scalar alpha\n\
   let gram = crossprod(T)\n\
   check ginv(gram) %*% (T' %*% y)\n\
   check alpha %*% rowSums(T)\n"

let test_plan_parse () =
  match Plan.parse plan_src with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok plan ->
    Alcotest.(check int) "three declarations" 3 (List.length (Plan.env plan)) ;
    Alcotest.(check int) "two checks" 2 (List.length (Plan.checks plan)) ;
    let env = Plan.env plan in
    List.iter
      (fun (name, e) ->
        let report = Check.analyze_abstract ~env e in
        if not (Check.is_ok report) then
          Alcotest.failf "plan check %s has errors: %s" name
            (String.concat "; "
               (List.map Check.diagnostic_to_string (Check.errors report))))
      (Plan.checks plan)

let test_plan_scalar_folding () =
  (* 3 * X must fold to Scale, not an ill-typed Mul_elem *)
  match Plan.parse_expr "3 * X + 1" with
  | Ok (Ast.Add_scalar (1.0, Ast.Scale (3.0, Ast.Var "X"))) -> ()
  | Ok e -> Alcotest.failf "unexpected parse: %s" (Ast.to_string e)
  | Error msg -> Alcotest.failf "parse failed: %s" msg

let test_plan_precedence () =
  (* %*% binds tighter than *, postfix ' tightest *)
  match Plan.parse_expr "A' %*% B * C" with
  | Ok (Ast.Mul_elem (Ast.Mult (Ast.Transpose (Ast.Var "A"), Ast.Var "B"),
                      Ast.Var "C")) -> ()
  | Ok e -> Alcotest.failf "unexpected parse: %s" (Ast.to_string e)
  | Error msg -> Alcotest.failf "parse failed: %s" msg

let test_plan_errors_have_lines () =
  match Plan.parse "dense X 3 3\ncheck X %*%\n" with
  | Error msg ->
    Alcotest.(check bool) "line number" true (has_prefix ~prefix:"line 2:" msg)
  | Ok _ -> Alcotest.fail "expected parse error"

let test_plan_undeclared_is_e002 () =
  match Plan.parse "dense X 3 3\ncheck X %*% Mystery\n" with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok plan ->
    let _, e = List.hd (Plan.checks plan) in
    let report = Check.analyze_abstract ~env:(Plan.env plan) e in
    Alcotest.(check (list string)) "E002" [ "E002" ] (codes_of report)

(* optimize must reassociate through the checker's total analysis and
   leave scalar-containing chains untouched (no exceptions involved) *)
let test_optimize_without_exceptions () =
  let a = Expr.dense (Dense.create 10 2) in
  let b = Expr.dense (Dense.create 2 10) in
  let c = Expr.dense (Dense.create 10 1) in
  (match Expr.optimize Expr.(a *@ b *@ c) with
  | Expr.Mult (_, Expr.Mult _) -> () (* right-assoc is cheaper *)
  | e -> Alcotest.failf "expected reassociation, got %s" (Expr.to_string e)) ;
  let chain = Expr.(a *@ (Sum c *@ (b *@ c))) in
  let kept = Expr.optimize chain in
  Alcotest.(check string) "scalar chain untouched" (Expr.to_string chain)
    (Expr.to_string kept)

let qc = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "check"
    [ ( "codes",
        [ Alcotest.test_case "E001 product" `Quick test_e001_product;
          Alcotest.test_case "E001 elementwise" `Quick test_e001_elementwise;
          Alcotest.test_case "E002 unbound" `Quick test_e002_unbound;
          Alcotest.test_case "E003 scalar operand" `Quick test_e003_scalar_operand;
          Alcotest.test_case "E004 invariants" `Quick test_e004_invariants;
          Alcotest.test_case "W001 materialization" `Quick
            test_w001_elementwise_materializes;
          Alcotest.test_case "W002 chain" `Quick test_w002_unresolvable_chain;
          Alcotest.test_case "W003 slow factorization" `Quick
            test_w003_slow_factorization;
          Alcotest.test_case "paths" `Quick test_paths_address_subterms ] );
      ( "analysis",
        [ Alcotest.test_case "annotations" `Quick test_annotations;
          Alcotest.test_case "infer_shape" `Quick test_infer_shape_result;
          Alcotest.test_case "wrapper messages" `Quick test_wrapper_messages;
          Alcotest.test_case "describe verdict" `Quick test_describe_verdict;
          Alcotest.test_case "optimize total" `Quick
            test_optimize_without_exceptions ] );
      ( "plans",
        [ Alcotest.test_case "parse + check" `Quick test_plan_parse;
          Alcotest.test_case "scalar folding" `Quick test_plan_scalar_folding;
          Alcotest.test_case "precedence" `Quick test_plan_precedence;
          Alcotest.test_case "parse errors" `Quick test_plan_errors_have_lines;
          Alcotest.test_case "undeclared var" `Quick test_plan_undeclared_is_e002 ] );
      ( "properties",
        [ qc prop_shape_agrees_with_eval; qc prop_total ] ) ]
