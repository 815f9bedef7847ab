(* Planner property suite: the fused relational-LA pipeline. Predicates
   round-trip through their canonical string (the serving tier's batch
   fusion key); the Filter → select_rows pushdown agrees with the
   materialize-then-filter baseline — bitwise where both arms gather
   the same floats (masks, filtered materializations, the factorized
   kernels over filter vs mask + select_rows), to tight tolerance
   across the factorized/materialized kernel boundary (different
   accumulation orders); projection and group-by agree with their
   [_mat] twins; the structural rewrites fire (filter fusion,
   projection collapse, selection below projection, σᵀσ → masked
   crossprod); select_rows' compaction agrees with the shared-R
   selection on every Table-1 operator and takes the branch Cost
   prices; the relational diagnostics trigger; and a plan file
   with a predicate round-trips parse → check → optimize → explain
   with the pushdown narrated. Registered under @parcheck at 1 and 4
   domains: masks, gathers, and the kernels they feed must be
   thread-count-invariant. *)

open La
open Sparse
open Morpheus
open Test_support

let qc = QCheck_alcotest.to_alcotest

let seed_gen = QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 100_000)

let shape_of_seed seed = List.nth Gen.shapes (seed mod 4)

(* naive substring test (avoid extra library deps) *)
let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  m = 0 || at 0

(* Both arms must gather the same floats: equal bits, not approx. *)
let bits_equal a b =
  Dense.dims a = Dense.dims b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       (Dense.data a) (Dense.data b)

let gather_rows m ids =
  Dense.of_arrays
    (Array.map (fun i -> Array.init (Dense.cols m) (Dense.get m i)) ids)

(* Random predicate over the positional names [c0 … c{d-1}]: constants
   drawn from the bulk of the data distribution so the whole
   selectivity range is exercised, including empty and full masks. *)
let rec gen_pred rng ~d depth =
  if depth <= 0 || Rng.int rng 3 = 0 then
    let col = Printf.sprintf "c%d" (Rng.int rng d) in
    let cmp =
      match Rng.int rng 6 with
      | 0 -> Pred.Eq
      | 1 -> Pred.Ne
      | 2 -> Pred.Lt
      | 3 -> Pred.Le
      | 4 -> Pred.Gt
      | _ -> Pred.Ge
    in
    Pred.Cmp (col, cmp, Rng.uniform rng ~lo:(-1.5) ~hi:1.5)
  else
    match Rng.int rng 3 with
    | 0 -> Pred.And (gen_pred rng ~d (depth - 1), gen_pred rng ~d (depth - 1))
    | 1 -> Pred.Or (gen_pred rng ~d (depth - 1), gen_pred rng ~d (depth - 1))
    | _ -> Pred.Not (gen_pred rng ~d (depth - 1))

let case seed =
  let t = Gen.normalized ~seed (shape_of_seed seed) in
  let p = gen_pred (Rng.of_int (seed + 13)) ~d:(Normalized.cols t) 3 in
  (t, p)

(* ---- the canonical string is a faithful key ---- *)

let prop_pred_roundtrip =
  QCheck.Test.make ~name:"pred parse/print round-trip" ~count:200 seed_gen
    (fun seed ->
      let p = gen_pred (Rng.of_int seed) ~d:6 4 in
      let s = Pred.to_string p in
      match Pred.parse s with
      | Error _ -> false
      | Ok q -> Pred.equal p q && Pred.to_string q = s)

(* ---- pushdown ≡ materialize-then-filter ---- *)

let prop_mask_agree =
  QCheck.Test.make ~name:"mask = mask_mat over materialization" ~count:100
    seed_gen (fun seed ->
      let t, p = case seed in
      Relalg.mask t p = Relalg.mask_mat (Materialize.to_mat t) p)

let prop_filter_bitwise =
  QCheck.Test.make ~name:"filter materializes bitwise = row gather" ~count:100
    seed_gen (fun seed ->
      let t, p = case seed in
      let ids = Relalg.mask t p in
      if Array.length ids = 0 then true
      else
        bits_equal
          (Materialize.to_dense (Relalg.filter t p))
          (gather_rows (Materialize.to_dense t) ids))

let prop_crossprod_pushdown =
  QCheck.Test.make ~name:"masked crossprod: plan, kernel, baseline" ~count:60
    seed_gen (fun seed ->
      let t, p = case seed in
      let leaf = Expr.normalized t in
      let fe = Expr.filter p leaf in
      let e = Expr.(tr fe *@ fe) in
      let opt = Expr.optimize (Expr.simplify e) in
      let structural =
        match opt with Ast.Crossprod (Ast.Filter _) -> true | _ -> false
      in
      let ids = Relalg.mask t p in
      structural
      && (Array.length ids = 0
         ||
         let push = Rewrite.crossprod (Relalg.filter t p) in
         (* filter is mask + select_rows and nothing else: same kernel
            over the composed selection is bitwise-identical *)
         bits_equal push (Rewrite.crossprod (Normalized.select_rows t ids))
         (* the optimized plan evaluates to the same factorized result *)
         && bits_equal push (Expr.eval_dense opt)
         (* cross the kernel boundary: materialize-then-filter baseline *)
         && Dense.approx_equal ~tol:1e-8 push
              (Mat.crossprod (Relalg.filter_mat (Materialize.to_mat t) p))))

let prop_scoring_pushdown =
  QCheck.Test.make ~name:"masked scoring: LMM over filter" ~count:60 seed_gen
    (fun seed ->
      let t, p = case seed in
      let ids = Relalg.mask t p in
      if Array.length ids = 0 then true
      else
        let w = Dense.gaussian ~rng:(Rng.of_int (seed + 29)) (Normalized.cols t) 1 in
        let push = Rewrite.lmm (Relalg.filter t p) w in
        bits_equal push (Rewrite.lmm (Normalized.select_rows t ids) w)
        && Dense.approx_equal ~tol:1e-8 push
             (Mat.mm (Relalg.filter_mat (Materialize.to_mat t) p) w))

let prop_project_pushdown =
  QCheck.Test.make ~name:"project = column gather (part pruning)" ~count:100
    seed_gen (fun seed ->
      let t = Gen.normalized ~seed (shape_of_seed seed) in
      let d = Normalized.cols t in
      let rng = Rng.of_int (seed + 37) in
      let keep = List.filter (fun _ -> Rng.bool rng) (List.init d Fun.id) in
      let keep = if keep = [] then [ Rng.int rng d ] else keep in
      let cols = List.map (Printf.sprintf "c%d") keep in
      let dense = Materialize.to_dense t in
      let baseline =
        Dense.init (Dense.rows dense) (List.length keep) (fun i j ->
            Dense.get dense i (List.nth keep j))
      in
      bits_equal (Materialize.to_dense (Relalg.project t cols)) baseline
      && bits_equal
           (Mat.dense (Relalg.project_mat (Materialize.to_mat t) cols))
           baseline)

let prop_group_agg =
  QCheck.Test.make ~name:"group_agg = group_agg_mat" ~count:60 seed_gen
    (fun seed ->
      let t = Gen.normalized ~seed (shape_of_seed seed) in
      let keys = [ "c0" ] in
      List.for_all
        (fun agg ->
          Dense.approx_equal ~tol:1e-8
            (Relalg.group_agg t ~keys agg)
            (Relalg.group_agg_mat (Materialize.to_mat t) ~keys agg))
        [ Relalg.Agg_sum; Relalg.Agg_mean; Relalg.Agg_count ])

(* ---- structural rewrites ---- *)

let p0 = Pred.Cmp ("c0", Pred.Ge, 0.25)
let q0 = Pred.Cmp ("c1", Pred.Lt, 1.0)

let check_ast name expected got =
  Alcotest.(check bool) name true (Ast.equal expected got)

let test_simplify_filter_fusion () =
  let x = Expr.var "T" in
  check_ast "σ_p(σ_q(T)) → σ_{p∧q}(T)"
    (Expr.filter (Pred.And (p0, q0)) x)
    (Expr.simplify (Expr.filter p0 (Expr.filter q0 x)))

let test_simplify_project_collapse () =
  let x = Expr.var "T" in
  check_ast "π_a(π_ab(T)) → π_a(T)"
    (Expr.project [ "c0" ] x)
    (Expr.simplify (Expr.project [ "c0" ] (Expr.project [ "c0"; "c1" ] x)))

let test_simplify_filter_below_project () =
  let x = Expr.var "T" in
  check_ast "σ_p(π(T)) → π(σ_p(T)) when p's columns are kept"
    (Expr.project [ "c0"; "c1" ] (Expr.filter p0 x))
    (Expr.simplify (Expr.filter p0 (Expr.project [ "c0"; "c1" ] x)))

let test_optimize_masked_crossprod () =
  let fe = Expr.filter p0 (Expr.var "T") in
  let opt = Expr.optimize (Expr.simplify Expr.(tr fe *@ fe)) in
  match opt with
  | Ast.Crossprod (Ast.Filter (p, Ast.Var "T")) ->
    Alcotest.(check bool) "predicate preserved" true (Pred.equal p p0)
  | _ -> Alcotest.failf "expected Crossprod (Filter _), got %s" (Ast.to_string opt)

(* ---- the compaction oracle ----

   select_rows may compact an attribute part to the rows its selection
   references. The reference is the shared-R selection built by hand
   from the composed mappings; every Table-1 operator must agree with
   it bit for bit, and each part must have taken the branch Cost
   prices. *)

let shared_selection t idx =
  let part (p : Normalized.part) =
    let m = Indicator.mapping p.Normalized.ind in
    ( Indicator.create ~cols:(Indicator.cols p.Normalized.ind)
        (Array.map (fun i -> m.(i)) idx),
      p.Normalized.mat )
  in
  Normalized.make
    ?ent:(Option.map (fun s -> Mat.gather_rows s idx) (Normalized.ent t))
    (List.map part (Normalized.parts t))

(* Every operator, on fixed multipliers; [Error] carries the exception
   so both sides must also fail alike. *)
let operators t =
  let n, d = Normalized.dims t in
  let x rows cols seed = Dense.gaussian ~rng:(Rng.of_int seed) rows cols in
  let scalar v = Dense.make 1 1 v in
  [ ("lmm", fun () -> Rewrite.lmm t (x d 2 1));
    ("rmm", fun () -> Rewrite.rmm (x 2 n 2) t);
    ("tlmm", fun () -> Rewrite.tlmm t (x n 2 3));
    ("crossprod", fun () -> Rewrite.crossprod t);
    ("crossprod(T')", fun () -> Rewrite.crossprod (Rewrite.transpose t));
    ("row_sums", fun () -> Rewrite.row_sums t);
    ("col_sums", fun () -> Rewrite.col_sums t);
    ("sum", fun () -> scalar (Rewrite.sum t));
    ("row_sums_sq", fun () -> Rewrite.row_sums_sq t);
    ("col_sums_sq", fun () -> Rewrite.col_sums_sq t) ]
  |> List.map (fun (name, f) ->
         (name, try Ok (f ()) with e -> Error (Printexc.to_string e)))

(* The R rows a selection references in one part, ascending, and
   whether Cost prices their gather cheaper. *)
let referenced (p : Normalized.part) idx =
  List.sort_uniq compare
    (Array.to_list (Array.map (Indicator.col_of_row p.Normalized.ind) idx))

let priced_compact (p : Normalized.part) idx =
  Cost.compacts ~nr:(Mat.rows p.Normalized.mat) ~dr:(Mat.cols p.Normalized.mat)
    ~k:(Array.length idx) ~u:(List.length (referenced p idx))

(* The id sets: one row; duplicates and reordering; the longest prefix
   of a reversed order that some part compacts; every row; empty. *)
let id_sets t =
  let n = Normalized.rows t in
  let rev = Array.init n (fun i -> n - 1 - i) in
  let rec longest m =
    if m = 0 then [| 0 |]
    else if List.exists (fun p -> priced_compact p (Array.sub rev 0 m)) (Normalized.parts t)
    then Array.sub rev 0 m
    else longest (m - 1)
  in
  [ ("one row", [| n / 2 |]);
    ("duplicates", [| n - 1; 0; n - 1; 1 mod n; 0 |]);
    ("compacting subset", longest (n - 1));
    ("every row", Array.init n Fun.id);
    ("empty", [||]) ]

(* Which branch each part took; fails when it is not the priced one. *)
let branches label t idx sub =
  List.map2
    (fun (p : Normalized.part) (p' : Normalized.part) ->
      let keys = referenced p idx in
      let u = List.length keys and r = p.Normalized.mat in
      let compacted = priced_compact p idx in
      if compacted then begin
        if Mat.rows p'.Normalized.mat <> u || Indicator.cols p'.Normalized.ind <> u then
          Alcotest.failf "%s: compacted R has %d rows, expected %d" label
            (Mat.rows p'.Normalized.mat) u ;
        if not (bits_equal (Mat.dense (Mat.gather_rows r (Array.of_list keys)))
                  (Mat.dense p'.Normalized.mat)) then
          Alcotest.failf "%s: compacted R is not the ascending gather" label
      end
      else if p'.Normalized.mat != r then
        Alcotest.failf "%s: declined R is not physically shared" label ;
      compacted)
    (Normalized.parts t) (Normalized.parts sub)

let test_compaction_oracle () =
  let compacted = ref 0 and declined = ref 0 in
  List.iter
    (fun shape ->
      List.iter
        (fun sparse ->
          for seed = 0 to 3 do
            let t = Gen.normalized ~seed ~sparse shape in
            List.iter
              (fun (set, idx) ->
                let label =
                  Printf.sprintf "%s%s seed %d, %s" (Gen.shape_name shape)
                    (if sparse then "/sparse" else "/dense") seed set
                in
                let sub = Normalized.select_rows t idx in
                let taken = branches label t idx sub in
                List.iter (fun c -> incr (if c then compacted else declined)) taken ;
                if set = "every row" && List.exists Fun.id taken then
                  Alcotest.failf "%s: a selection of every row compacted" label ;
                List.iter2
                  (fun (op, got) (_, want) ->
                    match (got, want) with
                    | Ok g, Ok w when bits_equal g w -> ()
                    | Error g, Error w when g = w -> ()
                    | _ -> Alcotest.failf "%s: %s differs from the shared-R selection" label op)
                  (operators sub) (operators (shared_selection t idx)) ;
                if set = "empty" then
                  List.iter
                    (fun (op, got) ->
                      if List.mem op [ "lmm"; "crossprod"; "row_sums"; "col_sums"; "sum" ]
                         && Result.is_error got
                      then Alcotest.failf "%s: %s failed on an empty selection" label op)
                    (operators sub))
              (id_sets t)
          done)
        [ false; true ])
    Gen.shapes ;
  Alcotest.(check bool) "the rule compacts some parts" true (!compacted > 0) ;
  Alcotest.(check bool) "the rule declines some parts" true (!declined > 0)

(* An R of 5000 rows spans two of Exec.reduce's chunks, while its
   compacted rows fit one: crossprod(T)'s reductions over R then group
   differently, so it agrees to a forward-error bound, γ_n·(|T|ᵀ|T|)
   on each side; every other operator stays bitwise. *)
let test_compaction_beyond_one_chunk () =
  let rng = Rng.of_int 17 in
  let ns = 20_000 and nr = 5_000 in
  let t =
    Normalized.pkfk
      ~s:(Mat.of_dense (Dense.gaussian ~rng ns 2))
      ~k:(Indicator.random ~rng ~rows:ns ~cols:nr ())
      ~r:(Mat.of_dense (Dense.gaussian ~rng nr 8))
  in
  let idx = Array.init 2_000 (fun i -> i * 10) in
  let sub = Normalized.select_rows t idx and shared = shared_selection t idx in
  Alcotest.(check bool) "compacted below one chunk" true
    (List.for_all
       (fun (p : Normalized.part) -> Mat.rows p.Normalized.mat < 4_096)
       (Normalized.parts sub)) ;
  List.iter2
    (fun (op, got) (_, want) ->
      match (got, want) with
      | Ok g, Ok w when op = "crossprod" ->
        let abs_cp = Rewrite.crossprod (Rewrite.map_scalar Float.abs shared) in
        let gamma = 2.0 *. float_of_int (Array.length idx) *. epsilon_float in
        Dense.iteri
          (fun i j bound ->
            if Float.abs (Dense.get g i j -. Dense.get w i j) > gamma *. bound then
              Alcotest.failf "crossprod (%d,%d) outside γ_n·|T|ᵀ|T|" i j)
          abs_cp
      | Ok g, Ok w when bits_equal g w -> ()
      | _ -> Alcotest.failf "%s differs from the shared-R selection" op)
    (operators sub) (operators shared)

(* ---- relational diagnostics ---- *)

let codes_of report =
  List.map (fun d -> Check.code_name d.Check.code) report.Check.diagnostics

let norm_env () =
  [ ("T", Check.normalized_value ~ns:100 ~ds:2 ~nr:10 ~dr:3 ()) ]

let test_e005_unknown_column () =
  let e = Expr.filter (Pred.Cmp ("nope", Pred.Gt, 0.0)) (Expr.var "T") in
  let report = Check.analyze_abstract ~env:(norm_env ()) e in
  Alcotest.(check bool) "E005 diagnosed" true (List.mem "E005" (codes_of report)) ;
  Alcotest.(check bool) "is error" false (Check.is_ok report)

let test_e006_scalar_operand () =
  let e = Expr.filter p0 (Expr.scalar 1.0) in
  let report = Check.analyze_abstract e in
  Alcotest.(check bool) "E006 diagnosed" true (List.mem "E006" (codes_of report))

let test_w004_materialized_filter () =
  let e = Expr.filter p0 (Expr.var "M") in
  let report =
    Check.analyze_abstract ~env:[ ("M", Check.dense_value 10 3) ] e
  in
  Alcotest.(check bool) "W004 diagnosed" true (List.mem "W004" (codes_of report)) ;
  Alcotest.(check bool) "warning only" true (Check.is_ok report)

(* Check prices the compaction select_rows will make: over the planner
   bench's shape (TR = 20, FR = 4), a 0.001-selective filter compacts R
   and its downstream LMM gets cheaper; a 0.5-selective one does
   neither. *)
let test_check_narrates_compaction () =
  let ns = 40_000 and ds = 20 and nr = 2_000 and dr = 80 in
  let env =
    [ ("T", Check.normalized_value ~ns ~ds ~nr ~dr ());
      ("w", Check.dense_value (ds + dr) 1) ]
  in
  let eq c = Pred.Cmp (c, Pred.Eq, 1.0) in
  let run p =
    let report =
      Check.analyze_abstract ~env Expr.(filter p (var "T") *@ var "w")
    in
    let node prefix =
      List.find
        (fun (a : Check.annot) ->
          String.length a.Check.a_label >= String.length prefix
          && String.sub a.Check.a_label 0 (String.length prefix) = prefix)
        report.Check.nodes
    in
    let filter = node "filter" and lmm = node "mult" in
    let narrated =
      contains ~sub:"compacts R to ~"
        (Option.value filter.Check.a_rule ~default:"")
      && contains ~sub:"compacts R to ~" (Explain.describe_plan report)
    in
    let rows = int_of_float (ceil (Pred.selectivity p *. float_of_int ns)) in
    let whole = Cost.factorized { Cost.ns = rows; ds; nr; dr } (Cost.Lmm 1) in
    (narrated, Option.get lmm.Check.a_factorized, whole)
  in
  let narrated, lmm, whole = run Pred.(And (eq "c0", And (eq "c1", eq "c2"))) in
  Alcotest.(check bool) "0.001: compaction narrated" true narrated ;
  Alcotest.(check bool) "0.001: downstream LMM cost falls" true (lmm < whole) ;
  let narrated, lmm, whole = run (Pred.Cmp ("c0", Pred.Ge, 0.0)) in
  Alcotest.(check bool) "0.5: no compaction narrated" false narrated ;
  Alcotest.(check (float 0.0)) "0.5: downstream LMM priced at n_R" whole lmm

(* ---- plan-file pipeline: parse → check → optimize → explain ---- *)

let test_plan_roundtrip () =
  let path = Filename.temp_file "planner" ".plan" in
  let oc = open_out path in
  output_string oc
    "normalized T ns=1000 ds=2 nr=50 dr=3 cols=age,income,region,price,stock\n\
     let seg = filter(T, age >= 30 && price < 2)\n\
     check seg' %*% seg\n" ;
  close_out oc ;
  let plan =
    match Plan.parse_file path with
    | Ok plan -> plan
    | Error msg -> Alcotest.failf "plan parse: %s" msg
  in
  Sys.remove path ;
  let env = Plan.env plan in
  let _, e = List.hd (Plan.checks plan) in
  Alcotest.(check bool) "as-written plan checks clean" true
    (Check.is_ok (Check.analyze_abstract ~env e)) ;
  let opt = Expr.optimize (Expr.simplify e) in
  (match opt with
  | Ast.Crossprod (Ast.Filter _) -> ()
  | _ -> Alcotest.failf "expected masked crossprod, got %s" (Ast.to_string opt)) ;
  let desc = Explain.describe_plan (Check.analyze_abstract ~env opt) in
  Alcotest.(check bool) "explain narrates the pushdown" true
    (contains ~sub:"pushed below join" desc) ;
  (* the printed plan re-parses to the same tree *)
  match Plan.parse_expr (Ast.to_string e) with
  | Ok e2 -> Alcotest.(check bool) "print/parse round-trip" true (Ast.equal e e2)
  | Error msg -> Alcotest.failf "re-parse of printed plan: %s" msg

let () =
  Alcotest.run "planner"
    [ ("pred", [ qc prop_pred_roundtrip ]);
      ( "pushdown",
        [ qc prop_mask_agree;
          qc prop_filter_bitwise;
          qc prop_crossprod_pushdown;
          qc prop_scoring_pushdown;
          qc prop_project_pushdown;
          qc prop_group_agg ] );
      ( "compaction",
        [ Alcotest.test_case "select_rows = shared-R selection, bitwise" `Quick
            test_compaction_oracle;
          Alcotest.test_case "R beyond one reduction chunk" `Quick
            test_compaction_beyond_one_chunk ] );
      ( "rewrite",
        [ Alcotest.test_case "filter fusion" `Quick test_simplify_filter_fusion;
          Alcotest.test_case "projection collapse" `Quick
            test_simplify_project_collapse;
          Alcotest.test_case "selection below projection" `Quick
            test_simplify_filter_below_project;
          Alcotest.test_case "sigma'sigma -> masked crossprod" `Quick
            test_optimize_masked_crossprod ] );
      ( "diagnostics",
        [ Alcotest.test_case "E005 unknown column" `Quick test_e005_unknown_column;
          Alcotest.test_case "E006 scalar operand" `Quick test_e006_scalar_operand;
          Alcotest.test_case "W004 materialized filter" `Quick
            test_w004_materialized_filter;
          Alcotest.test_case "filter narrates R compaction" `Quick
            test_check_narrates_compaction ] );
      ( "plan",
        [ Alcotest.test_case "parse/check/optimize/explain" `Quick
            test_plan_roundtrip ] ) ]
