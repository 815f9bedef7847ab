(* Tests for the invariant-memoization layer: cached loop invariants
   equal freshly computed ones across every Data_matrix.S instantiation
   (the evaluator's Expr.Matrix over both representations included),
   cache hits re-run no kernel (the Flops counters see zero work — the
   observable steady-state ML iterations rely on), and
   the sharing semantics hold: [transpose] shares its source's memo
   (the cells are keyed to the non-transposed body), while [map_mats]
   and [select_rows] produce different logical matrices and must not. *)

open La
open Sparse
open Morpheus

let check_bitwise msg a b =
  if Dense.to_arrays a <> Dense.to_arrays b then
    Alcotest.failf "%s: values differ (max|diff| = %g)" msg
      (Dense.max_abs_diff a b)

let pkfk_case ?(seed = 2718) ?(ns = 1_000) ?(nr = 30) ?(ds = 5) ?(dr = 7) () =
  let g = Rng.of_int seed in
  let s = Dense.random ~rng:g ns ds in
  let r = Dense.random ~rng:g nr dr in
  let k = Indicator.random ~rng:g ~rows:ns ~cols:nr () in
  Normalized.pkfk ~s:(Mat.of_dense s) ~k ~r:(Mat.of_dense r)

(* ---- the memo contract, generically over the signature ---- *)

(* For each memoized invariant: the first (cache-filling) call equals a
   fresh memo-disabled computation bitwise, and the second call is a
   hit — same value, zero flops. Returns false with a message instead
   of raising so the qcheck property can reuse it. *)
let contract_holds (type a) (module M : Data_matrix.S with type t = a)
    ~(name : string) (t : a) =
  let failure = ref None in
  let fail op what = failure := Some (name ^ "." ^ op ^ ": " ^ what) in
  let dense_ops : (string * (a -> Dense.t)) list =
    [ ("row_sums", M.row_sums);
      ("col_sums", M.col_sums);
      ("row_sums_sq", M.row_sums_sq);
      ("crossprod", M.crossprod)
    ]
  in
  List.iter
    (fun (op, f) ->
      let fresh = Memo.with_disabled (fun () -> f t) in
      let first = f t in
      if Dense.to_arrays fresh <> Dense.to_arrays first then
        fail op "cached value differs from fresh computation" ;
      Flops.reset () ;
      let second = f t in
      if Dense.to_arrays first <> Dense.to_arrays second then
        fail op "second call differs from first" ;
      if Flops.get () <> 0.0 then fail op "cache hit ran a kernel")
    dense_ops ;
  let fresh = Memo.with_disabled (fun () -> M.sum t) in
  let first = M.sum t in
  if fresh <> first then fail "sum" "cached value differs from fresh" ;
  Flops.reset () ;
  ignore (M.sum t) ;
  if Flops.get () <> 0.0 then fail "sum" "cache hit ran a kernel" ;
  !failure

let check_contract m ~name t =
  match contract_holds m ~name t with
  | None -> ()
  | Some msg -> Alcotest.fail msg

let test_contract_all_reprs () =
  let t = pkfk_case () in
  check_contract (module Factorized_matrix) ~name:"factorized" t ;
  check_contract
    (module Regular_matrix)
    ~name:"regular"
    (Materialize.to_regular (pkfk_case ())) ;
  check_contract
    (module Adaptive_matrix)
    ~name:"adaptive-fact"
    (Adaptive_matrix.factorized (pkfk_case ())) ;
  check_contract
    (module Adaptive_matrix)
    ~name:"adaptive-mat"
    (Adaptive_matrix.materialized (pkfk_case ())) ;
  check_contract
    (module Expr.Matrix)
    ~name:"expr-regular"
    (Expr.Regular (Materialize.to_regular (pkfk_case ()))) ;
  check_contract
    (module Expr.Matrix)
    ~name:"expr-normalized"
    (Expr.Normalized (pkfk_case ()))

(* qcheck: the contract holds at any shape, for every representation. *)
let prop_memo_equals_fresh =
  QCheck.Test.make ~count:15
    ~name:"qcheck: memoized invariants = fresh, all reprs, any shape"
    QCheck.(triple (int_range 20 400) (int_range 2 20) (int_range 1 10))
    (fun (ns, nr, dr) ->
      let fresh_t () = pkfk_case ~seed:((ns * 31) + (nr * 7) + dr) ~ns ~nr ~dr () in
      let check m ~name t =
        match contract_holds m ~name t with
        | None -> true
        | Some msg -> QCheck.Test.fail_report msg
      in
      check (module Factorized_matrix) ~name:"factorized" (fresh_t ())
      && check
           (module Regular_matrix)
           ~name:"regular"
           (Materialize.to_regular (fresh_t ()))
      && check
           (module Adaptive_matrix)
           ~name:"adaptive"
           (Adaptive_matrix.of_normalized (fresh_t ())))

(* ---- sharing semantics ---- *)

(* transpose flips a flag; the memo cells are keyed to the
   non-transposed body, so Tᵀ's column invariants hit T's row cells. *)
let test_transpose_shares_memo () =
  let t = pkfk_case () in
  let rs = Rewrite.row_sums t in
  let tt = Rewrite.transpose t in
  Flops.reset () ;
  let cs = Rewrite.col_sums tt in
  Alcotest.(check (float 0.0)) "col_sums(Tᵀ) hits row_sums(T)'s cell" 0.0
    (Flops.get ()) ;
  check_bitwise "and the values agree" (Dense.transpose rs) cs ;
  (* crossprod(Tᵀ) is the gram TTᵀ — a different quantity, so it must
     NOT hit crossprod(T)'s cell *)
  ignore (Rewrite.crossprod t) ;
  Flops.reset () ;
  ignore (Rewrite.crossprod tt) ;
  Alcotest.(check bool) "crossprod(Tᵀ) is a distinct cell" true
    (Flops.get () > 0.0)

(* map_mats and select_rows build different logical matrices: fresh,
   empty memos, never the source's. *)
let test_derived_matrices_get_fresh_memos () =
  let t = pkfk_case () in
  ignore (Rewrite.crossprod t) ;
  ignore (Rewrite.row_sums t) ;
  let scaled = Normalized.map_mats (Mat.scale 2.0) t in
  Flops.reset () ;
  let cp = Rewrite.crossprod scaled in
  Alcotest.(check bool) "map_mats does not inherit the cache" true
    (Flops.get () > 0.0) ;
  check_bitwise "and computes its own value"
    (Memo.with_disabled (fun () -> Rewrite.crossprod scaled))
    cp ;
  let sub = Normalized.select_rows t (Array.init 100 (fun i -> i * 3)) in
  Flops.reset () ;
  let rs = Rewrite.row_sums sub in
  Alcotest.(check bool) "select_rows does not inherit the cache" true
    (Flops.get () > 0.0) ;
  Alcotest.(check int) "with the selection's row count" 100 (Dense.rows rs)

(* ---- the indicator fan-in diagonal ---- *)

let test_indicator_col_counts_memoized () =
  let k = Indicator.random ~rng:(Rng.of_int 3) ~rows:500 ~cols:20 () in
  let fresh = Memo.with_disabled (fun () -> Indicator.col_counts k) in
  let first = Indicator.col_counts k in
  Alcotest.(check bool) "counts equal fresh computation" true (fresh = first) ;
  Flops.reset () ;
  let second = Indicator.col_counts k in
  Alcotest.(check bool) "hit returns the same array" true (second == first) ;
  Alcotest.(check (float 0.0)) "hit costs zero flops" 0.0 (Flops.get ())

(* ---- evaluator leaves ---- *)

(* A regular Expr leaf carries its Regular_matrix cells: evaluating
   crossprod of one leaf twice runs the kernel once. *)
let test_eval_regular_leaf_memoized () =
  let leaf = Expr.dense (Dense.random ~rng:(Rng.of_int 5) 200 6) in
  let e = Expr.Crossprod leaf in
  let fresh = Memo.with_disabled (fun () -> Expr.eval_dense e) in
  let first = Expr.eval_dense e in
  Flops.reset () ;
  let second = Expr.eval_dense e in
  Alcotest.(check (float 0.0)) "second evaluation costs zero flops" 0.0
    (Flops.get ()) ;
  check_bitwise "first evaluation equals a fresh one" fresh first ;
  check_bitwise "second evaluation equals the first" first second

(* ---- the global switch ---- *)

let test_disabled_layer_writes_nothing () =
  let t = pkfk_case () in
  Memo.with_disabled (fun () -> ignore (Rewrite.crossprod t)) ;
  Alcotest.(check bool) "with_disabled left the cell empty" false
    (Memo.is_cached (Normalized.memo t).Normalized.mc_crossprod) ;
  ignore (Rewrite.crossprod t) ;
  Alcotest.(check bool) "enabled call filled it" true
    (Memo.is_cached (Normalized.memo t).Normalized.mc_crossprod)

let () =
  Alcotest.run "memo"
    [ ( "contract",
        [ Alcotest.test_case "all representations" `Quick
            test_contract_all_reprs;
          QCheck_alcotest.to_alcotest prop_memo_equals_fresh ] );
      ( "sharing",
        [ Alcotest.test_case "transpose shares" `Quick
            test_transpose_shares_memo;
          Alcotest.test_case "map_mats / select_rows do not" `Quick
            test_derived_matrices_get_fresh_memos ] );
      ( "cells",
        [ Alcotest.test_case "indicator col_counts" `Quick
            test_indicator_col_counts_memoized;
          Alcotest.test_case "disabled layer writes nothing" `Quick
            test_disabled_layer_writes_nothing;
          Alcotest.test_case "evaluator regular leaf" `Quick
            test_eval_regular_leaf_memoized ] ) ]
