(* K-fold cross-validation over normalized matrices. Folds are row
   subsets of T, and Normalized.select_rows keeps them factorized: a
   fold references most attribute rows, so it shares the attribute
   tables (a small validation fold may get them compacted), and CV
   costs k× the entity-side work only — the factorized-ML benefit
   compounds across the folds (the "model selection" workloads of
   Kumar et al. [27]). *)

open La
open Morpheus

(* Deterministic fold assignment: a shuffled partition into [k] parts. *)
let fold_indices ?(seed = 0) ~k n =
  if k < 2 || k > n then invalid_arg "Model_selection.fold_indices" ;
  let order = Array.init n Fun.id in
  Rng.shuffle (Rng.of_int seed) order ;
  List.init k (fun f ->
      let lo = f * n / k and hi = (f + 1) * n / k in
      Array.sub order lo (hi - lo))

(* Train/validation split matrices for one held-out fold. *)
let split t y folds held_out =
  let train_idx =
    Array.concat
      (List.filteri (fun i _ -> i <> held_out) folds)
  in
  let val_idx = List.nth folds held_out in
  let y_arr = Dense.col_to_array y in
  let sub idx =
    ( Normalized.select_rows t idx,
      Dense.of_col_array (Array.map (fun i -> y_arr.(i)) idx) )
  in
  (sub train_idx, sub val_idx)

type 'model fold_result = {
  model : 'model;
  train_score : float;
  val_score : float;
}

(* Generic k-fold loop: [fit train_t train_y] produces a model,
   [score model t y] evaluates it (lower = better, e.g. a loss). *)
let cross_validate ?seed ~k ~fit ~score t y =
  let folds = fold_indices ?seed ~k (Normalized.rows t) in
  List.init k (fun f ->
      let (t_train, y_train), (t_val, y_val) = split t y folds f in
      let model = fit t_train y_train in
      { model;
        train_score = score model t_train y_train;
        val_score = score model t_val y_val })

let mean_val_score results =
  List.fold_left (fun acc r -> acc +. r.val_score) 0.0 results
  /. float_of_int (List.length results)

(* Ridge-regression λ selection by k-fold CV — a complete, factorized
   model-selection pipeline. Returns (best λ, its mean validation RSS,
   all candidates with their scores). *)
let select_ridge_lambda ?seed ?(k = 5) ~lambdas t y =
  let module FL = Linreg.Make (Morpheus.Factorized_matrix) in
  let evaluate lambda =
    let results =
      cross_validate ?seed ~k
        ~fit:(fun t_train y_train -> Spectral.solve_ridge ~lambda t_train y_train)
        ~score:(fun w t_part y_part ->
          FL.rss t_part w y_part /. float_of_int (Normalized.rows t_part))
        t y
    in
    (lambda, mean_val_score results)
  in
  let scored = List.map evaluate lambdas in
  let best =
    List.fold_left
      (fun (bl, bs) (l, s) -> if s < bs then (l, s) else (bl, bs))
      (nan, infinity) scored
  in
  (fst best, snd best, scored)
