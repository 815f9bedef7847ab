(* Gaussian Naive Bayes over normalized matrices. Training needs only
   per-class feature means and variances — per-class column statistics
   of T — and each class's row subset is a factorized normalized matrix
   ([Normalized.select_rows] keeps the attribute tables, compacted to
   the rows the class references when that is cheaper), so the
   sufficient statistics come from Colops.col_means / col_stds without
   materializing anything: an ML algorithm the prior factorized-ML
   systems did not cover, expressible entirely in this framework. *)

open La
open Morpheus

type class_stats = {
  label : float;
  prior : float;
  mean : float array; (* per feature *)
  variance : float array; (* per feature, floored *)
}

type model = { classes : class_stats list; d : int }

let variance_floor = 1e-9

let feature_dim model = model.d

(* Rebuild a model from persisted class statistics (the registry's
   load path), re-validating the invariants [train] guarantees. *)
let make ~d classes =
  if d <= 0 then invalid_arg "Naive_bayes.make: non-positive dimension" ;
  if List.length classes < 2 then
    invalid_arg "Naive_bayes.make: need at least two classes" ;
  List.iter
    (fun c ->
      if Array.length c.mean <> d || Array.length c.variance <> d then
        invalid_arg "Naive_bayes.make: class statistics width mismatch" ;
      if c.prior <= 0.0 || c.prior > 1.0 then
        invalid_arg "Naive_bayes.make: prior out of (0, 1]" ;
      if Array.exists (fun v -> v < variance_floor) c.variance then
        invalid_arg "Naive_bayes.make: variance below floor")
    classes ;
  { classes; d }

(* Distinct labels in order of first appearance. *)
let distinct_labels y =
  let seen = Hashtbl.create 8 in
  let order = ref [] in
  Array.iter
    (fun v ->
      if not (Hashtbl.mem seen v) then begin
        Hashtbl.add seen v () ;
        order := v :: !order
      end)
    y ;
  List.rev !order

let train t y =
  let n = Normalized.rows t in
  if Dense.rows y <> n || Dense.cols y <> 1 then
    invalid_arg "Naive_bayes.train: bad target shape" ;
  let y_arr = Dense.col_to_array y in
  let labels = distinct_labels y_arr in
  if List.length labels < 2 then
    invalid_arg "Naive_bayes.train: need at least two classes" ;
  let classes =
    List.map
      (fun label ->
        let idx =
          Array.of_list
            (List.filter
               (fun i -> y_arr.(i) = label)
               (List.init n Fun.id))
        in
        let t_c = Normalized.select_rows t idx in
        let mean = Dense.row_to_array (Colops.col_means t_c) in
        let std = Dense.row_to_array (Colops.col_stds t_c) in
        { label;
          prior = float_of_int (Array.length idx) /. float_of_int n;
          mean;
          variance = Array.map (fun s -> Float.max variance_floor (s *. s)) std })
      labels
  in
  { classes; d = Normalized.cols t }

(* Log joint log p(c) + Σⱼ log N(xⱼ | μ, σ²) for one example row. *)
let log_joint stats x =
  let acc = ref (Stdlib.log stats.prior) in
  Array.iteri
    (fun j v ->
      let var = stats.variance.(j) in
      let diff = v -. stats.mean.(j) in
      acc :=
        !acc
        -. (0.5 *. Stdlib.log (2.0 *. Float.pi *. var))
        -. (diff *. diff /. (2.0 *. var)))
    x ;
  !acc

(* Predict labels for the rows of a (dense) feature matrix. Prediction
   is O(n·d·#classes) on the examples being scored, which are typically
   few; scoring the full normalized matrix materializes row by row. *)
let predict_dense model x =
  if Dense.cols x <> model.d then invalid_arg "Naive_bayes.predict: bad width" ;
  Array.init (Dense.rows x) (fun i ->
      let row = Dense.row x i in
      let best =
        List.fold_left
          (fun (bl, bs) stats ->
            let s = log_joint stats row in
            if s > bs then (stats.label, s) else (bl, bs))
          (nan, neg_infinity) model.classes
      in
      fst best)

(* Score the normalized matrix itself, streaming one row at a time via
   select_rows so only a 1×d slice is ever materialized. *)
let predict model t =
  let n = Normalized.rows t in
  Array.init n (fun i ->
      let row = Materialize.to_dense (Normalized.select_rows t [| i |]) in
      (predict_dense model row).(0))

let accuracy model t y =
  let preds = predict model t in
  let y_arr = Dense.col_to_array y in
  let correct = ref 0 in
  Array.iteri (fun i p -> if p = y_arr.(i) then incr correct) preds ;
  float_of_int !correct /. float_of_int (Array.length preds)
