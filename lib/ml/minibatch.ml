(* Mini-batch stochastic gradient descent over a *normalized* matrix —
   the paper's footnote 2 flags SGD as future work because it "updates
   the model after each example or mini-batch from T"; with
   Normalized.select_rows a mini-batch of T is itself a (small)
   normalized matrix whose R is compacted to the rows the batch
   references (or shared, when most are), so each step runs the
   factorized LMM/tlmm rewrites at the batch's size: factorized SGD.

   This module is deliberately specific to Morpheus's normalized type
   (not the abstract signature): batch extraction is the point. *)

open La
open Morpheus

type config = {
  batch_size : int;
  alpha : float; (* step size *)
  epochs : int;
  seed : int;
}

let default_config = { batch_size = 256; alpha = 1e-3; epochs = 3; seed = 0 }

(* Shuffled epoch order of row indices. *)
let epoch_order rng n =
  let order = Array.init n Fun.id in
  Rng.shuffle rng order ;
  order

(* Factorized mini-batch GD for a GLM family. Each batch b:
     w ← w + α · T_bᵀ · g(T_b·w, Y_b)
   where T_b = select_rows t b carries the attribute rows b references. *)
let train ?(config = default_config) ~family t y =
  let n = Normalized.rows t in
  if Dense.rows y <> n then invalid_arg "Minibatch.train: bad target shape" ;
  let rng = Rng.of_int config.seed in
  let w = Dense.create (Normalized.cols t) 1 in
  let y_arr = Dense.col_to_array y in
  for _ = 1 to config.epochs do
    let order = epoch_order rng n in
    let pos = ref 0 in
    while !pos < n do
      let b = min config.batch_size (n - !pos) in
      let idx = Array.sub order !pos b in
      pos := !pos + b ;
      let t_b = Normalized.select_rows t idx in
      let y_b = Dense.of_col_array (Array.map (fun i -> y_arr.(i)) idx) in
      let scores = Rewrite.lmm t_b w in
      let p =
        Dense.init b 1 (fun i _ ->
            Glm.gradient_weight family ~score:(Dense.get scores i 0)
              ~y:(Dense.get y_b i 0))
      in
      let grad = Rewrite.tlmm t_b p in
      (* w ← w + (α/b)·grad in place (bitwise-identical to add∘scale) *)
      Dense.axpy ~alpha:(config.alpha /. float_of_int b) grad w
    done
  done ;
  w
