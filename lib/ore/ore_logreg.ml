(* Logistic regression over chunked data, both execution paths of the
   paper's §5.2.4 scalability experiment (Tables 9 and 10): the
   materialized path streams the wide T from disk; the Morpheus path
   streams only the narrow S (PK-FK) or nothing but indicator windows
   (M:N) while R stays in memory. The two paths share one step and one
   loop; they differ only in which T·w and Tᵀ·p they stream. *)

open La

let gradient_weights y scores =
  Dense.init (Dense.rows y) 1 (fun i _ ->
      let yi = Dense.get y i 0 and s = Dense.get scores i 0 in
      yi /. (1.0 +. Stdlib.exp (yi *. s)))

(* One GD iteration: w + α·Tᵀ(gradient_weights y (T·w)). *)
let step ~alpha ~lmm ~tlmm y w =
  let p = gradient_weights y (lmm w) in
  Dense.add w (Dense.scale alpha (tlmm p))

let iteration_materialized ~alpha t_store =
  step ~alpha ~lmm:(Chunked_ops.lmm t_store) ~tlmm:(Chunked_ops.tlmm t_store)

let iteration_factorized ~alpha t =
  step ~alpha ~lmm:(Chunked_normalized.lmm t) ~tlmm:(Chunked_normalized.tlmm t)

(* [w0] + the per-iteration [on_iter] hook carry checkpoint/resume: the
   loop body only depends on the current weights, so re-invoking with
   the checkpointed w and the remaining iteration count replays the
   uninterrupted run bitwise. *)
let train ~iters ?w0 ?on_iter ~cols iteration =
  let w =
    ref (match w0 with Some w -> Dense.copy w | None -> Dense.create cols 1)
  in
  for it = 1 to iters do
    w := iteration !w ;
    Validate.check_array ~stage:"ore_logreg.step" (Dense.data !w) ;
    match on_iter with Some f -> f it !w | None -> ()
  done ;
  !w

let train_materialized ?(alpha = 1e-4) ?(iters = 5) ?w0 ?on_iter t_store y =
  train ~iters ?w0 ?on_iter ~cols:(Chunk_store.cols t_store)
    (iteration_materialized ~alpha t_store y)

let train_factorized ?(alpha = 1e-4) ?(iters = 5) ?w0 ?on_iter t y =
  train ~iters ?w0 ?on_iter ~cols:(Chunked_normalized.cols t)
    (iteration_factorized ~alpha t y)
