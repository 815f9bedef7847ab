(** K-fold cross-validation over normalized matrices: folds are
    factorized row subsets ({!Morpheus.Normalized.select_rows}), so the
    factorized-ML benefit compounds across folds. *)

open La
open Morpheus

val fold_indices : ?seed:int -> k:int -> int -> int array list
(** A shuffled partition of [0, n) into [k] near-equal folds. *)

val split :
  Normalized.t -> Dense.t -> int array list -> int ->
  (Normalized.t * Dense.t) * (Normalized.t * Dense.t)
(** [(train, validation)] matrices and targets for one held-out fold. *)

type 'model fold_result = {
  model : 'model;
  train_score : float;
  val_score : float;
}

val cross_validate :
  ?seed:int ->
  k:int ->
  fit:(Normalized.t -> Dense.t -> 'model) ->
  score:('model -> Normalized.t -> Dense.t -> float) ->
  Normalized.t ->
  Dense.t ->
  'model fold_result list

val mean_val_score : 'model fold_result list -> float

val select_ridge_lambda :
  ?seed:int -> ?k:int -> lambdas:float list -> Normalized.t -> Dense.t ->
  float * float * (float * float) list
(** Ridge λ selection by CV: (best λ, its mean validation MSE, all
    candidates with scores). *)
