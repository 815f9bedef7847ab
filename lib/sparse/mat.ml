(* The "regular matrix" type of Morpheus: either dense or CSR-sparse,
   with one set of operations dispatching on the representation. The
   paper's normalized matrix allows "any of R, S, and T [to] be dense or
   sparse" (§3.1); this module is what makes S and the R_i
   representation-polymorphic without duplicating the rewrite rules. *)

open La

type t =
  | D of Dense.t
  | S of Csr.t

let of_dense d = D d
let of_csr c = S c

let dense = function D d -> d | S c -> Csr.to_dense c
let rows = function D d -> Dense.rows d | S c -> Csr.rows c
let cols = function D d -> Dense.cols d | S c -> Csr.cols c
let dims m = (rows m, cols m)
let is_sparse = function D _ -> false | S _ -> true

(* Number of stored scalars: the paper's size(S)/size(R) in the speed-up
   ratios and the decision rule. *)
let storage_size = function
  | D d -> Dense.numel d
  | S c -> Csr.nnz c

let get m i j = match m with D d -> Dense.get d i j | S c -> Csr.get c i j

(* ---- element-wise scalar ops (Table 1 rows 1 and 3) ---- *)

let scale x = function
  | D d -> D (Dense.scale x d)
  | S c -> S (Csr.scale x c)

(* Element-wise scalar function. Zero-preserving functions keep the
   sparse representation; others (e.g. exp, +x) densify, as in R. *)
let map_scalar f = function
  | D d -> D (Dense.map_scalar f d)
  | S c ->
    if f 0.0 = 0.0 then S (Csr.map_values f c)
    else D (Dense.map_scalar f (Csr.to_dense c))

let add_scalar x m = map_scalar (fun v -> v +. x) m
let pow p m = map_scalar (fun v -> v ** p) m
let sq m = map_scalar (fun v -> v *. v) m
let exp m = map_scalar Stdlib.exp m

(* ---- aggregations (Table 1 row 4) ---- *)

let row_sums = function D d -> Dense.row_sums d | S c -> Csr.row_sums c
let col_sums = function D d -> Dense.col_sums d | S c -> Csr.col_sums c
let sum = function D d -> Dense.sum d | S c -> Csr.sum c

(* Squares via [v *. v] (like {!sq}), not [v ** 2.0]: libm pow is not
   guaranteed bit-identical to the product, and the factorized
   rowSums(T²) rewrite squares with {!sq}. *)
let row_sums_sq = function
  | D d -> Dense.row_sums (Dense.map_scalar (fun v -> v *. v) d)
  | S c -> Csr.row_sums_sq c

(* ---- multiplications; results of LMM/RMM/crossprod are regular dense
   matrices, mirroring Table 1's output types. [?exec] flows through to
   the Blas/Csr kernels ---- *)

(* M * X (LMM direction) for dense X. *)
let mm ?exec m x =
  match m with D d -> Blas.gemm ?exec d x | S c -> Csr.smm ?exec c x

(* Mᵀ * X for dense X. *)
let tmm ?exec m x =
  match m with D d -> Blas.tgemm ?exec d x | S c -> Csr.t_smm ?exec c x

(* X * M (RMM direction) for dense X. *)
let mm_left ?exec x m =
  match m with D d -> Blas.gemm ?exec x d | S c -> Csr.dense_smm ?exec x c

let crossprod ?exec = function
  | D d -> Blas.crossprod ?exec d
  | S c -> Csr.crossprod ?exec c

let weighted_crossprod ?exec m w =
  match m with
  | D d -> Blas.weighted_crossprod ?exec d w
  | S c -> Csr.weighted_crossprod ?exec c w

let tcrossprod ?exec = function
  | D d -> Blas.tcrossprod ?exec d
  | S c -> Csr.tcrossprod ?exec c

let transpose = function
  | D d -> D (Dense.transpose d)
  | S c -> S (Csr.transpose c)

(* ---- element-wise matrix ops (non-factorizable, Table 1 last row) ---- *)

let lift2 fd a b =
  match (a, b) with
  | D x, D y -> D (fd x y)
  | _ -> D (fd (dense a) (dense b))

let add a b = lift2 Dense.add a b
let sub a b = lift2 Dense.sub a b
let mul_elem a b = lift2 Dense.mul_elem a b
let div_elem a b = lift2 Dense.div_elem a b

(* ---- structure ---- *)

(* Gather rows by index: K·M for an indicator given as a plain mapping. *)
let gather_rows m idx =
  match m with
  | D d ->
    let c = Dense.cols d in
    Flops.add (Array.length idx * c) ;
    let out = Dense.create (Array.length idx) c in
    Array.iteri
      (fun i r -> Array.blit (Dense.data d) (r * c) (Dense.data out) (i * c) c)
      idx ;
    D out
  | S c -> S (Csr.gather_rows c idx)

(* Horizontal concatenation; sparse iff all blocks are sparse. *)
let hcat ms =
  if ms <> [] && List.for_all is_sparse ms then
    S (Csr.hcat (List.map (function S c -> c | D _ -> assert false) ms))
  else D (Dense.hcat (List.map dense ms))

(* Contiguous row slice [lo, hi). *)
let sub_rows m ~lo ~hi =
  match m with
  | D d -> D (Dense.sub_rows d ~lo ~hi)
  | S c -> S (Csr.sub_rows c ~lo ~hi)

(* M · K for an indicator given as a column mapping: scatter M's columns
   into [ncols] buckets. *)
let col_scatter m ~mapping ~ncols =
  match m with
  | S c -> Csr.col_scatter c ~mapping ~ncols
  | D d ->
    if Array.length mapping <> Dense.cols d then
      invalid_arg "Mat.col_scatter: mapping length mismatch" ;
    Flops.add (Dense.numel d) ;
    let out = Dense.create (Dense.rows d) ncols in
    for i = 0 to Dense.rows d - 1 do
      for j = 0 to Dense.cols d - 1 do
        let b = mapping.(j) in
        Dense.unsafe_set out i b
          (Dense.unsafe_get out i b +. Dense.unsafe_get d i j)
      done
    done ;
    out

let sub_cols m ~lo ~hi =
  match m with
  | D d -> D (Dense.sub_cols d ~lo ~hi)
  | S _ -> D (Dense.sub_cols (dense m) ~lo ~hi)

(* Column gather by index (representation-preserving): projection over a
   base matrix, keeping the selected columns in [idx] order. *)
let select_cols m idx =
  match m with
  | D d ->
    let r = Dense.rows d in
    Array.iter
      (fun j ->
        if j < 0 || j >= Dense.cols d then invalid_arg "Mat.select_cols: bad index")
      idx ;
    Flops.add (r * Array.length idx) ;
    D (Dense.init r (Array.length idx) (fun i j -> Dense.unsafe_get d i idx.(j)))
  | S c -> S (Csr.select_cols c idx)

let approx_equal ?(tol = 1e-9) a b =
  rows a = rows b && cols a = cols b
  && Dense.max_abs_diff (dense a) (dense b) <= tol

let random ?rng r c = D (Dense.random ?rng r c)

(* Random sparse matrix with expected [density] fraction of nonzeros. *)
let random_sparse ?(rng = Rng.create ()) ~density r c =
  let triplets = ref [] in
  for i = 0 to r - 1 do
    for j = 0 to c - 1 do
      if Rng.float rng < density then
        triplets := (i, j, Rng.uniform rng ~lo:(-1.0) ~hi:1.0) :: !triplets
    done
  done ;
  S (Csr.of_triplets ~rows:r ~cols:c !triplets)

let pp ppf = function
  | D d -> Fmt.pf ppf "dense %dx%d" (Dense.rows d) (Dense.cols d)
  | S c -> Csr.pp ppf c
