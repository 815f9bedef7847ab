(* Factorized linear-algebra operators (§3.3, §3.5, §3.6, appendices A,
   C–E): every operation of the paper's Table 1 executed over a
   normalized matrix without materializing the join.

   Notation note: all internal [_nt] functions operate on the
   non-transposed body; the public functions first dispatch on the
   transpose flag using the Appendix-A rules, e.g.
   TᵀX → (XᵀT)ᵀ and crossprod(Tᵀ) → S·cp(Sᵀ)-style Gram rewrites. *)

open La
open Sparse
open Normalized

(* Kᵀ · M for either representation of M. *)
let ind_tmult ind = function
  | Mat.D d -> Indicator.tmult ind d
  | Mat.S c -> Indicator.tmult_csr ind c

(* Aᵀ · B where A is dense and B is a Mat. *)
let dense_tmm a b =
  match b with
  | Mat.D d -> Blas.tgemm a d
  | Mat.S c -> Dense.transpose (Csr.t_smm c a)

(* ------------------------------------------------------------------ *)
(* Element-wise scalar operators (§3.3.1): closure — the result is a
   normalized matrix with the same structure. *)

let scale x t = map_mats (Mat.scale x) t

let add_scalar x t = map_mats (Mat.add_scalar x) t

let pow t p = map_mats (Mat.pow p) t

(* T^2, the special case K-Means uses. *)
let sq t = map_mats Mat.sq t

(* f(T) for a scalar function f. *)
let map_scalar f t = map_mats (Mat.map_scalar f) t

let exp t = map_mats Mat.exp t

(* Transpose (§3.2): flip the flag; no data is touched. *)
let transpose t = { t with trans = not t.trans }

(* ------------------------------------------------------------------ *)
(* Aggregations (§3.3.2, extended per §3.5 and appendix D):
     rowSums(T) → rowSums(S) + Σᵢ Kᵢ·rowSums(Rᵢ)
     colSums(T) → [colSums(S), colSums(Kᵢ)·Rᵢ, …]
     sum(T)     → sum(S) + Σᵢ colSums(Kᵢ)·rowSums(Rᵢ) *)

let row_sums_nt body =
  let n = base_rows body in
  let acc =
    match body.ent with
    | Some s -> Dense.col_to_array (Mat.row_sums s)
    | None -> Array.make n 0.0
  in
  List.iter
    (fun { ind; mat } ->
      let part = Dense.col_to_array (Mat.row_sums mat) in
      let gathered = Indicator.gather ind part in
      Flops.add n ;
      for i = 0 to n - 1 do
        acc.(i) <- acc.(i) +. gathered.(i)
      done)
    body.parts ;
  Dense.of_col_array acc

let col_sums_nt body =
  let blocks =
    (match body.ent with Some s -> [ Mat.col_sums s ] | None -> [])
    @ List.map
        (fun { ind; mat } ->
          let counts = Dense.of_row_array (Indicator.col_counts ind) in
          Mat.mm_left counts mat)
        body.parts
  in
  Dense.hcat blocks

(* An unreferenced R row has count 0; its row sum is zeroed before the
   dot so a non-finite value there cannot turn into 0·Inf = NaN. The
   terms keep their order, so finite inputs keep their bits. *)
let sum_nt body =
  let ent = match body.ent with Some s -> Mat.sum s | None -> 0.0 in
  List.fold_left
    (fun acc { ind; mat } ->
      let counts = Indicator.col_counts ind in
      let rs = Dense.col_to_array (Mat.row_sums mat) in
      Array.iteri (fun r c -> if c = 0.0 then rs.(r) <- 0.0) counts ;
      acc +. Blas.dot counts rs)
    ent body.parts

(* Squared body (S², Rᵢ²) sharing indicators: squaring distributes over
   the gather K·R, so aggregations of T² reduce to aggregations of the
   squared *base* matrices — O(size(S)+Σ size(Rᵢ)) work, never O(n·d). *)
let sq_body body =
  { ent = Option.map Mat.sq body.ent;
    parts = List.map (fun p -> { p with mat = Mat.sq p.mat }) body.parts }

(* rowSums(T²) = rowSums(S²) + Σᵢ Kᵢ·rowSums(Rᵢ²) — the loop-invariant
   half of K-Means' distance computation (Algorithm 4's rowSums(T^2)). *)
let row_sums_sq_nt body = row_sums_nt (sq_body body)

(* colSums(T²) = [colSums(S²), colSums(Kᵢ)·Rᵢ², …] — per-column squared
   norms, e.g. for feature scaling. *)
let col_sums_sq_nt body = col_sums_nt (sq_body body)

(* ------------------------------------------------------------------ *)
(* Memoized dispatch. Every public aggregation/cross-product first
   resolves the transpose flag (Appendix A), then serves the result from
   the matrix's invariant cells (Normalized.memo): the cells are keyed
   to the non-transposed body, so a transpose — which only flips the
   flag and shares the memo — still hits the same cache. Cache hits run
   no kernel and count zero flops; callers must not mutate returned
   matrices (they are shared). *)

(* Appendix A: colSums(Tᵀ) → rowSums(T)ᵀ, rowSums(Tᵀ) → colSums(T)ᵀ. *)
let row_sums t =
  if t.trans then
    Dense.transpose (Memo.force t.memo.mc_col_sums (fun () -> col_sums_nt t.body))
  else Memo.force t.memo.mc_row_sums (fun () -> row_sums_nt t.body)

let col_sums t =
  if t.trans then
    Dense.transpose (Memo.force t.memo.mc_row_sums (fun () -> row_sums_nt t.body))
  else Memo.force t.memo.mc_col_sums (fun () -> col_sums_nt t.body)

let sum t = Memo.force t.memo.mc_sum (fun () -> sum_nt t.body)

(* rowSums(T²) and colSums(T²), with the same Appendix-A flip:
   rowSums((Tᵀ)²) = colSums(T²)ᵀ. *)
let row_sums_sq t =
  if t.trans then
    Dense.transpose
      (Memo.force t.memo.mc_col_sums_sq (fun () -> col_sums_sq_nt t.body))
  else Memo.force t.memo.mc_row_sums_sq (fun () -> row_sums_sq_nt t.body)

let col_sums_sq t =
  if t.trans then
    Dense.transpose
      (Memo.force t.memo.mc_row_sums_sq (fun () -> row_sums_sq_nt t.body))
  else Memo.force t.memo.mc_col_sums_sq (fun () -> col_sums_sq_nt t.body)

(* ------------------------------------------------------------------ *)
(* LMM (§3.3.3 / §3.5): TX → S·X[1:dS,] + Σᵢ Kᵢ(Rᵢ·X[d'ᵢ₋₁+1:d'ᵢ,]).
   The multiplication order Kᵢ(RᵢX) — never (KᵢRᵢ)X — is what avoids
   the computational redundancy of the join. *)

let lmm_nt body x =
  let n = base_rows body and d = base_cols body in
  if Dense.rows x <> d then
    invalid_arg
      (Printf.sprintf "Rewrite.lmm: T is %dx%d but X has %d rows" n d
         (Dense.rows x)) ;
  let (ent_lo, ent_hi), ranges = col_ranges body in
  let acc =
    match body.ent with
    | Some s -> Mat.mm s (Dense.sub_rows x ~lo:ent_lo ~hi:ent_hi)
    | None -> Dense.create n (Dense.cols x)
  in
  List.iter2
    (fun { ind; mat } (lo, hi) ->
      let z = Mat.mm mat (Dense.sub_rows x ~lo ~hi) in
      Indicator.gather_add ind z acc)
    body.parts ranges ;
  acc

(* RMM (§3.3.4 / §3.5): XT → [X·S, (X·K₁)R₁, …, (X·K_q)R_q]. *)
let rmm_nt x body =
  let n = base_rows body in
  if Dense.cols x <> n then
    invalid_arg
      (Printf.sprintf "Rewrite.rmm: X has %d cols but T has %d rows"
         (Dense.cols x) n) ;
  let blocks =
    (match body.ent with Some s -> [ Mat.mm_left x s ] | None -> [])
    @ List.map
        (fun { ind; mat } -> Mat.mm_left (Indicator.xmult x ind) mat)
        body.parts
  in
  Dense.hcat blocks

(* Appendix A: TᵀX → (XᵀT)ᵀ and XTᵀ → (TXᵀ)ᵀ. *)
let lmm t x =
  if t.trans then Dense.transpose (rmm_nt (Dense.transpose x) t.body)
  else lmm_nt t.body x

let rmm x t =
  if t.trans then Dense.transpose (lmm_nt t.body (Dense.transpose x))
  else rmm_nt x t.body

(* Tᵀ·X without wrapping in two explicit transposes at call sites; this
   is the "transposed LMM" the ML algorithms in §4 rely on. *)
let tlmm t x = lmm (transpose t) x

(* ------------------------------------------------------------------ *)
(* Cross-product (§3.3.5 / §3.5): crossprod(T) = TᵀT as a block matrix.

   Efficient method (Algorithm 2):
   - diagonal attribute blocks: crossprod(diag(colSums Kᵢ)^½ Rᵢ),
     computed here as the weighted cross-product Rᵢᵀ·diag(counts)·Rᵢ;
   - entity block: crossprod(S);
   - S-vs-Rᵢ blocks: (SᵀKᵢ)Rᵢ;
   - Rᵢ-vs-Rⱼ blocks: Rᵢᵀ(KᵢᵀKⱼ)Rⱼ with the co-occurrence matrix
     P = KᵢᵀKⱼ formed first (appendix C's order). *)

type group = G_ent of Mat.t | G_part of part

let groups body =
  (match body.ent with Some s -> [ G_ent s ] | None -> [])
  @ List.map (fun p -> G_part p) body.parts

let group_cols = function G_ent s -> Mat.cols s | G_part p -> Mat.cols p.mat

(* The block gᵢᵀ·gⱼ of TᵀT for two distinct column groups. *)
let cross_block gi gj =
  match (gi, gj) with
  | G_ent s, G_ent s' -> dense_tmm (Mat.dense s) s' (* unused: i<j only *)
  | G_ent s, G_part { ind; mat } ->
    (* Sᵀ(K·R) = (KᵀS)ᵀ·R *)
    let g = ind_tmult ind s in
    dense_tmm g mat
  | G_part { ind; mat }, G_ent s ->
    let g = ind_tmult ind s in
    Mat.tmm mat g
  | G_part a, G_part b ->
    let p = Indicator.cross a.ind b.ind in
    let q =
      match b.mat with
      | Mat.D d -> Coo.mult p d
      | Mat.S c -> Coo.mult_csr p c
    in
    Mat.tmm a.mat q

let crossprod_nt body =
  let gs = Array.of_list (groups body) in
  let widths = Array.map group_cols gs in
  let d = Array.fold_left ( + ) 0 widths in
  let offsets = Array.make (Array.length gs) 0 in
  for i = 1 to Array.length gs - 1 do
    offsets.(i) <- offsets.(i - 1) + widths.(i - 1)
  done ;
  let out = Dense.create d d in
  Array.iteri
    (fun i gi ->
      (* diagonal block *)
      let diag =
        match gi with
        | G_ent s -> Mat.crossprod s
        | G_part { ind; mat } ->
          Mat.weighted_crossprod mat (Indicator.col_counts ind)
      in
      Dense.blit_block ~src:diag ~dst:out ~row:offsets.(i) ~col:offsets.(i) ;
      (* upper-right blocks, mirrored *)
      for j = i + 1 to Array.length gs - 1 do
        let b = cross_block gi gs.(j) in
        Dense.blit_block ~src:b ~dst:out ~row:offsets.(i) ~col:offsets.(j) ;
        Dense.blit_block ~src:(Dense.transpose b) ~dst:out ~row:offsets.(j)
          ~col:offsets.(i)
      done)
    gs ;
  out

(* Naive method (Algorithm 1 / appendix Algorithm 9), kept for the
   ablation bench: SᵀS without the symmetry saving and
   Rᵀ((KᵀK)R) instead of the weighted cross-product. *)
let crossprod_naive_nt body =
  let gs = Array.of_list (groups body) in
  let widths = Array.map group_cols gs in
  let d = Array.fold_left ( + ) 0 widths in
  let offsets = Array.make (Array.length gs) 0 in
  for i = 1 to Array.length gs - 1 do
    offsets.(i) <- offsets.(i - 1) + widths.(i - 1)
  done ;
  let out = Dense.create d d in
  Array.iteri
    (fun i gi ->
      let diag =
        match gi with
        | G_ent s -> dense_tmm (Mat.dense s) s
        | G_part { ind; mat } ->
          let p = Indicator.cross ind ind in
          let q =
            match mat with
            | Mat.D dm -> Coo.mult p dm
            | Mat.S c -> Coo.mult_csr p c
          in
          Mat.tmm mat q
      in
      Dense.blit_block ~src:diag ~dst:out ~row:offsets.(i) ~col:offsets.(i) ;
      for j = i + 1 to Array.length gs - 1 do
        let b = cross_block gi gs.(j) in
        Dense.blit_block ~src:b ~dst:out ~row:offsets.(i) ~col:offsets.(j) ;
        Dense.blit_block ~src:(Dense.transpose b) ~dst:out ~row:offsets.(j)
          ~col:offsets.(i)
      done)
    gs ;
  out

(* Gram matrix crossprod(Tᵀ) = T·Tᵀ (appendix A / D):
   crossprod(Tᵀ) → S·cp(Sᵀ)·Sᵀ-free form: S Sᵀ + Σᵢ Kᵢ·cp(Rᵢᵀ)·Kᵢᵀ,
   where Kᵢ·G·Kᵢᵀ is a two-sided gather. O(n²) output — only sensible
   for modest n, as in the paper's kernel-method use case. *)
let gram_nt body =
  let n = base_rows body in
  let out =
    match body.ent with
    | Some s -> Mat.tcrossprod s
    | None -> Dense.create n n
  in
  let od = Dense.data out in
  List.iter
    (fun { ind; mat } ->
      let g = Mat.tcrossprod mat in
      Flops.add (n * n) ;
      let map = Indicator.mapping ind in
      for i = 0 to n - 1 do
        let gbase = map.(i) * Dense.cols g and obase = i * n in
        for j = 0 to n - 1 do
          Array.unsafe_set od (obase + j)
            (Array.unsafe_get od (obase + j)
            +. Array.unsafe_get (Dense.data g) (gbase + map.(j)))
        done
      done)
    body.parts ;
  out

let crossprod t =
  if t.trans then Memo.force t.memo.mc_gram (fun () -> gram_nt t.body)
  else Memo.force t.memo.mc_crossprod (fun () -> crossprod_nt t.body)

let crossprod_naive t =
  if t.trans then gram_nt t.body else crossprod_naive_nt t.body

(* ------------------------------------------------------------------ *)
(* Pseudo-inverse (§3.3.6):
     ginv(T) → ginv(crossprod(T))·Tᵀ        if d < n
     ginv(T) → Tᵀ·ginv(crossprod(Tᵀ))       otherwise
   The d×d (or n×n) pseudo-inverse of the symmetric cross-product is
   computed by eigendecomposition, and the outer product with Tᵀ is
   itself a factorized multiplication. *)

let ginv t =
  let n, d = dims t in
  if d < n then begin
    let g = Linalg.ginv_sym (crossprod t) in
    (* G·Tᵀ = (T·Gᵀ)ᵀ = (T·G)ᵀ since G is symmetric *)
    Dense.transpose (lmm t g)
  end
  else begin
    let g = Linalg.ginv_sym (crossprod (transpose t)) in
    (* Tᵀ·G = (Gᵀ·T)ᵀ = (G·T)ᵀ *)
    Dense.transpose (rmm g t)
  end

(* Least-squares solve ginv(crossprod T)·(Tᵀ·B): the normal-equations
   path of Algorithm 6 packaged as one call. *)
let lstsq t b = Blas.gemm (Linalg.ginv_sym (crossprod t)) (tlmm t b)
