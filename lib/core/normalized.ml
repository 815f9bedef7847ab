(* The normalized matrix (§3.1, §3.5, §3.6): the paper's new logical data
   type. A normalized matrix represents the join output
   T = [S, K₁R₁, …, K_qR_q] (star-schema PK-FK) or T = [I_S·S, I_R·R]
   (M:N join) without materializing it.

   One uniform representation covers all the paper's schema shapes: an
   optional plain entity part S plus a list of attribute parts (Iᵢ, Mᵢ),
   each an indicator matrix times a base-table feature matrix:

     T  =  [ S? | I₁M₁ | … | I_pM_p ]

   - single PK-FK join   : ent = Some S, parts = [(K, R)]
   - star multi-table    : ent = Some S, parts = [(K₁,R₁); …; (K_q,R_q)]
   - M:N join            : ent = None,   parts = [(I_S, S); (I_R, R)]

   A [trans] flag records logical transposition, exactly as §3.2
   describes ("we add a special binary flag"), so that transposed
   operators reuse the same class via the Appendix-A rules. *)

open Sparse

type part = { ind : Indicator.t; mat : Mat.t }

type body = {
  ent : Mat.t option; (* the entity feature matrix S, if attached plainly *)
  parts : part list; (* attribute parts, in column order *)
}

(* Memoized loop-invariant quantities (one lazy cell per operation).
   Every cell stores the result for the NON-transposed body — the
   public operators in {!Rewrite} dispatch on the transpose flag before
   touching a cell — so [Rewrite.transpose], which only flips the flag,
   can share the memo of its argument: crossprod(T) computed through
   [transpose (transpose t)] still hits the cache of [t]. Structural
   edits ([map_mats], [select_rows]) build fresh cells because they
   produce a different logical matrix. *)
type memo = {
  mc_crossprod : La.Dense.t La.Memo.cell; (* crossprod(T) = TᵀT, d×d *)
  mc_gram : La.Dense.t La.Memo.cell; (* crossprod(Tᵀ) = TTᵀ, n×n *)
  mc_row_sums : La.Dense.t La.Memo.cell; (* rowSums(T), n×1 *)
  mc_col_sums : La.Dense.t La.Memo.cell; (* colSums(T), 1×d *)
  mc_sum : float La.Memo.cell; (* sum(T) *)
  mc_row_sums_sq : La.Dense.t La.Memo.cell; (* rowSums(T²), n×1 *)
  mc_col_sums_sq : La.Dense.t La.Memo.cell; (* colSums(T²), 1×d *)
}

let fresh_memo () =
  { mc_crossprod = La.Memo.cell ();
    mc_gram = La.Memo.cell ();
    mc_row_sums = La.Memo.cell ();
    mc_col_sums = La.Memo.cell ();
    mc_sum = La.Memo.cell ();
    mc_row_sums_sq = La.Memo.cell ();
    mc_col_sums_sq = La.Memo.cell () }

type t = { body : body; trans : bool; names : string array option; memo : memo }

let memo t = t.memo
let body t = t.body
let is_transposed t = t.trans
let ent t = t.body.ent
let parts t = t.body.parts
let names t = t.names

(* ---- construction ---- *)

let check_body body =
  let base_rows =
    match (body.ent, body.parts) with
    | Some s, _ -> Mat.rows s
    | None, { ind; _ } :: _ -> Indicator.rows ind
    | None, [] -> invalid_arg "Normalized: empty"
  in
  List.iter
    (fun { ind; mat } ->
      if Indicator.rows ind <> base_rows then
        invalid_arg "Normalized: indicator row mismatch" ;
      if Indicator.cols ind <> Mat.rows mat then
        invalid_arg "Normalized: indicator/attribute dim mismatch")
    body.parts ;
  body

let make ?ent parts =
  { body = check_body { ent; parts = List.map (fun (ind, mat) -> { ind; mat }) parts };
    trans = false;
    names = None;
    memo = fresh_memo () }

(* Single PK-FK join (§3.1): TN = (S, K, R). *)
let pkfk ~s ~k ~r = make ~ent:s [ (k, r) ]

(* Star-schema multi-table PK-FK join (§3.5). *)
let star ~s ~parts = make ~ent:s parts

(* M:N join (§3.6): TN = (S, I_S, I_R, R); T = [I_S·S, I_R·R]. *)
let mn ~is_ ~s ~ir ~r = make [ (is_, s); (ir, r) ]

(* ---- logical dimensions of T (respecting the transpose flag) ---- *)

let base_rows body =
  match (body.ent, body.parts) with
  | Some s, _ -> Mat.rows s
  | None, { ind; _ } :: _ -> Indicator.rows ind
  | None, [] -> assert false

let base_cols body =
  let ent_cols = match body.ent with Some s -> Mat.cols s | None -> 0 in
  List.fold_left (fun acc { mat; _ } -> acc + Mat.cols mat) ent_cols body.parts

let rows t = if t.trans then base_cols t.body else base_rows t.body
let cols t = if t.trans then base_rows t.body else base_cols t.body
let dims t = (rows t, cols t)

(* Column ranges [lo, hi) of each block in T's column space: the entity
   block (if any) first, then each attribute part. Used by LMM to slice
   X "by the projection of w to the features from S (resp. R)" (§2). *)
let col_ranges body =
  let ent_cols = match body.ent with Some s -> Mat.cols s | None -> 0 in
  let ranges = ref [] in
  let off = ref ent_cols in
  List.iter
    (fun { mat; _ } ->
      let w = Mat.cols mat in
      ranges := (!off, !off + w) :: !ranges ;
      off := !off + w)
    body.parts ;
  ((0, ent_cols), List.rev !ranges)

(* Column names are metadata over the GLOBAL (non-transposed) column
   space [S-cols | part₁-cols | …]; they ride along through transposes,
   row subsets and scalar maps, and let predicates name encoded
   features instead of positions. Matrices without names answer to the
   positional defaults c0…c{d-1} (see Pred.resolve). *)
let with_names names t =
  let d = base_cols t.body in
  if Array.length names <> d then
    invalid_arg
      (Printf.sprintf "Normalized.with_names: %d names for %d columns"
         (Array.length names) d) ;
  { t with names = Some names }

(* Total stored scalars across base matrices — the "size of S and R put
   together" that the paper compares against size(T) (§3.3.1, §3.7).
   Indicators are excluded: their storage is one integer per row. *)
let storage_size t =
  let ent = match t.body.ent with Some s -> Mat.storage_size s | None -> 0 in
  List.fold_left (fun acc { mat; _ } -> acc + Mat.storage_size mat) ent t.body.parts

(* Redundancy ratio size(T) / (size(S)+size(R)): the speed-up predictor
   of §3.3.1. *)
let redundancy_ratio t =
  let n = base_rows t.body and d = base_cols t.body in
  float_of_int (n * d) /. float_of_int (max 1 (storage_size t))

(* One attribute part of a row selection. The composed mapping
   references u distinct rows of R. When Cost prices their gather below
   the work it saves, R is compacted to those rows in ascending original
   order and the indicator re-mapped to u columns: σ·K·R = K′·(P·R).
   Ascending order keeps every output cell's accumulation order, so the
   products over the compacted part match the shared-R ones bitwise on
   finite operands (crossprod(T) only while R fits one reduction chunk;
   see the interface). Otherwise R is shared untouched. *)
let select_part idx { ind; mat } =
  let mapping = Indicator.mapping ind in
  let composed = Array.map (fun i -> mapping.(i)) idx in
  let nr = Indicator.cols ind in
  let seen = Array.make nr false in
  Array.iter (fun r -> seen.(r) <- true) composed ;
  let u = Array.fold_left (fun u s -> if s then u + 1 else u) 0 seen in
  if not (Cost.compacts ~nr ~dr:(Mat.cols mat) ~k:(Array.length idx) ~u) then
    { ind = Indicator.create ~cols:nr composed; mat }
  else begin
    let keep = Array.make u 0 and rank = Array.make nr 0 in
    let next = ref 0 in
    Array.iteri
      (fun r s ->
        if s then begin
          keep.(!next) <- r ;
          rank.(r) <- !next ;
          incr next
        end)
      seen ;
    { ind = Indicator.create ~cols:u (Array.map (fun r -> rank.(r)) composed);
      mat = Mat.gather_rows mat keep }
  end

(* Row subset T[idx, ] as a normalized matrix: gather the rows of S and
   *compose* the indicator mappings, so the subset never costs
   O(|idx|·d). Each attribute part is compacted to the rows the
   selection references or shared untouched, whichever Cost prices
   cheaper (see [select_part]). This is what makes cross-validation
   folds, mini-batches (the paper's footnote-2 SGD future work) and
   served batches factorized operations whose R-side work scales with
   the selection, not with R. *)
let select_rows t idx =
  if t.trans then invalid_arg "Normalized.select_rows: transposed input" ;
  let n = base_rows t.body in
  Array.iter
    (fun i ->
      if i < 0 || i >= n then invalid_arg "Normalized.select_rows: bad index")
    idx ;
  let ent = Option.map (fun s -> Mat.gather_rows s idx) t.body.ent in
  let parts = List.map (select_part idx) t.body.parts in
  { body = { ent; parts }; trans = false; names = t.names; memo = fresh_memo () }

(* Map every base matrix through [f], keeping structure — the shape of
   all element-wise scalar rewrites. The result is again a normalized
   matrix: the closure property that lets Morpheus "propagate the
   avoidance of data redundancy" (§3.2). *)
let map_mats f t =
  { t with
    body =
      { ent = Option.map f t.body.ent;
        parts = List.map (fun p -> { p with mat = f p.mat }) t.body.parts };
    (* a different logical matrix: do NOT share the source's memo *)
    memo = fresh_memo () }

(* Tuple ratio n_S/n_R and feature ratio d_R/d_S (§3.4). For multi-part
   schemas the attribute sides are aggregated, which reduces to the
   paper's definition in the two-table case. *)
let tuple_ratio t =
  let ns = float_of_int (base_rows t.body) in
  let nr =
    List.fold_left (fun acc { mat; _ } -> acc + Mat.rows mat) 0 t.body.parts
  in
  ns /. float_of_int (max 1 nr)

let feature_ratio t =
  let ds =
    match t.body.ent with
    | Some s -> Mat.cols s
    | None ->
      (* M:N: the entity table is carried as the first part *)
      (match t.body.parts with { mat; _ } :: _ -> Mat.cols mat | [] -> 0)
  in
  let dr =
    let all =
      List.fold_left (fun acc { mat; _ } -> acc + Mat.cols mat) 0 t.body.parts
    in
    match t.body.ent with Some _ -> all | None -> all - ds
  in
  float_of_int dr /. float_of_int (max 1 ds)

(* Total re-check of the structural invariants that [check_body]
   enforces at construction — plus the indicator key bounds, which only
   Indicator.create guards. Returns human-readable violations instead
   of raising, so the static checker (E004) and Explain.describe can
   report corruption on hand-built or mutated matrices. *)
let validate t =
  let body = t.body in
  let problems = ref [] in
  let add fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let base =
    match (body.ent, body.parts) with
    | Some s, _ -> Some (Mat.rows s)
    | None, { ind; _ } :: _ -> Some (Indicator.rows ind)
    | None, [] ->
      add "empty: no entity part and no attribute parts" ;
      None
  in
  (match base with
  | Some 0 -> add "zero logical rows"
  | Some _ when base_cols body = 0 -> add "zero logical columns"
  | _ -> ()) ;
  List.iteri
    (fun i { ind; mat } ->
      let pi = i + 1 in
      (match base with
      | Some n when Indicator.rows ind <> n ->
        add "part %d: indicator has %d rows, expected %d" pi
          (Indicator.rows ind) n
      | _ -> ()) ;
      let keys = Indicator.cols ind in
      if keys <> Mat.rows mat then
        add "part %d: indicator addresses %d base rows but the attribute matrix has %d"
          pi keys (Mat.rows mat) ;
      let mapping = Indicator.mapping ind in
      let bad = ref None in
      Array.iteri
        (fun row key ->
          if !bad = None && (key < 0 || key >= keys) then bad := Some (row, key))
        mapping ;
      match !bad with
      | Some (row, key) ->
        add "part %d: indicator row %d maps to key %d, outside [0, %d)" pi row
          key keys
      | None -> ())
    body.parts ;
  List.rev !problems

let pp ppf t =
  let { ent; parts } = t.body in
  Fmt.pf ppf "@[normalized %dx%d%s: ent=%a, parts=[%a]@]" (rows t) (cols t)
    (if t.trans then " (transposed)" else "")
    (Fmt.option ~none:(Fmt.any "none") Mat.pp)
    ent
    (Fmt.list ~sep:Fmt.semi (fun ppf p ->
         Fmt.pf ppf "%a*%a" Indicator.pp p.ind Mat.pp p.mat))
    parts
