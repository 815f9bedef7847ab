(* Static plan checker: abstract interpretation over the LA expression
   DAG. One total pass interprets every node over shape ×
   representation × estimated sparsity × cost, collects all diagnostics
   (no fail-fast), verifies the Table-1/Appendix-C rewrite
   preconditions per node, and annotates every node with the Table-3
   standard-vs-factorized FLOP estimates and the §3.7 decision — the
   whole-plan generalization of the single-operator Explain module.
   Nothing is ever evaluated, so a malformed plan is rejected before
   any kernel runs. *)

open Sparse

let log_src = Logs.Src.create "morpheus.check" ~doc:"Static plan checker"

let fi = float_of_int

(* ---- abstract domain ---- *)

type dim = int option
type shape = Scalar | Matrix of dim * dim | Top
type repr = R_scalar | R_dense | R_sparse | R_normalized | R_top

type norm_info = {
  n_dims : Cost.dims;
  transposed : bool;
  tuple_ratio : float;
  feature_ratio : float;
}

type absval = {
  shape : shape;
  repr : repr;
  density : float option;
  norm : norm_info option;
  columns : string array option;
      (* explicit column names over the non-transposed column space;
         [None] falls back to the positional c0…c{d-1} defaults when
         the column count is known (Pred.resolve) *)
}

let top_value =
  { shape = Top; repr = R_top; density = None; norm = None; columns = None }

let scalar_value =
  { shape = Scalar; repr = R_scalar; density = None; norm = None;
    columns = None }

let dense_value ?(density = 1.0) ?cols r c =
  { shape = Matrix (Some r, Some c);
    repr = R_dense;
    density = Some density;
    norm = None;
    columns = cols }

let sparse_value ?(density = 0.1) ?cols r c =
  { shape = Matrix (Some r, Some c);
    repr = R_sparse;
    density = Some density;
    norm = None;
    columns = cols }

let normalized_value ?(transposed = false) ?(density = 1.0) ?cols ~ns ~ds ~nr
    ~dr () =
  let d = ds + dr in
  { shape =
      (if transposed then Matrix (Some d, Some ns)
       else Matrix (Some ns, Some d));
    repr = R_normalized;
    density = Some density;
    norm =
      Some
        { n_dims = { Cost.ns; ds; nr; dr };
          transposed;
          tuple_ratio = fi ns /. fi (max 1 nr);
          feature_ratio = fi dr /. fi (max 1 ds) };
    columns = cols }

let mat_density m =
  let numel = Mat.rows m * Mat.cols m in
  if numel = 0 then 0.0
  else min 1.0 (fi (Mat.storage_size m) /. fi numel)

(* Density the materialized T would have: the entity block verbatim
   plus every attribute block at its base table's nonzero rate expanded
   to the full row count. *)
let normalized_density n =
  let body = Normalized.body n in
  let nb = Normalized.base_rows body and db = Normalized.base_cols body in
  let numel = nb * db in
  if numel = 0 then 0.0
  else begin
    let ent =
      match Normalized.ent n with
      | Some s -> fi (Mat.storage_size s)
      | None -> 0.0
    in
    let parts =
      List.fold_left
        (fun acc (p : Normalized.part) ->
          let rows = max 1 (Mat.rows p.Normalized.mat) in
          acc +. (fi nb *. fi (Mat.storage_size p.Normalized.mat) /. fi rows))
        0.0 (Normalized.parts n)
    in
    min 1.0 ((ent +. parts) /. fi numel)
  end

let of_value = function
  | Ast.Scalar _ -> scalar_value
  | Ast.Regular r ->
    let m = Regular_matrix.to_mat r in
    { shape = Matrix (Some (Mat.rows m), Some (Mat.cols m));
      repr = (if Mat.is_sparse m then R_sparse else R_dense);
      density = Some (mat_density m);
      norm = None;
      columns = None }
  | Ast.Normalized n ->
    { shape = Matrix (Some (Normalized.rows n), Some (Normalized.cols n));
      repr = R_normalized;
      density = Some (normalized_density n);
      norm =
        Some
          { n_dims = Decision.cost_dims n;
            transposed = Normalized.is_transposed n;
            tuple_ratio = Normalized.tuple_ratio n;
            feature_ratio = Normalized.feature_ratio n };
      columns = Normalized.names n }

(* ---- diagnostics ---- *)

type code = E001 | E002 | E003 | E004 | E005 | E006 | W001 | W002 | W003 | W004
type severity = Error | Warning

(* The full catalogue, for the cross-catalogue uniqueness lint (E205):
   `morpheus lint` compares these names against the analyzer's. *)
let all_codes = [ E001; E002; E003; E004; E005; E006; W001; W002; W003; W004 ]

let severity_of = function
  | E001 | E002 | E003 | E004 | E005 | E006 -> Error
  | W001 | W002 | W003 | W004 -> Warning

let code_name = function
  | E001 -> "E001"
  | E002 -> "E002"
  | E003 -> "E003"
  | E004 -> "E004"
  | E005 -> "E005"
  | E006 -> "E006"
  | W001 -> "W001"
  | W002 -> "W002"
  | W003 -> "W003"
  | W004 -> "W004"

let code_doc = function
  | E001 -> "dimension mismatch"
  | E002 -> "unbound variable"
  | E003 -> "matrix operator applied to a scalar operand"
  | E004 -> "normalized-matrix invariant violation"
  | E005 -> "unknown column in relational operator"
  | E006 -> "relational operator misapplied (scalar/transposed operand, \
             duplicate or empty column list)"
  | W001 -> "element-wise op forces materialization (§3.3.7)"
  | W002 -> "product-chain order left unoptimized: unresolvable shape"
  | W003 -> "factorization predicted slower than materialized (§3.7 heuristic)"
  | W004 -> "filter over a materialized operand: post-hoc row mask, no \
             pushdown"

type diagnostic = {
  code : code;
  path : Ast.path;
  where : string;
  message : string;
  subterm : string;
}

let diagnostic_to_string d =
  Printf.sprintf "%s %s: %s\n    at %s: %s" (code_name d.code)
    (match severity_of d.code with Error -> "error" | Warning -> "warning")
    d.message d.where d.subterm

(* ---- per-node annotations ---- *)

type annot = {
  a_path : Ast.path;
  a_label : string;
  a_value : absval;
  a_standard : float option;
  a_factorized : float option;
  a_decision : Decision.choice option;
  a_rule : string option;
}

type report = {
  expr : Ast.t;
  result : absval;
  nodes : annot list;
  diagnostics : diagnostic list;
}

(* ---- shape helpers ---- *)

let dim_str = function Some n -> string_of_int n | None -> "?"

let shape_str = function
  | Scalar -> "scalar"
  | Top -> "?"
  | Matrix (r, c) -> dim_str r ^ "x" ^ dim_str c

let repr_str = function
  | R_scalar -> "scalar"
  | R_dense -> "dense"
  | R_sparse -> "sparse"
  | R_normalized -> "normalized"
  | R_top -> "?"

let numel = function
  | Matrix (Some r, Some c) -> Some (fi r *. fi c)
  | Scalar -> Some 1.0
  | _ -> None

(* Unify two dims that must agree; [None] absorbs. Conflicts are
   reported separately, so unification keeps the first known dim as
   the recovery value. *)
let unify_dim a b =
  match (a, b) with Some x, _ -> Some x | None, b -> b

let dims_conflict a b =
  match (a, b) with Some x, Some y -> x <> y | _ -> false

(* ---- relational helpers ---- *)

(* Column count of the operand's (non-transposed) column space, when
   statically known. *)
let operand_ncols v =
  match v.shape with Matrix (_, Some c) -> Some c | _ -> None

(* Resolve a column list to ascending global indices; [None] when the
   column space is unknown or any name fails to resolve (reported
   separately as E005). *)
let resolved_indices v cols =
  match operand_ncols v with
  | None -> None
  | Some ncols ->
    let idx =
      List.filter_map
        (fun c -> Pred.resolve ?names:v.columns ~ncols c)
        cols
    in
    if List.length idx <> List.length cols then None
    else Some (Array.of_list (List.sort_uniq compare idx))

(* The §3.7 heuristic over declared ratios (no data needed). *)
let decision_of info =
  if
    info.tuple_ratio < Decision.default_tau
    || info.feature_ratio < Decision.default_rho
  then Decision.Materialized
  else Decision.Factorized

(* Standard FLOPs of a plain pseudo-inverse on an r×c input — the same
   convention as {!Cost.standard}'s Pseudo_inverse row. *)
let plain_ginv_cost r c =
  let n = fi r and d = fi c in
  if r > c then (7.0 *. n *. d *. d) +. (20.0 *. (d ** 3.0))
  else (7.0 *. n *. n *. d) +. (20.0 *. (n ** 3.0))

(* ---- the analysis ---- *)

type state = {
  mutable diags : diagnostic list; (* most recent first *)
  mutable annots : annot list;
}

(* [lookup name] resolves a variable to its abstract value plus any
   structural-invariant violations of the bound value (E004). *)
let analyze_with lookup root =
  let st = { diags = []; annots = [] } in
  let emit code rpath fmt =
    Format.kasprintf
      (fun message ->
        let path = List.rev rpath in
        let subterm =
          match Ast.subterm root path with
          | Some e -> Ast.to_string e
          | None -> "<?>"
        in
        st.diags <-
          { code; path; where = Ast.path_string root path; message; subterm }
          :: st.diags)
      fmt
  in
  let note rpath e v ?standard ?factorized ?decision ?rule () =
    st.annots <-
      { a_path = List.rev rpath;
        a_label = Ast.node_label e;
        a_value = v;
        a_standard = standard;
        a_factorized = factorized;
        a_decision = decision;
        a_rule = rule }
      :: st.annots
  in
  let validate_const rpath v =
    match v with
    | Ast.Normalized n -> (
      match Normalized.validate n with
      | [] -> ()
      | problems ->
        emit E004 rpath "normalized matrix violates structural invariants: %s"
          (String.concat "; " problems))
    | _ -> ()
  in
  let warn_slower rpath opname info =
    if decision_of info = Decision.Materialized then
      emit W003 rpath
        "factorized %s predicted slower than materialized (tuple ratio %.2f \
         vs τ=%.0f, feature ratio %.2f vs ρ=%.0f)"
        opname info.tuple_ratio Decision.default_tau info.feature_ratio
        Decision.default_rho
  in
  (* Relational operands must be non-scalar and, when normalized,
     non-transposed (σ/π/γ are row/column operations over T, not Tᵀ). *)
  let relational_operand rpath opname v =
    match v.shape with
    | Scalar ->
      emit E006 rpath "%s applied to a scalar operand" opname;
      false
    | _ -> (
      match v.norm with
      | Some i when i.transposed ->
        emit E006 rpath "%s over a transposed normalized matrix" opname;
        false
      | _ -> true)
  in
  let resolve_columns rpath what v cols =
    match operand_ncols v with
    | None -> ()
    | Some ncols ->
      List.iter
        (fun c ->
          if Pred.resolve ?names:v.columns ~ncols c = None then
            emit E005 rpath "unknown column %S in %s" c what)
        cols
  in
  (* [go] returns the node's abstract value plus the flattened shapes of
     its product-chain leaves (singleton for non-Mult nodes) — what the
     W002 check at a maximal chain root needs. [in_chain] marks Mult
     nodes whose parent is also a Mult. *)
  let rec go rpath ~in_chain e =
    match e with
    | Ast.Mult (a, b) ->
      let va, la = go (0 :: rpath) ~in_chain:true a in
      let vb, lb = go (1 :: rpath) ~in_chain:true b in
      let leaves = la @ lb in
      let v =
        match (va.shape, vb.shape) with
        (* scalars distribute over the other operand (§3.2) *)
        | Scalar, Scalar ->
          note rpath e scalar_value ~standard:1.0 ();
          scalar_value
        | Scalar, _ | _, Scalar ->
          let other = if va.shape = Scalar then vb else va in
          (match other.norm with
          | Some info ->
            let std, fact =
              ( Cost.standard info.n_dims Cost.Scalar_op,
                Cost.factorized info.n_dims Cost.Scalar_op )
            in
            note rpath e other ~standard:std ~factorized:fact
              ~decision:(decision_of info)
              ~rule:"scalar distributes over T (§3.2)" ()
          | None -> note rpath e other ?standard:(numel other.shape) ());
          other
        | _ ->
          let row_col = function
            | Matrix (r, c) -> (r, c)
            | _ -> (None, None)
          in
          let ra, ka = row_col va.shape and kb, cb = row_col vb.shape in
          if dims_conflict ka kb then
            emit E001 rpath "product shape mismatch: %sx%s times %sx%s"
              (dim_str ra) (dim_str ka) (dim_str kb) (dim_str cb);
          let k_dim = unify_dim ka kb in
          let shape = Matrix (ra, cb) in
          let density =
            match (va.density, vb.density, k_dim) with
            | Some da, Some db, Some k ->
              Some (min 1.0 (1.0 -. ((1.0 -. (da *. db)) ** fi k)))
            | _ -> None
          in
          let v = { shape; repr = R_dense; density; norm = None; columns = None } in
          let plain_cost =
            match (ra, k_dim, cb) with
            | Some r, Some k, Some c -> Some (fi r *. fi k *. fi c)
            | _ -> None
          in
          (match (va.repr, va.norm, vb.repr, vb.norm) with
          | R_normalized, Some ia, R_normalized, Some _ ->
            (* both sides normalized: the DMM of §3.6 / Appendix C *)
            let rule =
              if ia.transposed then "DMM Tᵀ·T (Appendix C)"
              else "DMM T·Tᵀ (Appendix C)"
            in
            note rpath e v ?standard:plain_cost ~rule ()
          | R_normalized, Some info, _, _ ->
            let dx = match cb with Some c -> c | None -> 1 in
            let op = Cost.Lmm dx in
            let rule =
              if info.transposed then "LMM under transpose (Appendix A)"
              else "LMM (Table 1)"
            in
            note rpath e v
              ~standard:(Cost.standard info.n_dims op)
              ~factorized:(Cost.factorized info.n_dims op)
              ~decision:(decision_of info) ~rule ();
            warn_slower rpath "LMM" info
          | _, _, R_normalized, Some info ->
            let nx = match ra with Some r -> r | None -> 1 in
            let op = Cost.Rmm nx in
            let rule =
              if info.transposed then "RMM under transpose (Appendix A)"
              else "RMM (Table 1)"
            in
            note rpath e v
              ~standard:(Cost.standard info.n_dims op)
              ~factorized:(Cost.factorized info.n_dims op)
              ~decision:(decision_of info) ~rule ();
            warn_slower rpath "RMM" info
          | _ -> note rpath e v ?standard:plain_cost ());
          v
      in
      if
        (not in_chain)
        && List.length leaves >= 3
        && List.exists
             (function Matrix (Some _, Some _) -> false | _ -> true)
             leaves
      then
        emit W002 rpath
          "product chain of %d terms contains a scalar or unresolved \
           operand; chain-order optimization is skipped"
          (List.length leaves);
      (v, leaves)
    | _ ->
      let v = go1 rpath e in
      (v, [ v.shape ])
  and child rpath i e = fst (go (i :: rpath) ~in_chain:false e)
  (* every non-Mult constructor *)
  and go1 rpath e =
    match e with
    | Ast.Mult _ -> assert false
    | Ast.Const v ->
      validate_const rpath v;
      let av = of_value v in
      note rpath e av ();
      av
    | Ast.Var name ->
      let av =
        match lookup name with
        | Some (av, problems) ->
          (match problems with
          | [] -> ()
          | ps ->
            emit E004 rpath
              "normalized matrix bound to %s violates structural \
               invariants: %s"
              name (String.concat "; " ps));
          av
        | None ->
          emit E002 rpath "unbound variable %s" name;
          top_value
      in
      note rpath e av ();
      av
    | Ast.Scale (x, e1) ->
      let v1 = child rpath 0 e1 in
      let density = if x = 0.0 then Some 0.0 else v1.density in
      scalar_op rpath e { v1 with density } ~keeps_sparse:true
    | Ast.Add_scalar (x, e1) ->
      let v1 = child rpath 0 e1 in
      let density =
        if x = 0.0 then v1.density
        else
          match v1.shape with Scalar -> v1.density | _ -> Some 1.0
      in
      scalar_op rpath e { v1 with density } ~keeps_sparse:(x = 0.0)
    | Ast.Pow_scalar (e1, p) ->
      let v1 = child rpath 0 e1 in
      let density = if p = 0.0 then Some 1.0 else v1.density in
      scalar_op rpath e { v1 with density } ~keeps_sparse:(p <> 0.0)
    | Ast.Map_scalar (_, _, e1) ->
      let v1 = child rpath 0 e1 in
      (* unknown function: zero preservation is not known statically *)
      scalar_op rpath e { v1 with density = None } ~keeps_sparse:false
    | Ast.Transpose e1 ->
      let v1 = child rpath 0 e1 in
      let shape =
        match v1.shape with
        | Matrix (r, c) -> Matrix (c, r)
        | s -> s
      in
      let norm =
        Option.map (fun i -> { i with transposed = not i.transposed }) v1.norm
      in
      let v = { v1 with shape; norm } in
      let rule =
        if norm <> None then Some "transpose flag flip (§3.2, Appendix A)"
        else None
      in
      note rpath e v ?rule ();
      v
    | Ast.Row_sums e1 ->
      let v1 = child rpath 0 e1 in
      aggregation rpath e v1 ~scalar_msg:"rowSums of scalar"
        ~shape:(fun r _ -> Matrix (r, Some 1))
        ~rule:"rowSums(T) (Table 1)"
    | Ast.Col_sums e1 ->
      let v1 = child rpath 0 e1 in
      aggregation rpath e v1 ~scalar_msg:"colSums of scalar"
        ~shape:(fun _ c -> Matrix (Some 1, c))
        ~rule:"colSums(T) (Table 1)"
    | Ast.Sum e1 ->
      let v1 = child rpath 0 e1 in
      let std, fact, decision, rule =
        match v1.norm with
        | Some info ->
          ( Some (Cost.standard info.n_dims Cost.Aggregation),
            Some (Cost.factorized info.n_dims Cost.Aggregation),
            Some (decision_of info),
            Some "sum(T) (Table 1)" )
        | None -> (numel v1.shape, None, None, None)
      in
      note rpath e scalar_value ?standard:std ?factorized:fact ?decision
        ?rule ();
      scalar_value
    | Ast.Crossprod e1 ->
      let v1 = child rpath 0 e1 in
      let v, std, fact, decision, rule =
        match v1.shape with
        | Scalar -> (scalar_value, Some 1.0, None, None, None)
        | Top -> (top_value, None, None, None, None)
        | Matrix (r, c) ->
          let density =
            match (v1.density, r) with
            | Some d, Some rows ->
              Some (min 1.0 (1.0 -. ((1.0 -. (d *. d)) ** fi rows)))
            | _ -> None
          in
          let v = { shape = Matrix (c, c); repr = R_dense; density; norm = None; columns = None } in
          (match v1.norm with
          | Some info ->
            ( v,
              Some (Cost.standard info.n_dims Cost.Crossprod),
              Some (Cost.factorized info.n_dims Cost.Crossprod),
              Some (decision_of info),
              Some
                (if info.transposed then "gram TᵀT via transpose (Appendix A)"
                 else "crossprod(T) (Table 1, §3.3.5)") )
          | None ->
            let std =
              match (r, c) with
              | Some r, Some c -> Some (0.5 *. fi c *. fi c *. fi r)
              | _ -> None
            in
            (v, std, None, None, None))
      in
      (match v1.norm with
      | Some info -> warn_slower rpath "crossprod" info
      | None -> ());
      note rpath e v ?standard:std ?factorized:fact ?decision ?rule ();
      v
    | Ast.Ginv e1 ->
      let v1 = child rpath 0 e1 in
      let v, std, fact, decision, rule =
        match v1.shape with
        | Scalar -> (scalar_value, Some 1.0, None, None, None)
        | Top -> (top_value, None, None, None, None)
        | Matrix (r, c) ->
          let v =
            { shape = Matrix (c, r);
              repr = R_dense;
              density = Some 1.0;
              norm = None;
              columns = None }
          in
          (match v1.norm with
          | Some info ->
            ( v,
              Some (Cost.standard info.n_dims Cost.Pseudo_inverse),
              Some (Cost.factorized info.n_dims Cost.Pseudo_inverse),
              Some (decision_of info),
              Some "factorized pseudo-inverse (Table 11)" )
          | None ->
            let std =
              match (r, c) with
              | Some r, Some c -> Some (plain_ginv_cost r c)
              | _ -> None
            in
            (v, std, None, None, None))
      in
      (match v1.norm with
      | Some info -> warn_slower rpath "ginv" info
      | None -> ());
      note rpath e v ?standard:std ?factorized:fact ?decision ?rule ();
      v
    | Ast.Add (a, b) -> elementwise rpath e a b ~density:density_add
    | Ast.Sub (a, b) -> elementwise rpath e a b ~density:density_add
    | Ast.Mul_elem (a, b) -> elementwise rpath e a b ~density:density_mul
    | Ast.Div_elem (a, b) -> elementwise rpath e a b ~density:density_left
    (* Relational nodes (docs/PLANNER.md): selection keeps the operand's
       representation — a normalized operand STAYS normalized (mask +
       select_rows), which is the whole point of lifting σ/π/γ into the
       DAG — while rows become data-dependent. Column names resolve
       against explicit names or the positional c0…c{d-1} defaults. *)
    | Ast.Filter (p, e1) ->
      let v1 = child rpath 0 e1 in
      if not (relational_operand rpath "filter" v1) then begin
        note rpath e top_value ();
        top_value
      end
      else begin
        resolve_columns rpath "filter predicate" v1 (Pred.columns p);
        let sel = Pred.selectivity p in
        let shape =
          match v1.shape with Matrix (_, c) -> Matrix (None, c) | s -> s
        in
        (* the selected operand has n′ rows; select_rows compacts R when
           Cost prices it cheaper, with the distinct rows n′ uniform
           references hit estimated as u′ = n_R·(1 − (1 − 1/n_R)^{n′}) *)
        let selected i =
          let { Cost.ns; nr; dr; _ } = i.n_dims in
          let ns = max 1 (int_of_float (ceil (sel *. fi ns))) in
          let u =
            int_of_float
              (ceil (fi nr *. (1.0 -. ((1.0 -. (1.0 /. fi (max 1 nr))) ** fi ns))))
          in
          let compacts = Cost.compacts ~nr ~dr ~k:ns ~u in
          let nr' = if compacts then u else nr in
          ( { i with
              n_dims = { i.n_dims with Cost.ns; nr = nr' };
              tuple_ratio = fi ns /. fi (max 1 nr') },
            if compacts then Printf.sprintf "; compacts R to ~%d of %d rows" u nr
            else "" )
        in
        let selected = Option.map selected v1.norm in
        let v = { v1 with shape; norm = Option.map fst selected } in
        (match (v1.norm, selected) with
        | Some info, Some (_, compaction) ->
          note rpath e v
            ~standard:(Cost.standard info.n_dims Cost.Selection)
            ~factorized:(Cost.factorized info.n_dims Cost.Selection)
            ~decision:(decision_of info)
            ~rule:
              (Printf.sprintf
                 "selection pushed below join: per-table masks → select_rows \
                  (est. selectivity %.3g)%s"
                 sel compaction)
            ()
        | _ ->
          if v1.repr <> R_top then
            emit W004 rpath
              "filter over a materialized operand is a post-hoc row mask; \
               no factorized pushdown applies";
          note rpath e v ?standard:(numel v1.shape)
            ~rule:"post-hoc row mask" ());
        v
      end
    | Ast.Project (cols, e1) ->
      let v1 = child rpath 0 e1 in
      if not (relational_operand rpath "project" v1) then begin
        note rpath e top_value ();
        top_value
      end
      else begin
        if cols = [] then emit E006 rpath "empty projection";
        let rec dup = function
          | c :: rest ->
            if List.mem c rest then Some c else dup rest
          | [] -> None
        in
        (match dup cols with
        | Some c -> emit E006 rpath "duplicate column %S in projection" c
        | None -> ());
        resolve_columns rpath "projection" v1 cols;
        let rows = match v1.shape with Matrix (r, _) -> r | _ -> None in
        let kept = List.length cols in
        (* columns metadata: the kept source names in T's column order *)
        let columns =
          match resolved_indices v1 cols with
          | Some idx ->
            let src =
              match (v1.columns, v1.shape) with
              | Some a, _ -> a
              | None, Matrix (_, Some c) -> Pred.default_names c
              | None, _ -> [||]
            in
            if Array.length src = 0 then None
            else Some (Array.map (fun g -> src.(g)) idx)
          | None -> None
        in
        let norm =
          Option.map
            (fun i ->
              let ds_old = i.n_dims.Cost.ds in
              let ds', dr' =
                match resolved_indices v1 cols with
                | Some idx ->
                  let ents =
                    Array.fold_left
                      (fun acc g -> if g < ds_old then acc + 1 else acc)
                      0 idx
                  in
                  (ents, Array.length idx - ents)
                | None -> (min kept ds_old, max 0 (kept - ds_old))
              in
              { i with
                n_dims = { i.n_dims with Cost.ds = ds'; dr = dr' };
                feature_ratio = fi dr' /. fi (max 1 ds') })
            v1.norm
        in
        let v =
          { v1 with shape = Matrix (rows, Some kept); norm; columns }
        in
        (match v1.norm with
        | Some info ->
          note rpath e v
            ~standard:(Cost.standard info.n_dims Cost.Scalar_op)
            ~factorized:
              (match norm with
              | Some i -> Cost.factorized i.n_dims Cost.Scalar_op
              | None -> Cost.factorized info.n_dims Cost.Scalar_op)
            ~decision:(decision_of info)
            ~rule:"projection → attribute-part pruning" ()
        | None -> note rpath e v ?standard:(numel v.shape) ());
        v
      end
    | Ast.Group_agg (keys, agg, e1) ->
      let v1 = child rpath 0 e1 in
      if not (relational_operand rpath "groupby" v1) then begin
        note rpath e top_value ();
        top_value
      end
      else begin
        if keys = [] then emit E006 rpath "groupby needs at least one key";
        resolve_columns rpath "groupby key" v1 keys;
        let out_cols =
          match agg with
          | Relalg.Agg_count -> Some 1
          | Relalg.Agg_sum | Relalg.Agg_mean -> (
            match v1.shape with Matrix (_, c) -> c | _ -> None)
        in
        let columns =
          match agg with
          | Relalg.Agg_count -> None
          | Relalg.Agg_sum | Relalg.Agg_mean -> v1.columns
        in
        let v =
          { shape = Matrix (None, out_cols);
            repr = R_dense;
            density = Some 1.0;
            norm = None;
            columns }
        in
        (match v1.norm with
        | Some info ->
          note rpath e v
            ~standard:(Cost.standard info.n_dims Cost.Group_by)
            ~factorized:(Cost.factorized info.n_dims Cost.Group_by)
            ~decision:(decision_of info)
            ~rule:"factorized group-by: Gᵀ·S scatter + per-part count-matrix \
                   products"
            ()
        | None -> note rpath e v ?standard:(numel v1.shape) ());
        v
      end
  (* Element-wise scalar ops (Scale/Add_scalar/Pow/Map): shape is
     preserved and normalized operands stay normalized (the closure
     property of §3.2). *)
  and scalar_op rpath e v1 ~keeps_sparse =
    let repr =
      match v1.repr with
      | R_sparse when not keeps_sparse -> R_dense
      | r -> r
    in
    let v = { v1 with repr } in
    (match v1.norm with
    | Some info ->
      note rpath e v
        ~standard:(Cost.standard info.n_dims Cost.Scalar_op)
        ~factorized:(Cost.factorized info.n_dims Cost.Scalar_op)
        ~decision:(decision_of info)
        ~rule:"scalar-op closure (Table 1, §3.2)" ()
    | None -> note rpath e v ?standard:(numel v.shape) ());
    v
  and aggregation rpath e v1 ~scalar_msg ~shape ~rule =
    match v1.shape with
    | Scalar ->
      emit E003 rpath "%s" scalar_msg;
      note rpath e top_value ();
      top_value
    | Top | Matrix _ ->
      let r, c =
        match v1.shape with Matrix (r, c) -> (r, c) | _ -> (None, None)
      in
      let v =
        { shape = shape r c; repr = R_dense; density = Some 1.0; norm = None; columns = None }
      in
      let std, fact, decision, rule =
        match v1.norm with
        | Some info ->
          ( Some (Cost.standard info.n_dims Cost.Aggregation),
            Some (Cost.factorized info.n_dims Cost.Aggregation),
            Some (decision_of info),
            Some rule )
        | None -> (numel v1.shape, None, None, None)
      in
      note rpath e v ?standard:std ?factorized:fact ?decision ?rule ();
      v
  and density_add da db = Option.map (min 1.0) (lift2 ( +. ) da db)
  and density_mul da db = lift2 ( *. ) da db
  and density_left da _ = da
  and lift2 f a b =
    match (a, b) with Some x, Some y -> Some (f x y) | _ -> None
  (* Element-wise matrix ops: non-factorizable (§3.3.7) — a normalized
     operand is materialized (W001); shapes must agree exactly. *)
  and elementwise rpath e a b ~density =
    let va = child rpath 0 a in
    let vb = child rpath 1 b in
    match (va.shape, vb.shape) with
    | Scalar, Scalar ->
      note rpath e scalar_value ~standard:1.0 ();
      scalar_value
    | Scalar, Matrix _ | Matrix _, Scalar ->
      emit E003 rpath "elementwise op between scalar and matrix";
      let other = if va.shape = Scalar then vb else va in
      let v = { other with norm = None } in
      note rpath e v ();
      v
    | _ ->
      let row_col = function
        | Matrix (r, c) -> (r, c)
        | _ -> (None, None)
      in
      let ra, ca = row_col va.shape and rb, cb = row_col vb.shape in
      if dims_conflict ra rb || dims_conflict ca cb then
        emit E001 rpath "elementwise shape mismatch: %sx%s vs %sx%s"
          (dim_str ra) (dim_str ca) (dim_str rb) (dim_str cb);
      let normalized_side =
        va.repr = R_normalized || vb.repr = R_normalized
      in
      if normalized_side then
        emit W001 rpath
          "element-wise matrix op forces materialization of the normalized \
           operand (§3.3.7)";
      let repr =
        match (va.repr, vb.repr) with
        | R_top, R_top -> R_top
        | R_sparse, R_sparse -> R_sparse
        | _ -> R_dense
      in
      let v =
        { shape = Matrix (unify_dim ra rb, unify_dim ca cb);
          repr;
          density = density va.density vb.density;
          norm = None;
          columns = None }
      in
      let rule = if normalized_side then Some "materialize (§3.3.7)" else None in
      note rpath e v ?standard:(numel v.shape) ?rule ();
      v
  in
  let result, _ = go [] ~in_chain:false root in
  { expr = root;
    result;
    nodes = List.sort (fun a b -> compare a.a_path b.a_path) st.annots;
    diagnostics = List.rev st.diags }

let analyze ?(env = []) e =
  analyze_with
    (fun name ->
      Option.map
        (fun v ->
          let problems =
            match v with
            | Ast.Normalized n -> Normalized.validate n
            | _ -> []
          in
          (of_value v, problems))
        (List.assoc_opt name env))
    e

let analyze_abstract ?(env = []) e =
  analyze_with
    (fun name -> Option.map (fun v -> (v, [])) (List.assoc_opt name env))
    e

(* ---- report accessors ---- *)

let errors r = List.filter (fun d -> severity_of d.code = Error) r.diagnostics

let warnings r =
  List.filter (fun d -> severity_of d.code = Warning) r.diagnostics

let is_ok r = errors r = []

let totals r =
  List.fold_left
    (fun (s, f) a ->
      let std = Option.value a.a_standard ~default:0.0 in
      let fct = match a.a_factorized with Some x -> x | None -> std in
      (s +. std, f +. fct))
    (0.0, 0.0) r.nodes

(* Legacy-compatible single shape: the first (innermost, leftmost)
   shape/type error, or the abstract result shape. E004 is excluded —
   the raising [Expr.shape_of] never validated normalized structure. *)
let infer_shape ?env e =
  let r = analyze ?env e in
  match
    List.find_opt
      (fun d -> match d.code with E001 | E002 | E003 -> true | _ -> false)
      r.diagnostics
  with
  | Some d -> Stdlib.Error d.message
  | None -> Stdlib.Ok r.result.shape

(* ---- rendering ---- *)

let flops_str = function
  | None -> "-"
  | Some x -> Printf.sprintf "%.3g" x

let report_to_string ?name r =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  (match name with
  | Some n -> add "check %s\n" n
  | None -> ());
  add "  %s\n\n" (Ast.to_string r.expr);
  add "  %-36s %-9s %-10s %-7s %10s %12s %-12s %s\n" "node" "shape" "repr"
    "density" "standard" "factorized" "decision" "rule";
  List.iter
    (fun a ->
      let indent = String.make (2 * List.length a.a_path) ' ' in
      add "  %-36s %-9s %-10s %-7s %10s %12s %-12s %s\n"
        (indent ^ a.a_label)
        (shape_str a.a_value.shape)
        (repr_str a.a_value.repr)
        (match a.a_value.density with
        | Some d -> Printf.sprintf "%.2f" d
        | None -> "-")
        (flops_str a.a_standard)
        (flops_str a.a_factorized)
        (match a.a_decision with
        | Some c -> Decision.to_string c
        | None -> "-")
        (Option.value a.a_rule ~default:"-"))
    r.nodes;
  let std, fact = totals r in
  add "\n  plan totals: standard %.3g flops, factorized %.3g flops" std fact;
  if fact > 0.0 && std > 0.0 then
    add " (predicted speedup %.2fx)" (std /. fact);
  add "\n  result: %s %s\n" (shape_str r.result.shape) (repr_str r.result.repr);
  (match r.diagnostics with
  | [] -> add "  no diagnostics\n"
  | ds ->
    add "\n";
    List.iter (fun d -> add "  %s\n" (diagnostic_to_string d)) ds);
  Buffer.contents buf

let pp_report ppf r = Format.pp_print_string ppf (report_to_string r)
