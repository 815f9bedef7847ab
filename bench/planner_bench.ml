(* Planner bench: pushed-down selection vs materialize-then-filter, and
   both sides of select_rows' compaction choice.

   A segment query sigma_p(T)' sigma_p(T) (the filtered Gram matrix)
   and a segment scoring pass sigma_p(T) * w can run two ways:

   - pushdown: evaluate the predicate with per-table masks over the
     factorized representation, compose indicator mappings with one
     Normalized.select_rows, and run the factorized rewrite on the
     still-normalized segment (what Expr.optimize emits for
     filter(...) plans — docs/PLANNER.md);
   - materialize-then-filter: materialize the join, evaluate the
     predicate over the joined rows, gather the survivors, and run the
     standard kernel on the filtered regular matrix.

   Inside the pushdown, select_rows either shares R or compacts it to
   the rows the selection references (Cost.compacts). Both sides are
   built here by hand from the mask — the shared-R selection and the
   ascending gather — and timed with their product, selection build
   included. The bench fails if the two sides differ in any bit, and
   records the side the rule chose and its regret,
   t(choice) / min(t_shared, t_compacted).

   The sweep varies predicate selectivity at the Fig-3 "large" cell
   (TR = 20, FR = 4). Results go to stdout and BENCH_planner.json. *)

open La
open Sparse
open Morpheus
open Workload

let selectivities = [ 0.001; 0.003; 0.01; 0.1; 0.25; 0.5; 0.9 ]

(* T[ids, ] with every attribute part either shared (the composed
   mapping over all of R) or compacted to its referenced rows in
   ascending order. *)
let selection ~compact t ids =
  let part (p : Normalized.part) =
    let m = Indicator.mapping p.Normalized.ind in
    let keys = Array.map (fun i -> m.(i)) ids in
    let nr = Indicator.cols p.Normalized.ind in
    if not compact then (Indicator.create ~cols:nr keys, p.Normalized.mat)
    else begin
      let seen = Array.make nr false in
      Array.iter (fun r -> seen.(r) <- true) keys ;
      let kept = Array.of_list (List.filter (Array.get seen) (List.init nr Fun.id)) in
      let rank = Array.make nr 0 in
      Array.iteri (fun j r -> rank.(r) <- j) kept ;
      ( Indicator.create ~cols:(Array.length kept) (Array.map (fun r -> rank.(r)) keys),
        Mat.gather_rows p.Normalized.mat kept )
    end
  in
  Normalized.make
    ?ent:(Option.map (fun s -> Mat.gather_rows s ids) (Normalized.ent t))
    (List.map part (Normalized.parts t))

let same_bits a b =
  Dense.dims a = Dense.dims b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       (Dense.data a) (Dense.data b)

let run cfg =
  Harness.section
    "Planner: pushed-down selection vs materialize-then-filter (TR=20 FR=4)" ;
  let base = if cfg.Harness.quick then 500 else 2_000 in
  let d = Synthetic.table4_tuple_ratio ~base ~tr:20 ~fr:4.0 () in
  let t = d.Synthetic.t in
  let n, dc = Normalized.dims t in
  let dense_t = Sparse.Mat.dense (Materialize.to_mat t) in
  let w = Dense.gaussian ~rng:(Rng.of_int 11) dc 1 in
  (* thresholds from the empirical quantiles of column c0, so each
     target selectivity is hit to within 1/n *)
  let col0 = Array.init n (fun i -> Dense.get dense_t i 0) in
  Array.sort compare col0 ;
  Printf.printf "T: %d x %d; predicate c0 < quantile(sel)\n\n" n dc ;
  Printf.printf "%-6s %-6s %-6s %-9s %22s %22s %22s %22s\n" "sel" "rows" "R used"
    "choice" "crossprod (push/mat)" "scoring (push/mat)" "xp (shared/compact)"
    "sc (shared/compact)" ;
  let results =
    List.map
      (fun sel ->
        let thr =
          col0.(min (n - 1) (int_of_float (sel *. float_of_int n)))
        in
        let pred =
          match Pred.parse (Printf.sprintf "c0 < %.17g" thr) with
          | Ok p -> p
          | Error msg -> failwith ("planner bench predicate: " ^ msg)
        in
        let ids = Relalg.mask t pred in
        let rows = Array.length ids in
        let push_xp () = ignore (Rewrite.crossprod (Relalg.filter t pred)) in
        let mat_xp () =
          ignore
            (Sparse.Mat.crossprod (Relalg.filter_mat (Materialize.to_mat t) pred))
        in
        let push_sc () = ignore (Rewrite.lmm (Relalg.filter t pred) w) in
        let mat_sc () =
          ignore (Sparse.Mat.mm (Relalg.filter_mat (Materialize.to_mat t) pred) w)
        in
        (* both sides of the compaction choice, bit for bit *)
        let shared = selection ~compact:false t ids
        and compacted = selection ~compact:true t ids in
        List.iter
          (fun (what, f) ->
            if not (same_bits (f shared) (f compacted)) then
              failwith
                (Printf.sprintf
                   "planner bench: %s over the compacted selection differs from \
                    the shared-R one at selectivity %g"
                   what sel))
          [ ("crossprod", Rewrite.crossprod); ("scoring", fun s -> Rewrite.lmm s w) ] ;
        let chosen = Normalized.select_rows t ids in
        let choice =
          if List.for_all2
               (fun (p : Normalized.part) (q : Normalized.part) ->
                 p.Normalized.mat == q.Normalized.mat)
               (Normalized.parts t) (Normalized.parts chosen)
          then `Shared
          else `Compacted
        in
        let used =
          List.fold_left
            (fun acc (p : Normalized.part) -> acc + Mat.rows p.Normalized.mat)
            0 (Normalized.parts compacted)
        in
        let side ~compact f () = ignore (f (selection ~compact t ids)) in
        let time f = Timing.measure ~warmup:1 ~runs:cfg.Harness.runs f in
        let txp_p = time push_xp and txp_m = time mat_xp in
        let tsc_p = time push_sc and tsc_m = time mat_sc in
        let both f =
          (time (side ~compact:false f), time (side ~compact:true f))
        in
        let xp_sides = both Rewrite.crossprod in
        let sc_sides = both (fun s -> Rewrite.lmm s w) in
        Printf.printf "%-6.3f %-6d %-6d %-9s %10s/%-10s %10s/%-10s %10s/%-10s %10s/%-10s\n"
          sel rows used
          (match choice with `Shared -> "shared" | `Compacted -> "compacted")
          (Harness.ts txp_p) (Harness.ts txp_m) (Harness.ts tsc_p)
          (Harness.ts tsc_m)
          (Harness.ts (fst xp_sides)) (Harness.ts (snd xp_sides))
          (Harness.ts (fst sc_sides)) (Harness.ts (snd sc_sides)) ;
        (sel, rows, used, choice, (txp_p, txp_m), (tsc_p, tsc_m), xp_sides, sc_sides))
      selectivities
  in
  let open Harness in
  let pair (push, mat) =
    Json.Obj
      [ ("pushdown_s", num push); ("materialize_s", num mat);
        ("speedup", num (mat /. push))
      ]
  in
  let sides choice (shared, compacted) =
    let chosen = match choice with `Shared -> shared | `Compacted -> compacted in
    Json.Obj
      [ ("shared_s", num shared); ("compacted_s", num compacted);
        ("regret", num (chosen /. Float.min shared compacted))
      ]
  in
  write_report cfg "BENCH_planner.json"
    [ ( "setting",
        Json.Obj
          [ ("base", int base); ("tr", int 20); ("fr", num 4.0); ("rows", int n);
            ("cols", int dc); ("predicate", Json.Str "c0 < quantile(sel)")
          ] );
      ( "expectation",
        Json.Str
          "pushdown beats materialize-then-filter at every selectivity <= 0.5; \
           compaction is bitwise-identical to sharing R, and the rule's regret \
           stays near 1" );
      ("selectivities", list num selectivities);
      ( "sweep",
        list
          (fun (sel, rows, used, choice, xp, sc, xp_sides, sc_sides) ->
            Json.Obj
              [ ("selectivity", num sel); ("rows", int rows);
                ("referenced_r_rows", int used);
                ( "choice",
                  Json.Str
                    (match choice with `Shared -> "shared" | `Compacted -> "compacted")
                );
                ("crossprod", pair xp); ("scoring", pair sc);
                ("crossprod_sides", sides choice xp_sides);
                ("scoring_sides", sides choice sc_sides)
              ])
          results )
    ]
