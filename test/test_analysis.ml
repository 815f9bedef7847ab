(* Tests for the concurrency-discipline analyzer (Analysis.Sync) and
   the source-invariant lint (Analysis.Lint).

   The lockdep canaries deliberately perform bad *orderings* — never a
   real deadlock — and assert the first occurrence is reported with
   both acquisition sites. The clean-discipline tests run the real
   stack (pool, memo, fault points) under lockdep and assert silence.
   Lint tests run the real rules against synthetic trees in a temp
   directory, including the must-fail directions the @lint alias can't
   demonstrate on the (clean) repo. *)

open Analysis

(* Every scenario runs with a private, freshly reset lockdep state and
   restores the ambient enablement afterwards, so test order (and an
   inherited MORPHEUS_LOCKDEP) never leaks between cases. *)
let with_lockdep ?(on = true) f =
  let was = Sync.lockdep_enabled () in
  Sync.reset_lockdep () ;
  if on then Sync.enable_lockdep () else Sync.disable_lockdep () ;
  Fun.protect
    ~finally:(fun () ->
      Sync.reset_lockdep () ;
      if was then Sync.enable_lockdep () else Sync.disable_lockdep ())
    f

let codes ds = List.map (fun (d : Diag.t) -> Diag.code_name d.Diag.code) ds

let has_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let find_code c ds =
  match
    List.find_opt (fun (d : Diag.t) -> Diag.code_name d.Diag.code = c) ds
  with
  | Some d -> d
  | None ->
    Alcotest.failf "expected a %s diagnostic, got [%s]" c
      (String.concat "; " (codes ds))

let assert_site ~which line =
  Alcotest.(check bool)
    (Printf.sprintf "%s names an acquisition site (%s)" which line)
    true
    (String.length line > 0
    && (let has sub =
          let n = String.length line and m = String.length sub in
          let rec go i = i + m <= n && (String.sub line i m = sub || go (i + 1)) in
          go 0
        in
        has ".ml:"))

(* ---- E101: the AB/BA inversion canary ---- *)

let test_inversion_detected () =
  with_lockdep (fun () ->
      let a = Sync.create ~name:"test.canary.a" () in
      let b = Sync.create ~name:"test.canary.b" () in
      (* establish a -> b *)
      Sync.with_lock a (fun () -> Sync.with_lock b (fun () -> ())) ;
      Alcotest.(check int) "a->b alone is clean" 0
        (List.length (Sync.lockdep_report ())) ;
      (* now the inversion; no second thread, no deadlock *)
      Sync.with_lock b (fun () -> Sync.with_lock a (fun () -> ())) ;
      let d = find_code "E101" (Sync.lockdep_violations ()) in
      Alcotest.(check int) "exactly one violation" 1
        (List.length (Sync.lockdep_violations ())) ;
      (match d.Diag.detail with
      | [ now_line; first_line ] ->
        assert_site ~which:"inverting acquisition" now_line ;
        assert_site ~which:"original acquisition" first_line
      | l ->
        Alcotest.failf "expected both acquisition sites, got %d detail line(s)"
          (List.length l)) ;
      (* the same inversion again is deduplicated *)
      Sync.with_lock b (fun () -> Sync.with_lock a (fun () -> ())) ;
      Alcotest.(check int) "reported once" 1
        (List.length (Sync.lockdep_violations ())))

let test_clean_ordering_passes () =
  with_lockdep (fun () ->
      let a = Sync.create ~name:"test.order.a" () in
      let b = Sync.create ~name:"test.order.b" () in
      let c = Sync.create ~name:"test.order.c" () in
      for _ = 1 to 50 do
        Sync.with_lock a (fun () ->
            Sync.with_lock b (fun () -> Sync.with_lock c (fun () -> ()))) ;
        (* skipping a level keeps the same partial order *)
        Sync.with_lock a (fun () -> Sync.with_lock c (fun () -> ())) ;
        Sync.with_lock b (fun () -> Sync.with_lock c (fun () -> ()))
      done ;
      Alcotest.(check (list string)) "no diagnostics" [] (codes (Sync.lockdep_report ())))

(* Same class from two instances (e.g. per-dataset breakers) must not
   self-report: a lock class never orders against itself here. *)
let test_same_class_instances () =
  with_lockdep (fun () ->
      let a1 = Sync.create ~name:"test.instanced" () in
      let a2 = Sync.create ~name:"test.instanced" () in
      Sync.with_lock a1 (fun () -> Sync.with_lock a2 (fun () -> ())) ;
      Sync.with_lock a2 (fun () -> Sync.with_lock a1 (fun () -> ())) ;
      Alcotest.(check (list string)) "no diagnostics" []
        (codes (Sync.lockdep_report ())))

(* ---- E102: lock held across Pool.run ---- *)

let test_lock_held_across_pool () =
  with_lockdep (fun () ->
      let pool = La.Pool.create 2 in
      Fun.protect
        ~finally:(fun () -> La.Pool.shutdown pool)
        (fun () ->
          let l = Sync.create ~name:"test.held" () in
          let hits = Atomic.make 0 in
          (* clean batch first: nothing held *)
          La.Pool.run pool ~njobs:4 (fun _ -> Atomic.incr hits) ;
          Alcotest.(check (list string)) "lock-free caller is clean" []
            (codes (Sync.lockdep_report ())) ;
          Sync.with_lock l (fun () ->
              La.Pool.run pool ~njobs:4 (fun _ -> Atomic.incr hits)) ;
          Alcotest.(check int) "batches still ran" 8 (Atomic.get hits) ;
          let d = find_code "E102" (Sync.lockdep_violations ()) in
          (match d.Diag.detail with
          | [ held_line; entered_line ] ->
            assert_site ~which:"held-lock acquisition" held_line ;
            assert_site ~which:"region entry" entered_line
          | l ->
            Alcotest.failf "expected held site + entry site, got %d line(s)"
              (List.length l)) ;
          (* second offence at the same region/lock pair: deduplicated *)
          Sync.with_lock l (fun () ->
              La.Pool.run pool ~njobs:2 (fun _ -> ())) ;
          Alcotest.(check int) "reported once" 1
            (List.length (Sync.lockdep_violations ()))))

(* ---- W101: the nested-region downgrade is counted and reported ---- *)

let test_nested_downgrade () =
  with_lockdep (fun () ->
      let e = La.Exec.par ~domains:2 in
      Fun.protect
        ~finally:(fun () -> La.Exec.shutdown e)
        (fun () ->
          let before = Sync.nested_downgrades () in
          let inner_ran = Atomic.make 0 in
          La.Exec.parallel_for e ~lo:0 ~hi:8 (fun lo hi ->
              for _ = lo to hi - 1 do
                (* a nested region: downgraded, never re-pooled *)
                La.Exec.parallel_for e ~lo:0 ~hi:4 (fun l h ->
                    Atomic.fetch_and_add inner_ran (h - l) |> ignore)
              done) ;
          Alcotest.(check int) "inner bodies all ran" 32
            (Atomic.get inner_ran) ;
          Alcotest.(check bool) "downgrades counted" true
            (Sync.nested_downgrades () > before) ;
          let d = find_code "W101" (Sync.lockdep_warnings ()) in
          Alcotest.(check string) "warning names the region"
            "Exec.parallel_for" d.Diag.where ;
          Alcotest.(check (list string)) "downgrade is not a violation" []
            (codes (Sync.lockdep_violations ()))))

(* ---- disabled mode: same behavior, nothing recorded ---- *)

let test_disabled_parity () =
  (* identical workload under lockdep off/on must produce bitwise-equal
     results; off must additionally record nothing *)
  let workload () =
    let e = La.Exec.par ~domains:2 in
    Fun.protect
      ~finally:(fun () -> La.Exec.shutdown e)
      (fun () ->
        La.Exec.reduce e ~lo:0 ~hi:100_000 ~grain:1024
          ~body:(fun lo hi ->
            let acc = ref 0.0 in
            for i = lo to hi - 1 do
              acc := !acc +. (1.0 /. float_of_int (i + 1))
            done ;
            !acc)
          ~combine:( +. ))
  in
  let off = with_lockdep ~on:false workload in
  let recorded_off =
    with_lockdep ~on:false (fun () ->
        ignore (workload ()) ;
        List.length (Sync.lockdep_report ()))
  in
  let on = with_lockdep ~on:true workload in
  Alcotest.(check bool) "bitwise-identical result" true
    (Int64.equal (Int64.bits_of_float off) (Int64.bits_of_float on)) ;
  Alcotest.(check int) "disabled mode records nothing" 0 recorded_off

(* ---- the real stack under lockdep: zero violations ---- *)

let test_stack_clean_under_lockdep () =
  with_lockdep (fun () ->
      let pool = La.Pool.create 4 in
      Fun.protect
        ~finally:(fun () -> La.Pool.shutdown pool)
        (fun () ->
          (* fault-point checks, memo cells, and flops counters from
             concurrent pool tasks — the lock classes the LA stack
             actually layers *)
          Fault.with_config "seed=7,pool.task=0.05:delay1" (fun () ->
              let cell = La.Memo.cell () in
              for _ = 1 to 5 do
                La.Pool.run pool ~njobs:16 (fun i ->
                    (try Fault.point "pool.task" with Fault.Injected _ -> ()) ;
                    La.Flops.add i ;
                    ignore
                      (La.Memo.force cell (fun () ->
                           La.Flops.add 1 ;
                           42)))
              done) ;
          ignore (La.Flops.get ()) ;
          Alcotest.(check (list string)) "no violations, no warnings" []
            (codes (Sync.lockdep_report ()))))

(* ---- the lint rules, against synthetic trees ---- *)

let write_file path contents =
  let dir = Filename.dirname path in
  let rec mkdirs d =
    if not (Sys.file_exists d) then begin
      mkdirs (Filename.dirname d) ;
      Sys.mkdir d 0o755
    end
  in
  mkdirs dir ;
  let oc = open_out path in
  output_string oc contents ;
  close_out oc

(* The fixture documents every catalogue: the fault-point table with its
   cluster section, the wire examples with the routed-op table, the
   relational table, and an unsafe-indexing table that sanctions
   nothing, so a fixture is clean iff it has no unsafe indexing. *)
let fault_table = "| point | boundary |\n|---|---|\n| `io.read` | file I/O |\n"

let cluster_section =
  "\n## Cluster fault points\n\n| point | boundary |\n|---|---|\n\
   | `router.forward` | shard dial |\n"

let wire_examples =
  "Requests:\n```\n{\"op\":\"ping\"}\n{\"op\":\"score\",\"model\":\"m\"}\n```\n"

let routed_section =
  "\n## Routed operations\n\n| op | fan-out |\n|---|---|\n\
   | `score` | one shard by key |\n| `health` | every shard |\n"

let default_analysis =
  "# Analyzer\n\n## Sanctioned unsafe-indexing modules\n\n\
   | module | why |\n|---|---|\n"

let rewrite_rules_section =
  "# Rules\n\n## Relational operators\n\n| node | rewrite |\n|---|---|\n\
   | `Filter` | masks + select_rows |\n| `Project` | part pruning |\n"

let fault_call name = Printf.sprintf "let f () = Fault.point %S\n" name

let lint_fixture ?(robustness = fault_table ^ cluster_section)
    ?(serving = wire_examples ^ routed_section) ?(analysis = default_analysis)
    ?(rewrite_rules = rewrite_rules_section) ?(extra_sources = []) () =
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "morpheus_lint_%d" (Unix.getpid ()))
  in
  (* a fresh tree per call: tests may write conflicting contents *)
  let rec rm p =
    if Sys.file_exists p then
      if Sys.is_directory p then begin
        Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p) ;
        Sys.rmdir p
      end
      else Sys.remove p
  in
  rm root ;
  write_file (Filename.concat root "docs/ROBUSTNESS.md") robustness ;
  write_file (Filename.concat root "docs/SERVING.md") serving ;
  write_file (Filename.concat root "docs/ANALYSIS.md") analysis ;
  write_file (Filename.concat root "docs/REWRITE_RULES.md") rewrite_rules ;
  List.iter
    (fun (rel, src) -> write_file (Filename.concat root rel) src)
    ([ ("lib/core/io.ml", fault_call "io.read");
       ( "lib/serve/protocol.ml",
         "let parse = function Some \"ping\" -> 1 | Some \"score\" -> 2\n" );
       ("lib/cluster/router.ml", fault_call "router.forward")
     ]
    @ extra_sources) ;
  root

let base_cfg root =
  { Lint.root;
    protocol_ops = [ "ping"; "score" ];
    catalogues = [ ("Check", [ "E001" ]); ("Analysis", [ "E101" ]) ];
    relational_nodes = [ "Filter"; "Project" ];
    router_ops = [ "score"; "health" ]
  }

let clean_fixture () = lint_fixture ()

let test_lint_clean () =
  let root = clean_fixture () in
  Alcotest.(check (list string)) "clean tree has no findings" []
    (codes (Lint.run (base_cfg root)))

(* Deleting a catalogue file is drift for every rule that reads it, and
   for no other rule. *)
let test_lint_catalogue_deleted () =
  List.iter
    (fun (rel, expected) ->
      let root = clean_fixture () in
      Sys.remove (Filename.concat root rel) ;
      Alcotest.(check (list string))
        (rel ^ " deleted") expected
        (List.sort compare (codes (Lint.run (base_cfg root)))))
    [ ("docs/ROBUSTNESS.md", [ "E202"; "E208" ]);
      ("docs/SERVING.md", [ "E203"; "E208" ]);
      ("docs/REWRITE_RULES.md", [ "E206" ]);
      ("docs/ANALYSIS.md", [ "E207" ]);
      ("lib/serve/protocol.ml", [ "E203" ])
    ]

let test_lint_undocumented_fault_point () =
  let root = clean_fixture () in
  write_file
    (Filename.concat root "lib/core/extra.ml")
    (fault_call "io.mystery") ;
  let d = find_code "E201" (Lint.run (base_cfg root)) in
  Alcotest.(check bool) "names the point" true
    (String.length d.Diag.message > 0)

let test_lint_phantom_doc_point () =
  let root =
    lint_fixture
      ~robustness:
        ("| point | boundary |\n|---|---|\n| `io.read`, `io.gone` | io |\n"
        ^ cluster_section)
      ()
  in
  ignore (find_code "E202" (Lint.run (base_cfg root)))

let test_lint_undocumented_op () =
  let root = clean_fixture () in
  let cfg = { (base_cfg root) with Lint.protocol_ops = [ "ping"; "score"; "drain" ] } in
  (* "drain" has neither a doc example nor a parser case *)
  let findings = Lint.run cfg in
  ignore (find_code "E203" findings) ;
  Alcotest.(check int) "doc miss and parser miss" 2
    (List.length
       (List.filter (fun (d : Diag.t) -> d.Diag.code = Diag.E203) findings))

let test_lint_spaced_wire_example () =
  let root =
    lint_fixture
      ~serving:
        ("```\n{\"op\":\"ping\"}\n{\"op\": \"score\"}\n```\n" ^ routed_section)
      ()
  in
  Alcotest.(check (list string)) "a spaced example documents its op" []
    (codes (Lint.run (base_cfg root)))

let test_lint_raw_primitives () =
  let root = clean_fixture () in
  write_file
    (Filename.concat root "lib/la/bad.ml")
    "let m = Mutex.create ()\nlet t () = Unix.gettimeofday ()\nlet () = Random.self_init ()\n" ;
  write_file
    (Filename.concat root "lib/la/fine.ml")
    "(* Mutex.create in a comment is fine *)\nlet s = \"Unix.gettimeofday\"\n" ;
  let findings = Lint.run (base_cfg root) in
  let e204 =
    List.filter (fun (d : Diag.t) -> d.Diag.code = Diag.E204) findings
  in
  Alcotest.(check int) "three raw-primitive findings" 3 (List.length e204) ;
  Alcotest.(check bool) "all point into bad.ml" true
    (List.for_all
       (fun (d : Diag.t) ->
         String.length d.Diag.where >= 13
         && String.sub d.Diag.where 0 13 = "lib/la/bad.ml")
       e204)

let test_lint_relational_nodes_clean () =
  (* dotted code paths on the table's rows and prose mentions outside
     the table are not nodes *)
  let root =
    lint_fixture
      ~rewrite_rules:
        (rewrite_rules_section
        ^ "| `Relalg.filter` | code path |\n\nProse about `Ghost`.\n")
      ()
  in
  Alcotest.(check (list string)) "documented nodes are clean" []
    (codes (Lint.run (base_cfg root)))

let test_lint_relational_node_undocumented () =
  let root = clean_fixture () in
  let cfg =
    { (base_cfg root) with
      Lint.relational_nodes = [ "Filter"; "Project"; "Group_agg" ]
    }
  in
  let d = find_code "E206" (Lint.run cfg) in
  Alcotest.(check bool) "names the missing node" true
    (has_substring d.Diag.message "Group_agg")

let test_lint_relational_node_phantom () =
  let root =
    lint_fixture
      ~rewrite_rules:(rewrite_rules_section ^ "| `Ghost` | does not exist |\n")
      ()
  in
  let d = find_code "E206" (Lint.run (base_cfg root)) in
  Alcotest.(check bool) "names the phantom node" true
    (has_substring d.Diag.message "Ghost")

let test_lint_relational_section_missing () =
  let root =
    lint_fixture ~rewrite_rules:"# Rules\n\n## Multiplication\n" ()
  in
  ignore (find_code "E206" (Lint.run (base_cfg root)))

(* E207 unsafe-indexing discipline, both directions. *)

let unsafe_src = "let f a = Array.unsafe_get a 0\n"

let sanctioning table_rows =
  default_analysis ^ table_rows

let test_lint_unsafe_outside_table () =
  let root = clean_fixture () in
  write_file (Filename.concat root "lib/la/hot.ml") unsafe_src ;
  let d = find_code "E207" (Lint.run (base_cfg root)) in
  Alcotest.(check bool) "points into the offending file" true
    (has_substring d.Diag.where "lib/la/hot.ml") ;
  (* comments and strings may mention the token freely *)
  write_file
    (Filename.concat root "lib/la/hot.ml")
    "(* Array.unsafe_get in a comment *)\nlet s = \"Array.unsafe_set\"\n" ;
  Alcotest.(check (list string)) "mentions are not findings" []
    (codes (Lint.run (base_cfg root)))

let test_lint_unsafe_sanctioned_clean () =
  let root =
    lint_fixture
      ~analysis:(sanctioning "| `lib/la/hot.ml` | micro-kernel |\n")
      ~extra_sources:[ ("lib/la/hot.ml", unsafe_src) ]
      ()
  in
  Alcotest.(check (list string)) "sanctioned unsafe use is clean" []
    (codes (Lint.run (base_cfg root)))

let test_lint_unsafe_stale_row () =
  let root = clean_fixture () in
  (* a row for a module that exists but no longer uses unsafe indexing,
     and a row for a module that does not exist at all *)
  write_file
    (Filename.concat root "docs/ANALYSIS.md")
    (sanctioning
       "| `lib/core/io.ml` | stale |\n| `lib/la/ghost.ml` | missing |\n") ;
  let findings = Lint.run (base_cfg root) in
  let e207 =
    List.filter (fun (d : Diag.t) -> d.Diag.code = Diag.E207) findings
  in
  Alcotest.(check int) "both stale rows are findings" 2 (List.length e207) ;
  Alcotest.(check bool) "one names the ghost module" true
    (List.exists (fun (d : Diag.t) -> has_substring d.Diag.message "ghost") e207)

let test_lint_unsafe_section_missing () =
  let root = clean_fixture () in
  write_file (Filename.concat root "docs/ANALYSIS.md") "# Analyzer\n" ;
  ignore (find_code "E207" (Lint.run (base_cfg root)))

(* E208 cluster drift: routed ops vs the SERVING.md table and the
   lib/cluster fault points vs the ROBUSTNESS.md cluster section, both
   directions. *)

let test_lint_cluster_clean () =
  (* router.forward is listed only in the cluster section, which the
     global E201/E202 table scan reads too *)
  let root = clean_fixture () in
  Alcotest.(check (list string)) "documented cluster tree is clean" []
    (codes (Lint.run (base_cfg root)))

let test_lint_cluster_undocumented_op () =
  let root = clean_fixture () in
  let cfg =
    { (base_cfg root) with Lint.router_ops = [ "score"; "health"; "stats" ] }
  in
  let d = find_code "E208" (Lint.run cfg) in
  Alcotest.(check bool) "names the missing op" true
    (has_substring d.Diag.message "stats")

let test_lint_cluster_phantom_op () =
  let root =
    lint_fixture
      ~serving:
        (wire_examples ^ routed_section ^ "| `drain` | does not exist |\n")
      ()
  in
  let d = find_code "E208" (Lint.run (base_cfg root)) in
  Alcotest.(check bool) "names the phantom op" true
    (has_substring d.Diag.message "drain")

let test_lint_cluster_undocumented_point () =
  let root =
    lint_fixture
      ~extra_sources:[ ("lib/cluster/extra.ml", fault_call "router.mystery") ]
      ()
  in
  let findings = Lint.run (base_cfg root) in
  let d = find_code "E208" findings in
  Alcotest.(check bool) "names the undocumented point" true
    (has_substring d.Diag.message "router.mystery") ;
  (* the same point outside lib/cluster/ only concerns the global scan *)
  ignore (find_code "E201" findings)

let test_lint_cluster_phantom_point () =
  let root =
    lint_fixture
      ~robustness:
        (fault_table ^ cluster_section ^ "| `router.ghost` | gone |\n")
      ()
  in
  let d = find_code "E208" (Lint.run (base_cfg root)) in
  Alcotest.(check bool) "names the phantom point" true
    (has_substring d.Diag.message "router.ghost")

let test_lint_cluster_sections_missing () =
  let root = lint_fixture ~robustness:fault_table ~serving:wire_examples () in
  let findings = Lint.run (base_cfg root) in
  let e208 =
    List.filter (fun (d : Diag.t) -> d.Diag.code = Diag.E208) findings
  in
  Alcotest.(check int) "both missing sections are findings" 2
    (List.length e208)

let test_lint_duplicate_codes () =
  let root = clean_fixture () in
  let cfg =
    { (base_cfg root) with
      Lint.catalogues =
        [ ("Check", [ "E001"; "W001" ]); ("Analysis", [ "E101"; "E001" ]) ]
    }
  in
  ignore (find_code "E205" (Lint.run cfg))

let () =
  Alcotest.run "analysis"
    [ ( "lockdep",
        [ Alcotest.test_case "AB/BA inversion canary" `Quick
            test_inversion_detected;
          Alcotest.test_case "clean ordering passes" `Quick
            test_clean_ordering_passes;
          Alcotest.test_case "same-class instances" `Quick
            test_same_class_instances;
          Alcotest.test_case "lock held across Pool.run" `Quick
            test_lock_held_across_pool;
          Alcotest.test_case "nested-region downgrade" `Quick
            test_nested_downgrade;
          Alcotest.test_case "disabled-mode parity" `Quick
            test_disabled_parity;
          Alcotest.test_case "real stack is clean" `Quick
            test_stack_clean_under_lockdep ] );
      ( "lint",
        [ Alcotest.test_case "clean fixture" `Quick test_lint_clean;
          Alcotest.test_case "deleted catalogue files" `Quick
            test_lint_catalogue_deleted;
          Alcotest.test_case "undocumented fault point" `Quick
            test_lint_undocumented_fault_point;
          Alcotest.test_case "phantom documented point" `Quick
            test_lint_phantom_doc_point;
          Alcotest.test_case "undocumented protocol op" `Quick
            test_lint_undocumented_op;
          Alcotest.test_case "spaced wire example" `Quick
            test_lint_spaced_wire_example;
          Alcotest.test_case "raw primitives" `Quick test_lint_raw_primitives;
          Alcotest.test_case "duplicate diagnostic codes" `Quick
            test_lint_duplicate_codes;
          Alcotest.test_case "relational nodes documented" `Quick
            test_lint_relational_nodes_clean;
          Alcotest.test_case "undocumented relational node" `Quick
            test_lint_relational_node_undocumented;
          Alcotest.test_case "phantom relational node" `Quick
            test_lint_relational_node_phantom;
          Alcotest.test_case "missing relational section" `Quick
            test_lint_relational_section_missing;
          Alcotest.test_case "cluster tables clean" `Quick
            test_lint_cluster_clean;
          Alcotest.test_case "undocumented routed op" `Quick
            test_lint_cluster_undocumented_op;
          Alcotest.test_case "phantom routed op" `Quick
            test_lint_cluster_phantom_op;
          Alcotest.test_case "undocumented cluster fault point" `Quick
            test_lint_cluster_undocumented_point;
          Alcotest.test_case "phantom cluster fault point" `Quick
            test_lint_cluster_phantom_point;
          Alcotest.test_case "missing cluster sections" `Quick
            test_lint_cluster_sections_missing;
          Alcotest.test_case "unsafe indexing outside table" `Quick
            test_lint_unsafe_outside_table;
          Alcotest.test_case "sanctioned unsafe indexing" `Quick
            test_lint_unsafe_sanctioned_clean;
          Alcotest.test_case "stale unsafe-table rows" `Quick
            test_lint_unsafe_stale_row;
          Alcotest.test_case "missing unsafe section" `Quick
            test_lint_unsafe_section_missing ] )
    ]
