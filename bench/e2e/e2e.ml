(* The end-to-end benchmark (bench/e2e/README.md):

     dune build bench/e2e/e2e.exe bin/morpheus_cli.exe
     ./_build/default/bench/e2e/e2e.exe --seed 1

   runs every workload; [--workload NAME] runs one, [--trace 0] only
   its untraced phases (the end-to-end metrics), [--trace 1] only its
   traced phase (the per-layer metrics). Prints a header, one
   "workload metric value unit" line per metric, and as its last line
   a JSON object with every metric. Exits 1 on a wrong output or a
   broken validity guard, 2 on a usage error. *)

let usage = "e2e.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]"

let workload_names = [ "serve-light"; "serve-heavy"; "routed"; "train" ]

let fail_usage msg =
  prerr_endline ("e2e: " ^ msg) ;
  prerr_endline usage ;
  exit 2

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir) ;
    Sys.mkdir dir 0o755
  end

let absolute path =
  if Filename.is_relative path then Filename.concat (Sys.getcwd ()) path else path

(* First line a command prints, or "unknown" when it cannot run. *)
let first_line prog args =
  try
    let rd, wr = Unix.pipe ~cloexec:true () in
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
    let pid =
      Fun.protect
        ~finally:(fun () -> Unix.close wr ; Unix.close null)
        (fun () -> Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin wr null)
    in
    let ic = Unix.in_channel_of_descr rd in
    let line = In_channel.input_line ic in
    In_channel.close ic ;
    match (Procs.waitpid [] pid, line) with
    | (_, Unix.WEXITED 0), Some l -> l
    | _ -> "unknown"
  with Unix.Unix_error _ -> "unknown"

let () =
  let workload = ref None
  and seed = ref 1
  and seconds = ref 45.0
  and trace = ref None
  and smoke = ref false
  and cli = ref "_build/default/bin/morpheus_cli.exe"
  and out = ref "bench/e2e/_out" in
  Arg.parse
    [ ("--workload", Arg.String (fun w -> workload := Some w), "NAME one of " ^ String.concat ", " workload_names);
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measured seconds per workload (default 45)");
      ( "--trace",
        Arg.Int
          (function
          | 0 -> trace := Some false
          | 1 -> trace := Some true
          | _ -> fail_usage "--trace takes 0 or 1"),
        "0|1 only the untraced (0) or only the traced (1) phases" );
      ("--smoke", Arg.Set smoke, " 1 s phases and small inputs, every check on");
      ("--cli", Arg.Set_string cli, "PATH the morpheus CLI binary to spawn");
      ("--out", Arg.Set_string out, "DIR work directory (default bench/e2e/_out)")
    ]
    (fun a -> fail_usage ("unexpected argument " ^ a))
    usage ;
  let names =
    match !workload with
    | None -> workload_names
    | Some w when List.mem w workload_names -> [ w ]
    | Some w -> fail_usage ("unknown workload " ^ w)
  in
  if !seconds <= 0.0 then fail_usage "--seconds must be positive" ;
  let mode =
    match !trace with
    | None -> { Report.e2e = true; layers = true }
    | Some traced -> { Report.e2e = not traced; layers = traced }
  in
  let phases = if !smoke then Report.smoke else Report.of_seconds !seconds in
  let cli = absolute !cli in
  if not (Sys.file_exists cli) then fail_usage ("no morpheus CLI at " ^ cli) ;
  let rev = first_line "git" [ "rev-parse"; "HEAD" ] in
  mkdir_p !out ;
  Sys.chdir !out ;
  (* the kernel tile profile is read from the work directory, never
     from a per-user cache *)
  Unix.putenv "MORPHEUS_TUNE_FILE" (absolute "tune.v1") ;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore ;
  at_exit Procs.reap_all ;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ] ;
  Printf.printf "# seed %d, nproc %d, OCaml %s, revision %s\n" !seed
    (Domain.recommended_domain_count ())
    Sys.ocaml_version rev ;
  Printf.printf "# tile profile %s, exec backend %s\n"
    (La.Tune.describe (La.Tune.current ()))
    (La.Exec.name (La.Exec.default ())) ;
  Printf.printf "# cli %s, work directory %s\n%!" cli (Sys.getcwd ()) ;
  let run name =
    let r =
      try
        match List.find_opt (fun s -> s.Serving.name = name) (Serving.specs ~smoke:!smoke) with
        | Some spec -> Serving.run ~cli ~seed:!seed ~phases ~mode spec
        | None -> Train.run ~cli ~seed:!seed ~phases ~mode ()
      with e ->
        Printf.eprintf "e2e: %s failed: %s\n%!" name (Printexc.to_string e) ;
        exit 1
    in
    Report.set r "success_frac"
      (1.0 -. (float_of_int r.Report.failed /. float_of_int (max 1 r.Report.attempted))) ;
    r
  in
  let results = List.map run names in
  List.iter (Report.print_lines mode) results ;
  let json = Report.final_json mode results in
  print_endline (Morpheus_serve.Json.to_string json) ;
  if List.exists (fun r -> r.Report.problems <> []) results then exit 1
