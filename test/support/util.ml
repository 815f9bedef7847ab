(* Temporary directories, loopback ports, substring search and polling
   for the serving, chaos, cluster and control suites. *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path) ;
      Sys.rmdir path
    end
    else Sys.remove path

let dir_counter = ref 0

(* A fresh empty directory under the system temp dir, unique per
   process and call. *)
let tmpdir prefix =
  incr dir_counter ;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s_%d_%d" prefix (Unix.getpid ()) !dir_counter)
  in
  rm_rf d ;
  Sys.mkdir d 0o755 ;
  d

let contains ~needle hay =
  let ln = String.length needle and lh = String.length hay in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

(* Poll [cond] every 10 ms; fail the test after [timeout] seconds,
   running [on_timeout] first. *)
let await ?(timeout = 10.0) ?on_timeout ~what cond =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if cond () then ()
    else if Unix.gettimeofday () > deadline then begin
      (match on_timeout with Some f -> f () | None -> ()) ;
      Alcotest.failf "timed out waiting for %s" what
    end
    else begin
      Unix.sleepf 0.01 ;
      go ()
    end
  in
  go ()

(* A loopback TCP port that was free a moment ago. *)
let free_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd)
  @@ fun () ->
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0)) ;
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, port) -> port
  | _ -> Alcotest.fail "no port bound"
