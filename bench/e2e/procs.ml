(* The processes a workload starts from the morpheus CLI binary. Output
   goes to a log file in the work directory; every process is stopped
   and reaped, also when the benchmark exits early (see [reap_all]). *)

open Morpheus_serve

let live = ref []

let spawn ~cli ~log args =
  let fd =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Unix.create_process cli (Array.of_list (cli :: args)) Unix.stdin fd fd)
  in
  live := pid :: !live ;
  pid

let rec waitpid flags pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid flags pid

let forget pid = live := List.filter (( <> ) pid) !live

(* SIGTERM asks for a graceful stop; a process still running after 5 s
   is killed. *)
let stop pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ()) ;
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec wait () =
    match waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if Unix.gettimeofday () > deadline then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()) ;
        ignore (waitpid [] pid)
      end
      else begin
        Thread.delay 0.002 ;
        wait ()
      end
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait () ;
  forget pid

let reap_all () = List.iter stop !live

(* Run a CLI command to completion; fails unless it exits 0. *)
let run ~cli ~log args =
  let pid = spawn ~cli ~log args in
  let _, status = waitpid [] pid in
  forget pid ;
  match status with
  | Unix.WEXITED 0 -> ()
  | _ ->
    failwith
      (Printf.sprintf "morpheus %s failed (see %s)" (String.concat " " args) log)

let status_ok = function
  | Ok j -> Option.bind (Json.member "status" j) Json.to_str = Some "ok"
  | Error _ -> false

(* Poll [health] every 1 ms until the endpoint answers "ok", and return
   the connection that did. One connection, not one per poll: a router
   keeps its shard connections cached per handler thread, so each fresh
   client connection can pin one more shard handler (README, finding
   4). *)
let await_healthy ~now ~socket =
  let deadline = now () +. 30.0 in
  let retry f =
    if now () > deadline then failwith (Printf.sprintf "%s never became healthy" socket) ;
    Thread.delay 0.001 ;
    f ()
  in
  let rec connect () =
    try Client.connect ~socket with Unix.Unix_error _ -> retry connect
  in
  let c = connect () in
  let rec poll () = if not (status_ok (Client.call c Protocol.Health)) then retry poll in
  (try poll ()
   with e ->
     Client.close c ;
     raise e) ;
  c

(* Peak resident set ("VmHWM") of a process, in MB; [pid] may be
   "self". *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         match String.split_on_char ':' line with
         | [ "VmHWM"; v ] ->
           Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb -> float_of_int kb /. 1024.0)
         | _ -> None)
  |> function
  | Some mb -> mb
  | None -> failwith ("no VmHWM in " ^ path)
