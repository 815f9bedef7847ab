(* Shared infrastructure for the paper-reproduction benches: timing both
   execution paths, printing paper-style tables, the global scale knob
   (--quick shrinks every workload; ratios are preserved), the one
   writer of every BENCH_*.json, and the closed client loop of the
   serving benches. *)

open Workload
module Json = Morpheus_serve.Json

type config = {
  quick : bool; (* smaller grids and sizes *)
  runs : int; (* timed repetitions (median) *)
  runtimes : bool; (* print absolute runtimes alongside speed-ups *)
  force : bool;
      (* overwrite committed BENCH_*.json even when the host would
         produce unrepresentative numbers (e.g. one core online) *)
}

let default = { quick = false; runs = 3; runtimes = false; force = false }

(* Median-of-runs timing for the two paths of one operator instance. *)
let time_fm cfg ~f ~m =
  let tf = Timing.measure ~warmup:1 ~runs:cfg.runs f in
  let tm = Timing.measure ~warmup:1 ~runs:cfg.runs m in
  (tf, tm)

let speedup_cell sp =
  (* the paper's Figure 3 buckets *)
  if sp < 1.0 then Printf.sprintf "%5.2f." sp
  else if sp < 2.0 then Printf.sprintf "%5.2f-" sp
  else if sp < 3.0 then Printf.sprintf "%5.2f+" sp
  else Printf.sprintf "%5.2f*" sp

let hrule width = String.make width '-'

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let subsection title = Printf.printf "\n-- %s --\n" title

let legend () =
  print_endline
    "cells are F-over-M speed-ups; buckets as in Fig 3: '.' <1, '-' 1-2, '+' 2-3, '*' >3"

(* Print a TR×FR-style grid of speed-ups. *)
let grid ~row_label ~col_label ~rows ~cols cell =
  Printf.printf "%8s \\ %s\n" row_label col_label ;
  Printf.printf "%8s" "" ;
  List.iter (fun c -> Printf.printf " %8s" c) cols ;
  print_newline () ;
  List.iteri
    (fun i r ->
      Printf.printf "%8s" r ;
      List.iteri (fun j _ -> Printf.printf " %8s" (cell i j)) cols ;
      print_newline ())
    rows

let pp_time = Timing.pp_seconds

(* Fixed-width rendering for table cells. *)
let ts s =
  if s < 1e-3 then Printf.sprintf "%.1fus" (s *. 1e6)
  else if s < 1.0 then Printf.sprintf "%.2fms" (s *. 1e3)
  else Printf.sprintf "%.2fs" s

(* ---- allocation columns (the memo/in-place bench) ---- *)

(* Word counts rendered like times: per-iteration minor/major heap
   words, scaled to k/M for readability. *)
let words w =
  if w < 1e3 then Printf.sprintf "%.0fw" w
  else if w < 1e6 then Printf.sprintf "%.1fkw" (w /. 1e3)
  else Printf.sprintf "%.2fMw" (w /. 1e6)

(* Time + allocation of [f], respecting the config's run count. *)
let measure_alloc cfg f = Timing.measure_alloc ~warmup:1 ~runs:cfg.runs f

let alloc_header () =
  Printf.printf "%-28s %10s %10s %10s %10s\n" "variant" "time" "minor"
    "major" "promoted"

let alloc_row name (a : Timing.alloc) =
  Printf.printf "%-28s %10s %10s %10s %10s\n" name (ts a.Timing.seconds)
    (words a.Timing.minor_words)
    (words a.Timing.major_words)
    (words a.Timing.promoted_words)

(* ---- BENCH_*.json reports ---- *)

let cores_online = Domain.recommended_domain_count ()

let num x = Json.Num x
let int n = Json.Num (float_of_int n)
let list f l = Json.Arr (List.map f l)

(* Writes [fields] to [path] as one JSON object led by [cores_online]:
   one line per field, and one line per point of a field that holds a
   list of objects (a sweep). A host with one core online measures no
   parallelism, so it never replaces an existing file unless forced:
   flat numbers silently replacing multi-core ones would read as a
   regression. *)
let write_report cfg path fields =
  if cores_online <= 1 && Sys.file_exists path && not cfg.force then
    Printf.printf
      "\nWARNING: host exposes only %d core online; NOT overwriting the \
       committed %s (re-run with --force to override)\n"
      cores_online path
  else begin
    let field (key, value) =
      let value =
        match value with
        | Json.Arr (Json.Obj _ :: _ as points) ->
          let point p = "    " ^ Json.to_string p in
          "[\n" ^ String.concat ",\n" (List.map point points) ^ "\n  ]"
        | v -> Json.to_string v
      in
      Printf.sprintf "  %s: %s" (Json.to_string (Json.Str key)) value
    in
    let fields = ("cores_online", int cores_online) :: fields in
    Out_channel.with_open_text path (fun oc ->
        Printf.fprintf oc "{\n%s\n}\n"
          (String.concat ",\n" (List.map field fields))) ;
    Printf.printf "\nwrote %s\n%!" path
  end

(* The host's CPU steal ticks so far (the 8th value of /proc/stat's
   `cpu` line), or [None] where that file is unreadable: on a shared VM
   the spread between runs follows steal more than code. *)
let steal_ticks () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | Some line -> (
    match List.filter (( <> ) "") (String.split_on_char ' ' line) with
    | "cpu" :: fields when List.length fields >= 8 ->
      int_of_string_opt (List.nth fields 7)
    | _ -> None)
  | None | (exception Sys_error _) -> None

(* [runs] calls of [f], and the steal ticks over them. *)
let repeat runs f =
  let before = steal_ticks () in
  let results = List.init runs (fun _ -> f ()) in
  let steal =
    match (before, steal_ticks ()) with
    | Some a, Some b -> Some (b - a)
    | _ -> None
  in
  (results, steal)

let steal_json = function Some n -> int n | None -> Json.Null

let median xs = Timing.percentile 50.0 (Array.of_list xs)
let lo xs = List.fold_left Float.min Float.infinity xs
let hi xs = List.fold_left Float.max Float.neg_infinity xs

(* The median and min–max over runs of [f]. *)
let spread f rs =
  let xs = List.map f rs in
  Json.Obj
    [ ("median", num (median xs)); ("min", num (lo xs)); ("max", num (hi xs)) ]

(* ---- the serving benches' temp dirs and clients ---- *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path) ;
      Sys.rmdir path
    end
    else Sys.remove path

(* [f] on a fresh directory under the system temp dir, removed on the
   way out. *)
let with_temp_dir name f =
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "morpheus_%s_%d" name (Unix.getpid ()))
  in
  rm_rf root ;
  Sys.mkdir root 0o755 ;
  Fun.protect ~finally:(fun () -> rm_rf root) (fun () -> f root)

type stop = Requests of int (* per thread *) | Seconds of float

type loop = {
  ok : int;
  failed : int;
  error : string option; (* one failed request's "[code] message" *)
  elapsed : float; (* seconds, all threads *)
  latencies : float array; (* seconds, one per answered request *)
}

(* [threads] client threads, each sending its next request only when
   the previous one has returned, until [stop]. Thread [th] runs
   [client th send]: the client sets up what the thread holds for its
   whole run (a keep-alive connection, a seeded RNG) and calls
   [send request] once, where [request i] sends the thread's [i]th
   request. *)
let closed_loop ~threads ~stop client =
  let oks = Array.make threads 0 and fails = Array.make threads 0 in
  let lats = Array.make threads [] and error = ref None in
  let stop_at =
    match stop with Seconds s -> Timing.now () +. s | Requests _ -> infinity
  in
  let more i =
    match stop with Requests n -> i < n | Seconds _ -> Timing.now () < stop_at
  in
  let send th request =
    let i = ref 0 in
    while more !i do
      let t0 = Timing.now () in
      (match request !i with
      | Ok _ ->
        oks.(th) <- oks.(th) + 1 ;
        lats.(th) <- (Timing.now () -. t0) :: lats.(th)
      | Error (code, msg) ->
        fails.(th) <- fails.(th) + 1 ;
        error := Some (Printf.sprintf "[%s] %s" code msg)) ;
      incr i
    done
  in
  let t0 = Timing.now () in
  List.init threads (fun th -> Thread.create (fun () -> client th (send th)) ())
  |> List.iter Thread.join ;
  let sum = Array.fold_left ( + ) 0 in
  { ok = sum oks;
    failed = sum fails;
    error = !error;
    elapsed = Timing.now () -. t0;
    latencies = Array.of_list (List.concat (Array.to_list lats))
  }
