(* Sync-layer overhead bench: the cost of the named-lock wrappers
   against raw Stdlib mutexes, in the three modes that matter for the
   lockdep design contract:

     raw         Mutex.lock / Mutex.unlock
     sync-off    Sync.lock / Sync.unlock, lockdep disabled
     sync-on     same, lockdep enabled (graph + held-stack updates)

   The contract is that sync-off is within noise of raw (the disabled
   path is one bool-ref load on top of the mutex), so the wrappers can
   stay on production serve/kernel paths; sync-on is expected to cost
   several times more and is a debug mode. Both an uncontended loop
   and a 4-thread contended loop are measured — contention is where
   serve-path locks (batcher, metrics) actually live.

   Results go to stdout and BENCH_sync.json. *)

open Workload

let ops_uncontended = 2_000_000
let ops_contended = 200_000
let contended_threads = 4

(* ns/op over [runs] medians of a lock/unlock loop *)
let time_loop cfg ~ops f =
  let t = Timing.measure ~warmup:1 ~runs:cfg.Harness.runs (fun () -> f ops) in
  t /. float_of_int ops *. 1e9

let raw_loop counter m ops =
  for _ = 1 to ops do
    Mutex.lock m ;
    incr counter ;
    Mutex.unlock m
  done

let sync_loop counter l ops =
  for _ = 1 to ops do
    Analysis.Sync.lock l ;
    incr counter ;
    Analysis.Sync.unlock l
  done

(* [contended_threads] systhreads hammering one lock; each runs
   ops/threads iterations so total work matches the label. *)
let contended loop ops =
  let per = ops / contended_threads in
  let ts =
    Array.init contended_threads (fun _ -> Thread.create (fun () -> loop per) ())
  in
  Array.iter Thread.join ts

let with_lockdep_mode on f =
  let was = Analysis.Sync.lockdep_enabled () in
  Analysis.Sync.reset_lockdep () ;
  if on then Analysis.Sync.enable_lockdep ()
  else Analysis.Sync.disable_lockdep () ;
  Fun.protect
    ~finally:(fun () ->
      Analysis.Sync.reset_lockdep () ;
      if was then Analysis.Sync.enable_lockdep ()
      else Analysis.Sync.disable_lockdep ())
    f

let run (cfg : Harness.config) =
  let ops_u = if cfg.quick then ops_uncontended / 20 else ops_uncontended in
  let ops_c = if cfg.quick then ops_contended / 20 else ops_contended in
  Harness.section "Sync wrapper overhead (ns per lock/unlock)" ;
  let counter = ref 0 in
  let m = Mutex.create () in
  let l = Analysis.Sync.create ~name:"bench.sync" () in
  let raw_u = time_loop cfg ~ops:ops_u (raw_loop counter m) in
  let off_u =
    with_lockdep_mode false (fun () ->
        time_loop cfg ~ops:ops_u (sync_loop counter l))
  in
  let on_u =
    with_lockdep_mode true (fun () ->
        time_loop cfg ~ops:ops_u (sync_loop counter l))
  in
  let raw_c =
    time_loop cfg ~ops:ops_c (fun ops ->
        contended (raw_loop counter m) ops)
  in
  let off_c =
    with_lockdep_mode false (fun () ->
        time_loop cfg ~ops:ops_c (fun ops ->
            contended (sync_loop counter l) ops))
  in
  let on_c =
    with_lockdep_mode true (fun () ->
        time_loop cfg ~ops:ops_c (fun ops ->
            contended (sync_loop counter l) ops))
  in
  Printf.printf "%-22s %10s %10s %10s %14s\n" "scenario" "raw" "sync-off"
    "sync-on" "off/raw ratio" ;
  let row name raw off on_ =
    Printf.printf "%-22s %8.1fns %8.1fns %8.1fns %13.2fx\n" name raw off on_
      (off /. raw)
  in
  row (Printf.sprintf "uncontended x%d" ops_u) raw_u off_u on_u ;
  row
    (Printf.sprintf "%d threads x%d" contended_threads ops_c)
    raw_c off_c on_c ;
  ignore !counter ;
  let open Harness in
  let ns raw off on_ =
    [ ("raw_ns", num raw); ("sync_off_ns", num off); ("sync_on_ns", num on_) ]
  in
  write_report cfg "BENCH_sync.json"
    [ ("uncontended", Json.Obj (ns raw_u off_u on_u));
      ( "contended",
        Json.Obj (("threads", int contended_threads) :: ns raw_c off_c on_c) )
    ]
