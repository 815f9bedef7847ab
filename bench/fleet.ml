(* The routed benches' fleet: shard `serve` processes and one `route`
   process from the CLI binary in MORPHEUS_BIN, on loopback TCP, so
   every tier runs on its own cores (in-process shards would share one
   domain and measure nothing), plus the PK-FK fixture they score. *)

open La
open Sparse
open Morpheus
open Morpheus_serve

(* The CLI binary, or [None] when MORPHEUS_BIN is unset and the
   calling bench skips. *)
let cli () =
  match Sys.getenv_opt "MORPHEUS_BIN" with
  | None | Some "" ->
    print_endline
      "skipped: MORPHEUS_BIN must point at the morpheus CLI binary (the \
       shards and the router run as real processes)" ;
    None
  | bin -> bin

let free_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd)
  @@ fun () ->
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0)) ;
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, port) -> port
  | _ -> failwith "no port bound"

let spawn ?(env = []) bin argv =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close devnull)
  @@ fun () ->
  let full_env = Array.append (Unix.environment ()) (Array.of_list env) in
  Unix.create_process_env bin
    (Array.of_list (bin :: argv))
    full_env Unix.stdin devnull devnull

let await_healthy addr =
  let deadline = Workload.Timing.now () +. 10.0 in
  let rec go () =
    match Client.call_once ~socket:addr Protocol.Health with
    | Ok _ -> ()
    | Error _ | (exception Unix.Unix_error _) ->
      if Workload.Timing.now () > deadline then
        failwith (Printf.sprintf "endpoint %s never became healthy" addr)
      else begin
        Thread.delay 0.05 ;
        go ()
      end
  in
  go ()

type fixture = { rows : int; dataset : string; registry : string; model : string }

(* A [rows] × (3 + 4) PK-FK dataset over 50 attribute rows and one
   logistic-regression model for it, saved under [root]. *)
let fixture ~root ~rows =
  let g = Rng.of_int 4242 in
  let s = Dense.random ~rng:g rows 3 in
  let r = Dense.random ~rng:g 50 4 in
  let k = Indicator.random ~rng:g ~rows ~cols:50 () in
  let t = Normalized.pkfk ~s:(Mat.of_dense s) ~k ~r:(Mat.of_dense r) in
  let d = snd (Normalized.dims t) in
  let dataset = Filename.concat root "ds" in
  Io.save ~dir:dataset t ;
  let registry = Filename.concat root "reg" in
  let entry =
    Registry.save ~dir:registry ~name:"bench"
      ~schema_hash:(Registry.schema_hash t)
      (Artifact.Logreg (Dense.random ~rng:g d 1))
  in
  { rows; dataset; registry; model = entry.Registry.id }

(* [f router] with [shards] serve processes ([env i] added to shard
   [i]'s environment) behind one router, once every process answers
   health checks. Every process is reaped on the way out. *)
let with_fleet ~bin ?(env = fun _ -> []) fx ~shards f =
  let addr () = Printf.sprintf "127.0.0.1:%d" (free_port ()) in
  let shard_addrs = List.init shards (fun _ -> addr ()) in
  let pids = ref [] in
  let start ?env argv = pids := spawn ?env bin argv :: !pids in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun pid -> try Unix.kill pid Sys.sigterm with _ -> ()) !pids ;
      List.iter (fun pid -> try ignore (Unix.waitpid [] pid) with _ -> ()) !pids)
  @@ fun () ->
  List.iteri
    (fun i listen ->
      start ~env:(env i)
        [ "serve"; "--registry"; fx.registry; "--listen"; listen;
          "--max-wait-ms"; "1" ])
    shard_addrs ;
  List.iter await_healthy shard_addrs ;
  let router = addr () in
  start
    ([ "route"; "--listen"; router; "--block"; "8" ]
    @ List.concat
        (List.mapi
           (fun i a -> [ "--shard"; Printf.sprintf "shard%d=%s" i a ])
           shard_addrs)) ;
  await_healthy router ;
  f router

(* Fails unless [router] reports every shard active: a point whose
   shard was suspected or ejected mid-window measured a degraded
   fleet, not the configuration it names. *)
let require_all_active router =
  let j =
    match
      Client.with_client ~socket:router (fun c ->
          Client.call c Protocol.Membership)
    with
    | Ok j -> j
    | Error (code, msg) ->
      failwith (Printf.sprintf "membership: [%s] %s" code msg)
  in
  let state (_, m) = Option.bind (Json.member "state" m) Json.to_str in
  let members =
    match Json.member "members" j with Some (Json.Obj ms) -> ms | _ -> []
  in
  if members = [] || List.exists (fun m -> state m <> Some "active") members then
    failwith ("a shard is not active: " ^ Json.to_string j)
