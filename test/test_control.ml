(* The control-plane suite (@controlcheck, also plain runtest):
   endpoint-string edge cases, wire-codec fuzzing (in memory and
   against a live server socket), deterministic breaker jitter and
   abandoned probes, deadline admission end to end (the shard observes
   a strictly smaller budget than the client sent, and a forward to a
   shard that never answers ends when the budget does), the
   drain/undrain lifecycle on both the server and the router, active
   health probing with auto-eject and rejoin, linear-time scatter
   reassembly, bounded health fan-out over a wedged shard, idle
   connections that hold no service, the connection cap and the stop
   sweep, shard connections shared across one-shot clients, and the
   stale-connection retry.
   When MORPHEUS_BIN points at the CLI binary, a transport-fault storm
   over real shard processes (SIGKILL mid-storm, restart, rejoin,
   drain with zero failures), the accept backoff of a server out of
   descriptors and CLI usage-error checks ride along; without it those
   cases skip. *)

open La
open Sparse
open Morpheus
open Morpheus_serve
open Morpheus_cluster
open Test_support.Util

let qc = QCheck_alcotest.to_alcotest

let () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let wire addr req = Client.with_client ~socket:addr (fun c -> Client.call c req)

(* ---- endpoint strings: every malformed form is a structured error ---- *)

let test_endpoint_edges () =
  let ok s expected =
    match Endpoint.of_string_result s with
    | Ok e -> Alcotest.(check string) s expected (Endpoint.to_string e)
    | Error msg -> Alcotest.failf "%S rejected: %s" s msg
  in
  let bad s =
    match Endpoint.of_string_result s with
    | Error msg ->
      if not (contains ~needle:"bad endpoint" msg || contains ~needle:"empty" msg)
      then Alcotest.failf "%S: unhelpful error %S" s msg
    | Ok e ->
      Alcotest.failf "%S accepted as %s" s (Endpoint.to_string e)
  in
  bad "" ;
  bad "unix:" ;
  bad "tcp:" ;
  bad "tcp:nohost" ;
  bad "tcp::80" ;
  bad "tcp:host:" ;
  bad "tcp:host:notaport" ;
  bad "tcp:host:99999" ;
  bad "tcp:host:-1" ;
  bad ":9000" ;
  bad "tcp:[::1]" ;
  bad "tcp:[::1]:" ;
  bad "tcp:[::1]:nope" ;
  (* IPv6 literals use the bracket form, with and without the prefix *)
  (match Endpoint.of_string_result "tcp:[::1]:8080" with
  | Ok (Endpoint.Tcp ("::1", 8080)) -> ()
  | Ok e -> Alcotest.failf "tcp:[::1]:8080 parsed as %s" (Endpoint.to_string e)
  | Error msg -> Alcotest.failf "tcp:[::1]:8080 rejected: %s" msg) ;
  ok "[::1]:8080" "[::1]:8080" ;
  ok "tcp:[::1]:8080" "[::1]:8080" ;
  (* the existing contract is untouched *)
  ok "127.0.0.1:9000" "127.0.0.1:9000" ;
  ok "tcp:localhost:80" "localhost:80" ;
  ok "unix:/tmp/x:1" "/tmp/x:1" ;
  ok "/tmp/odd:name" "/tmp/odd:name" ;
  ok "/tmp/sock" "/tmp/sock" ;
  (* of_string raises where of_string_result errors, with the reason *)
  match Endpoint.of_string "tcp:" with
  | exception Invalid_argument msg ->
    if not (contains ~needle:"bad endpoint" msg) then
      Alcotest.failf "of_string error lost the reason: %S" msg
  | _ -> Alcotest.fail "of_string accepted tcp:"

(* ---- codec fuzz: the parser and decoder are total ---- *)

let qcheck_json_total =
  QCheck.Test.make ~name:"Json.of_string is total on garbage" ~count:1000
    QCheck.(string_of_size (QCheck.Gen.int_range 0 200))
    (fun s ->
      match Json.of_string s with Ok _ -> true | Error _ -> true)

(* Random JSON values: decoding any shape must return a result, never
   raise. *)
let json_gen =
  let open QCheck.Gen in
  sized
  @@ fix (fun self n ->
         let leaf =
           oneof
             [ return Json.Null;
               map (fun b -> Json.Bool b) bool;
               map (fun i -> Json.Num (float_of_int i /. 8.0)) (int_range (-8000) 8000);
               map (fun s -> Json.Str s) (string_size (int_range 0 12))
             ]
         in
         if n <= 0 then leaf
         else
           frequency
             [ (2, leaf);
               ( 1,
                 map (fun l -> Json.Arr l) (list_size (int_range 0 4) (self (n / 2)))
               );
               ( 1,
                 map
                   (fun kvs -> Json.Obj kvs)
                   (list_size (int_range 0 4)
                      (pair
                         (oneofl
                            [ "op"; "model"; "rows"; "dataset"; "ids"; "where";
                              "deadline_ms"; "shard"; "x" ])
                         (self (n / 2)))) )
             ])

let qcheck_request_total =
  QCheck.Test.make ~name:"request_of_json is total on any shape" ~count:500
    (QCheck.make json_gen)
    (fun j ->
      match Protocol.request_of_json j with Ok _ -> true | Error _ -> true)

let qcheck_truncated_frames =
  QCheck.Test.make ~name:"truncated frames parse to errors, never raise"
    ~count:300
    QCheck.(pair (int_range 0 80) (int_range 0 1000))
    (fun (cut, seed) ->
      let reqs =
        [ Protocol.Ping;
          Protocol.Membership;
          Protocol.Drain (Some "s0");
          Protocol.Score
            { model = "m";
              target = Protocol.Rows [| [| 0.5; Float.of_int seed |] |];
              deadline_ms = Some 12.5
            }
        ]
      in
      let line =
        Json.to_string
          (Protocol.request_to_json (List.nth reqs (seed mod List.length reqs)))
      in
      let cut = min cut (String.length line) in
      match Json.of_string (String.sub line 0 cut) with
      | Ok j -> ( match Protocol.request_of_json j with Ok _ | Error _ -> true)
      | Error _ -> true)

(* ---- the line framer: any split, any packing, the cap, a torn tail ---- *)

(* A byte source over [s] whose successive reads return at most the
   next of [cuts] bytes, cycling. *)
let source s cuts =
  let pos = ref 0 and k = ref 0 in
  fun buf off len ->
    let cut = List.nth cuts (!k mod List.length cuts) in
    let n = min len (min cut (String.length s - !pos)) in
    incr k ;
    Bytes.blit_string s !pos buf off n ;
    pos := !pos + n ;
    n

(* Frames of random lengths around a random cap (0..cap+1, so both
   sides of the boundary come up often), fed through reads of random
   sizes that split frames and pack several into one read, followed by
   an unterminated tail. Expected: every frame back unchanged up to
   the first one over the cap, which is Oversized; otherwise the tail
   is dropped at EOF (a torn write), or Oversized if it alone exceeds
   the cap. *)
let framer_case_gen =
  let open QCheck.Gen in
  int_range 1 48 >>= fun cap ->
  let line =
    oneof [ int_range 0 cap; return cap; return (cap + 1) ] >>= fun n ->
    string_size ~gen:(char_range 'a' 'z') (return n)
  in
  quad (return cap) (list_size (int_range 0 12) line)
    (string_size ~gen:(char_range 'a' 'z') (int_range 0 (cap + 2)))
    (list_size (int_range 1 8) (int_range 1 70))

let qcheck_framer =
  QCheck.Test.make ~name:"line framer: splits, packing, cap, torn tail"
    ~count:500
    (QCheck.make
       ~print:(fun (cap, frames, tail, cuts) ->
         Printf.sprintf "cap=%d frames=[%s] tail=%S cuts=[%s]" cap
           (String.concat ";" (List.map (Printf.sprintf "%S") frames))
           tail
           (String.concat ";" (List.map string_of_int cuts)))
       framer_case_gen)
    (fun (cap, frames, tail, cuts) ->
      let wire = String.concat "" (List.map (fun f -> f ^ "\n") frames) ^ tail in
      let r = Listener.lines (source wire cuts) in
      let rec expect = function
        | f :: rest when String.length f <= cap ->
          Listener.next_frame ~max:cap r = Listener.Frame f && expect rest
        | _ :: _ -> Listener.next_frame ~max:cap r = Listener.Oversized
        | [] ->
          Listener.next_frame ~max:cap r
          = if String.length tail > cap then Listener.Oversized else Listener.Eof
      in
      expect frames)

(* The listener's real cap, and the client's uncapped read. *)
let test_framer_max_frame () =
  let feed s = Listener.lines (source s [ 4096 ]) in
  let at = String.make Listener.max_frame 'x' in
  let over = at ^ "x" in
  (match Listener.next_frame ~max:Listener.max_frame (feed (at ^ "\n")) with
  | Listener.Frame f -> Alcotest.(check int) "max_frame accepted" Listener.max_frame (String.length f)
  | _ -> Alcotest.fail "a frame of exactly max_frame bytes was refused") ;
  (match Listener.next_frame ~max:Listener.max_frame (feed (over ^ "\n")) with
  | Listener.Oversized -> ()
  | _ -> Alcotest.fail "a frame of max_frame + 1 bytes was accepted") ;
  match Listener.next_frame (feed (over ^ "\n")) with
  | Listener.Frame f -> Alcotest.(check int) "uncapped" (Listener.max_frame + 1) (String.length f)
  | _ -> Alcotest.fail "the uncapped framer refused a long line"

(* ---- live-socket fuzz: garbage never kills or wedges an endpoint ---- *)

let start_plain_server () =
  let reg = tmpdir "control_empty_reg" in
  Server.start
    { (Server.default_config ~registry:reg ~socket:"127.0.0.1:0") with
      Server.max_wait = 1e-3
    }

let send_raw fd s =
  let b = Bytes.of_string s in
  let off = ref 0 in
  (try
     while !off < Bytes.length b do
       off := !off + Unix.write fd b !off (Bytes.length b - !off)
     done
   with Unix.Unix_error ((EPIPE | ECONNRESET), _, _) -> ())

let read_response fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    if String.contains (Buffer.contents buf) '\n' then
      Some (List.hd (String.split_on_char '\n' (Buffer.contents buf)))
    else begin
      match Unix.select [ fd ] [] [] 5.0 with
      | [], _, _ -> None
      | _ -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> if Buffer.length buf = 0 then None else Some (Buffer.contents buf)
        | n ->
          Buffer.add_subbytes buf chunk 0 n ;
          go ()
        | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> None)
    end
  in
  go ()

(* An endpoint under test: its address, its stats payload, and how to
   stop it. *)
type endpoint = { addr : string; stats : unit -> Json.t; close : unit -> unit }

let plain_server () =
  let server = start_plain_server () in
  { addr = Endpoint.to_string (Server.endpoint server);
    stats = (fun () -> Server.stats server);
    close = (fun () -> Server.stop server)
  }

let test_wire_fuzz (start : unit -> endpoint) () =
  let ep = start () in
  Fun.protect ~finally:ep.close
  @@ fun () ->
  let addr = ep.addr in
  let garbage =
    [ "not json at all";
      "{\"op\":\"score\"";  (* truncated object *)
      "{\"op\":42}";
      "{\"op\":\"nosuchop\"}";
      "[1,2,3]";
      "\"just a string\"";
      "{}";
      "{\"op\":\"score\",\"model\":3,\"rows\":\"x\"}";
      "\x00\x01\xfe binary \xff";
      String.make 600 '{'
    ]
  in
  List.iter
    (fun line ->
      let fd = Endpoint.connect (Endpoint.of_string addr) in
      Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ())
      @@ fun () ->
      send_raw fd (line ^ "\n") ;
      match read_response fd with
      | None -> Alcotest.failf "no response to %S" line
      | Some resp -> (
        match Json.of_string resp with
        | Error e -> Alcotest.failf "unparseable response %S to %S: %s" resp line e
        | Ok j -> (
          match Option.bind (Json.member "ok" j) Json.to_bool with
          | Some false -> ()
          | _ -> Alcotest.failf "garbage %S was not refused: %s" line resp)))
    garbage ;
  (* an oversized frame gets a structured refusal and a hangup, not an
     unbounded buffer (the write may also die early with RST — both
     are clean outcomes) *)
  let fd = Endpoint.connect (Endpoint.of_string addr) in
  Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ())
  (fun () ->
    send_raw fd (String.make (2 * 1024 * 1024) 'a' ^ "\n") ;
    match read_response fd with
    | Some resp when contains ~needle:"frame too large" resp -> ()
    | Some resp when contains ~needle:"bad_request" resp -> ()
    | Some resp -> Alcotest.failf "oversized frame got %S" resp
    | None -> () (* connection reset before the refusal drained: fine *)) ;
  (* the endpoint is still healthy and the refusals were counted *)
  (match wire addr Protocol.Ping with
  | Ok _ -> ()
  | Error (c, m) -> Alcotest.failf "ping after fuzz: [%s] %s" c m) ;
  let stats = Json.to_string (ep.stats ()) in
  if not (contains ~needle:"bad_request" stats) then
    Alcotest.fail "refusals were not counted in stats"

(* ---- breaker: seeded jitter spreads reopen instants ---- *)

let test_breaker_jitter_spread () =
  let n = 8 in
  let clocks = Array.make n 0.0 in
  let breakers =
    Array.init n (fun i ->
        Breaker.create ~threshold:1 ~cooldown:1.0 ~jitter:0.5 ~seed:i
          ~now:(fun () -> clocks.(i))
          ())
  in
  Array.iter Breaker.failure breakers ;
  Array.iter
    (fun b -> Alcotest.(check bool) "opened" false (Breaker.allow b))
    breakers ;
  let first_allow =
    Array.mapi
      (fun i b ->
        let t = ref 1.0 in
        while
          clocks.(i) <- !t ;
          Breaker.state b <> Breaker.Half_open && !t < 2.0
        do
          t := !t +. 0.005
        done ;
        !t)
      breakers
  in
  Array.iter
    (fun t ->
      if t < 1.0 || t > 1.51 then
        Alcotest.failf "reopen at %.3f outside [cooldown, cooldown*1.5]" t)
    first_allow ;
  let distinct =
    List.length (List.sort_uniq compare (Array.to_list first_allow))
  in
  if distinct < 3 then
    Alcotest.failf "only %d distinct reopen instants across %d seeds" distinct n ;
  let lo = Array.fold_left min first_allow.(0) first_allow in
  let hi = Array.fold_left max first_allow.(0) first_allow in
  if hi -. lo < 0.05 then
    Alcotest.failf "reopen spread %.3fs is lockstep" (hi -. lo) ;
  (* determinism: the same seed replays the same jitter *)
  let clock = ref 0.0 in
  let same () =
    let b =
      Breaker.create ~threshold:1 ~cooldown:1.0 ~jitter:0.5 ~seed:3
        ~now:(fun () -> !clock)
        ()
    in
    clock := 0.0 ;
    Breaker.failure b ;
    let t = ref 1.0 in
    while
      clock := !t ;
      Breaker.state b <> Breaker.Half_open && !t < 2.0
    do
      t := !t +. 0.005
    done ;
    !t
  in
  Alcotest.(check (float 1e-9)) "seeded jitter is deterministic" (same ()) (same ())

(* A half-open probe whose caller gave up is handed back: the next
   caller probes instead of the circuit staying open for good. *)
let test_breaker_abandon () =
  let clock = ref 0.0 in
  let b = Breaker.create ~threshold:1 ~cooldown:1.0 ~now:(fun () -> !clock) () in
  Breaker.failure b ;
  clock := 2.0 ;
  Alcotest.(check bool) "the probe is let through" true (Breaker.allow b) ;
  Alcotest.(check bool) "one probe at a time" false (Breaker.allow b) ;
  Breaker.abandon b ;
  Alcotest.(check bool) "an abandoned probe is handed back" true (Breaker.allow b)

(* ---- batcher: Expired at dequeue when the budget cannot be met ---- *)

let test_batcher_expired () =
  let metrics = Metrics.create () in
  let b =
    Batcher.create ~max_batch:4 ~max_wait:0.0 ~queue_bound:16 ~metrics
      ~size:(fun _ -> 1)
      ~exec:(fun () payloads ->
        Thread.delay 0.05 ;
        Array.map (fun _ -> Ok ()) payloads)
      ()
  in
  Fun.protect ~finally:(fun () -> Batcher.stop b)
  @@ fun () ->
  (* prime the execution-time ewma with one normal batch *)
  (match Batcher.submit b () () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "prime batch failed: %s" (Batcher.error_code e)) ;
  (* a deadline beyond now but inside the known execution time: the
     batcher refuses at dequeue rather than answering late *)
  (match Batcher.submit b ~deadline:(Unix.gettimeofday () +. 0.01) () () with
  | Error Batcher.Expired -> ()
  | Error e -> Alcotest.failf "wrong error %s" (Batcher.error_code e)
  | Ok () -> Alcotest.fail "a request that could not meet its deadline ran") ;
  (* an already-passed deadline still reports Deadline_exceeded *)
  (match Batcher.submit b ~deadline:(Unix.gettimeofday () -. 0.001) () () with
  | Error Batcher.Deadline_exceeded -> ()
  | Error e -> Alcotest.failf "wrong error %s" (Batcher.error_code e)
  | Ok () -> Alcotest.fail "an expired request ran") ;
  (* a roomy deadline still runs *)
  match Batcher.submit b ~deadline:(Unix.gettimeofday () +. 5.0) () () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "roomy deadline failed: %s" (Batcher.error_code e)

(* ---- fake shards: scripted TCP peers for control-plane tests ---- *)

type fake = {
  fk_addr : string;
  fk_stop : bool ref;
  fk_listen : Unix.file_descr;
  mutable fk_threads : Thread.t list;
  fk_deadlines : float Queue.t;
  fk_models : string Queue.t;  (* the model named by each score *)
  fk_q : Mutex.t;
}

(* A minimal shard: answers health immediately, score after
   [score_delay], recording each forwarded deadline_ms and model name;
   [resolve] maps the requested model to the id it answers with. With
   [echo] each prediction is its row id, so a reassembled scatter can
   be checked position by position; with [one_shot] the connection is
   closed after every reply. Good enough to stand on the far side of
   the router — the real server's behavior is covered by
   @clustercheck. *)
let start_fake ?(port = 0) ?(score_delay = 0.0) ?(status = "ok")
    ?(resolve = fun _ -> "m@v1") ?(echo = false) ?(one_shot = false) () =
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true ;
  Unix.bind listen_fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) ;
  Unix.listen listen_fd 16 ;
  let port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> Alcotest.fail "fake shard: no port"
  in
  let f =
    { fk_addr = Printf.sprintf "127.0.0.1:%d" port;
      fk_stop = ref false;
      fk_listen = listen_fd;
      fk_threads = [];
      fk_deadlines = Queue.create ();
      fk_models = Queue.create ();
      fk_q = Mutex.create ()
    }
  in
  let handle fd =
    let buf = Buffer.create 256 in
    let chunk = Bytes.create 4096 in
    let rec serve () =
      let contents = Buffer.contents buf in
      match String.index_opt contents '\n' with
      | Some i ->
        let line = String.sub contents 0 i in
        Buffer.clear buf ;
        Buffer.add_string buf
          (String.sub contents (i + 1) (String.length contents - i - 1)) ;
        let j = Result.value ~default:Json.Null (Json.of_string line) in
        let op =
          Option.value ~default:"" (Option.bind (Json.member "op" j) Json.to_str)
        in
        let reply =
          match op with
          | "health" ->
            Json.Obj [ ("ok", Json.Bool true); ("status", Json.Str status) ]
          | "score" ->
            let model =
              Option.value ~default:"" (Option.bind (Json.member "model" j) Json.to_str)
            in
            Mutex.lock f.fk_q ;
            Queue.push model f.fk_models ;
            Option.iter
              (fun d -> Queue.push d f.fk_deadlines)
              (Option.bind (Json.member "deadline_ms" j) Json.to_float) ;
            Mutex.unlock f.fk_q ;
            if score_delay > 0.0 then Thread.delay score_delay ;
            let listed k = Option.bind (Json.member k j) Json.to_list in
            let predictions =
              match (listed "ids", listed "rows") with
              | Some ids, _ when echo -> ids
              | Some l, _ | None, Some l -> List.map (fun _ -> Json.Num 0.125) l
              | None, None -> [ Json.Num 0.125 ]
            in
            Json.Obj
              [ ("ok", Json.Bool true);
                ("model", Json.Str (resolve model));
                ("predictions", Json.Arr predictions)
              ]
          | _ ->
            Json.Obj
              [ ("ok", Json.Bool false);
                ("code", Json.Str "bad_request");
                ("message", Json.Str "fake shard")
              ]
        in
        send_raw fd (Json.to_string reply ^ "\n") ;
        if not one_shot then serve ()
      | None -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes buf chunk 0 n ;
          serve ()
        | exception Unix.Unix_error _ -> ())
    in
    (try serve () with _ -> ()) ;
    try Unix.close fd with _ -> ()
  in
  let acceptor () =
    let rec loop () =
      if !(f.fk_stop) then ()
      else begin
        match Unix.select [ listen_fd ] [] [] 0.1 with
        | [], _, _ -> loop ()
        | _ -> (
          match Unix.accept ~cloexec:true listen_fd with
          | fd, _ ->
            f.fk_threads <- Thread.create handle fd :: f.fk_threads ;
            loop ()
          | exception Unix.Unix_error _ -> ())
        | exception Unix.Unix_error _ -> ()
      end
    in
    loop ()
  in
  f.fk_threads <- [ Thread.create acceptor () ] ;
  f

let stop_fake f =
  f.fk_stop := true ;
  (try Unix.close f.fk_listen with _ -> ()) ;
  List.iter (fun t -> try Thread.join t with _ -> ()) f.fk_threads

let fake_log f q =
  Mutex.lock f.fk_q ;
  let l = List.of_seq (Queue.to_seq q) in
  Mutex.unlock f.fk_q ;
  l

let fake_deadlines f = fake_log f f.fk_deadlines
let fake_models f = fake_log f f.fk_models

let router_over ?(probe_interval = 0.05) shards =
  Router.start
    { (Router.default_config ~listen:"127.0.0.1:0" ~shards) with
      Router.block = 4;
      breaker_threshold = 3;
      breaker_cooldown = 0.2;
      probe_interval;
      probe_timeout = 0.5;
      eject_after = 2;
      rejoin_after = 2
    }

let membership_of addr =
  match wire addr Protocol.Membership with
  | Error (c, m) -> Alcotest.failf "membership: [%s] %s" c m
  | Ok j -> j

let member_field j shard k =
  Option.bind (Json.member "members" j) (Json.member shard)
  |> Fun.flip Option.bind (Json.member k)

let member_state j shard =
  Option.value ~default:"?" (Option.bind (member_field j shard "state") Json.to_str)

let member_in_ring j shard =
  Option.value ~default:true
    (Option.bind (member_field j shard "in_ring") Json.to_bool)

let score_rows_req ?deadline_ms () =
  Protocol.Score
    { model = "m"; target = Protocol.Rows [| [| 0.5; 0.25 |] |]; deadline_ms }

(* The router in front of one fake shard, as a fuzz target. *)
let routed_fake () =
  let shard = start_fake () in
  let router = router_over [ ("s0", shard.fk_addr) ] in
  { addr = Endpoint.to_string (Router.endpoint router);
    stats = (fun () -> Router.stats router);
    close =
      (fun () ->
        Router.stop router ;
        stop_fake shard)
  }

(* ---- scatter-gather pins one model version across its pieces ---- *)

let test_scatter_pins_version () =
  (* two shards that resolve bare "m" to different versions, as around
     a publish; a pinned id is answered as named *)
  let resolver latest = function "m" -> latest | id -> id in
  let a = start_fake ~resolve:(resolver "m@v1") () in
  let b = start_fake ~resolve:(resolver "m@v2") () in
  Fun.protect ~finally:(fun () -> stop_fake a ; stop_fake b)
  @@ fun () ->
  let router = router_over ~probe_interval:0.0 [ ("s0", a.fk_addr); ("s1", b.fk_addr) ] in
  Fun.protect ~finally:(fun () -> Router.stop router)
  @@ fun () ->
  let addr = Endpoint.to_string (Router.endpoint router) in
  (* 64 ids in blocks of 4 land on both shards *)
  let ids = Array.init 64 Fun.id in
  let named =
    match
      wire addr
        (Protocol.Score
           { model = "m"; target = Protocol.Dataset { dataset = "/ds"; ids }; deadline_ms = None })
    with
    | Ok j -> Option.value ~default:"" (Option.bind (Json.member "model" j) Json.to_str)
    | Error (c, m) -> Alcotest.failf "scattered score: [%s] %s" c m
  in
  (* whichever shard answered first resolved bare "m"; the other must
     have been sent that resolved id *)
  let first, second =
    match (fake_models a, fake_models b) with
    | [ "m" ], [ pinned ] -> ("m@v1", pinned)
    | [ pinned ], [ "m" ] -> ("m@v2", pinned)
    | la, lb ->
      Alcotest.failf "expected one piece per shard, saw [%s] and [%s]"
        (String.concat "," la) (String.concat "," lb)
  in
  Alcotest.(check string) "the second piece names the version the first resolved"
    first second ;
  Alcotest.(check string) "the response names that one version" first named

(* ---- deadline propagation: the shard sees a smaller budget ---- *)

let test_deadline_propagation () =
  let shard = start_fake () in
  Fun.protect ~finally:(fun () -> stop_fake shard)
  @@ fun () ->
  let router = router_over [ ("s0", shard.fk_addr) ] in
  Fun.protect ~finally:(fun () -> Router.stop router)
  @@ fun () ->
  let addr = Endpoint.to_string (Router.endpoint router) in
  (* an armed delay on admission makes the queue time deterministic:
     the forwarded budget must be strictly below the client's 500ms *)
  Fault.with_config "router.admit=1.0:delay5" (fun () ->
      match wire addr (score_rows_req ~deadline_ms:500.0 ()) with
      | Error (c, m) -> Alcotest.failf "routed score: [%s] %s" c m
      | Ok _ -> ()) ;
  (match fake_deadlines shard with
  | [ d ] ->
    if d >= 500.0 then
      Alcotest.failf "shard saw %.3fms, not a decremented budget" d ;
    if d <= 0.0 then Alcotest.failf "shard saw a non-positive budget %.3f" d ;
    if d > 496.0 then
      Alcotest.failf "queue time was not deducted (shard saw %.3fms)" d
  | l -> Alcotest.failf "shard saw %d forwarded deadlines" (List.length l)) ;
  (* a budget smaller than the armed queue delay is shed with expired,
     and the shard never sees it *)
  Fault.with_config "router.admit=1.0:delay10" (fun () ->
      match wire addr (score_rows_req ~deadline_ms:3.0 ()) with
      | Error ("expired", _) -> ()
      | Ok _ -> Alcotest.fail "an overdrawn request was answered"
      | Error (c, m) -> Alcotest.failf "wrong error [%s] %s" c m) ;
  Alcotest.(check int) "the expired request was never forwarded" 1
    (List.length (fake_deadlines shard)) ;
  (* requests without deadlines pass untouched *)
  match wire addr (score_rows_req ()) with
  | Ok _ -> ()
  | Error (c, m) -> Alcotest.failf "no-deadline score: [%s] %s" c m

(* ---- router drain lifecycle: zero failed requests ---- *)

let test_router_drain () =
  let a = start_fake () and b = start_fake () in
  Fun.protect ~finally:(fun () -> stop_fake a ; stop_fake b)
  @@ fun () ->
  let router = router_over [ ("s0", a.fk_addr); ("s1", b.fk_addr) ] in
  Fun.protect ~finally:(fun () -> Router.stop router)
  @@ fun () ->
  let addr = Endpoint.to_string (Router.endpoint router) in
  (* drain wants a shard name at the router *)
  (match wire addr (Protocol.Drain None) with
  | Error ("bad_request", _) -> ()
  | r -> Alcotest.failf "nameless drain: %s" (match r with Ok _ -> "ok" | Error (c, _) -> c)) ;
  (match wire addr (Protocol.Drain (Some "ghost")) with
  | Error ("bad_request", _) -> ()
  | _ -> Alcotest.fail "unknown shard drained") ;
  (* drain s0: it leaves the ring, traffic keeps succeeding *)
  (match wire addr (Protocol.Drain (Some "s0")) with
  | Ok _ -> ()
  | Error (c, m) -> Alcotest.failf "drain: [%s] %s" c m) ;
  let j = membership_of addr in
  Alcotest.(check string) "s0 draining" "draining" (member_state j "s0") ;
  Alcotest.(check bool) "s0 out of the ring" false (member_in_ring j "s0") ;
  Alcotest.(check bool) "s1 still in" true (member_in_ring j "s1") ;
  for i = 1 to 10 do
    match wire addr (score_rows_req ()) with
    | Ok _ -> ()
    | Error (c, m) -> Alcotest.failf "request %d failed during drain: [%s] %s" i c m
  done ;
  (* the prober must not auto-rejoin an operator drain *)
  Thread.delay 0.3 ;
  Alcotest.(check string) "operator drain is sticky" "draining"
    (member_state (membership_of addr) "s0") ;
  (* the last in-ring shard refuses to drain *)
  (match wire addr (Protocol.Drain (Some "s1")) with
  | Error ("rejected", _) -> ()
  | _ -> Alcotest.fail "drained the last in-ring shard") ;
  (* undrain restores *)
  (match wire addr (Protocol.Undrain (Some "s0")) with
  | Ok _ -> ()
  | Error (c, m) -> Alcotest.failf "undrain: [%s] %s" c m) ;
  let j = membership_of addr in
  Alcotest.(check string) "s0 active again" "active" (member_state j "s0") ;
  Alcotest.(check bool) "s0 back in the ring" true (member_in_ring j "s0")

(* ---- prober: eject on death, rejoin on recovery ---- *)

let test_probe_eject_rejoin () =
  let a = start_fake () and b = start_fake () in
  let b_port = int_of_string (List.nth (String.split_on_char ':' b.fk_addr) 1) in
  Fun.protect ~finally:(fun () -> stop_fake a)
  @@ fun () ->
  let router = router_over [ ("s0", a.fk_addr); ("s1", b.fk_addr) ] in
  Fun.protect ~finally:(fun () -> Router.stop router)
  @@ fun () ->
  let addr = Endpoint.to_string (Router.endpoint router) in
  await ~what:"both shards active" (fun () ->
      let j = membership_of addr in
      member_state j "s0" = "active" && member_state j "s1" = "active") ;
  (* kill s1: consecutive probe failures eject it *)
  stop_fake b ;
  await ~what:"s1 ejected" (fun () ->
      let j = membership_of addr in
      member_state j "s1" = "ejected" && not (member_in_ring j "s1")) ;
  (* traffic keeps flowing on the survivor *)
  for _ = 1 to 5 do
    match wire addr (score_rows_req ()) with
    | Ok _ -> ()
    | Error (c, m) -> Alcotest.failf "score after eject: [%s] %s" c m
  done ;
  (* the suspicion score reflects the failures *)
  let susp =
    Option.value ~default:0.0
      (Option.bind (member_field (membership_of addr) "s1" "suspicion") Json.to_float)
  in
  if susp < 1.0 then Alcotest.failf "ejected shard suspicion %.2f too low" susp ;
  (* resurrect s1 on the same port: sustained healthy probes rejoin it
     with no operator action *)
  let revived = start_fake ~port:b_port () in
  Fun.protect ~finally:(fun () -> stop_fake revived)
  @@ fun () ->
  await ~what:"s1 rejoined" (fun () ->
      let j = membership_of addr in
      member_state j "s1" = "active" && member_in_ring j "s1")

(* ---- server drain: health flips, queue finishes, auto-stop ---- *)

let test_server_drain () =
  let server = start_plain_server () in
  let addr = Endpoint.to_string (Server.endpoint server) in
  let finally () = Server.stop server in
  Fun.protect ~finally
  @@ fun () ->
  (* drain over the wire flips health to draining *)
  (match wire addr (Protocol.Drain None) with
  | Ok j ->
    Alcotest.(check (option bool)) "drain acked" (Some true)
      (Option.bind (Json.member "draining" j) Json.to_bool)
  | Error (c, m) -> Alcotest.failf "drain: [%s] %s" c m) ;
  (match wire addr Protocol.Health with
  | Ok j ->
    Alcotest.(check (option string)) "health says draining" (Some "draining")
      (Option.bind (Json.member "status" j) Json.to_str)
  | Error (c, m) -> Alcotest.failf "health: [%s] %s" c m) ;
  Alcotest.(check bool) "is_draining" true (Server.is_draining server) ;
  (* undrain within the grace window cancels the stop *)
  (match wire addr (Protocol.Undrain None) with
  | Ok _ -> ()
  | Error (c, m) -> Alcotest.failf "undrain: [%s] %s" c m) ;
  Thread.delay 0.4 ;
  (match wire addr Protocol.Ping with
  | Ok _ -> ()
  | Error (c, m) ->
    Alcotest.failf "server stopped despite the undrain: [%s] %s" c m) ;
  (match wire addr Protocol.Health with
  | Ok j ->
    Alcotest.(check (option string)) "health recovered" (Some "ok")
      (Option.bind (Json.member "status" j) Json.to_str)
  | Error (c, m) -> Alcotest.failf "health: [%s] %s" c m) ;
  (* drain again and let it complete: the server stops on its own.
     After the auto-stop the listen socket lingers until Server.stop,
     so probe with a select timeout — an accepted-but-unserved ping
     would otherwise block forever. *)
  (match wire addr (Protocol.Drain None) with
  | Ok _ -> ()
  | Error (c, m) -> Alcotest.failf "second drain: [%s] %s" c m) ;
  let gone () =
    match Endpoint.connect (Endpoint.of_string addr) with
    | exception Unix.Unix_error _ -> true
    | fd ->
      Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ())
      @@ fun () ->
      send_raw fd "{\"op\":\"ping\"}\n" ;
      (match Unix.select [ fd ] [] [] 0.25 with
      | [], _, _ -> true (* accepted, but nobody is serving anymore *)
      | _ -> (
        match Unix.read fd (Bytes.create 64) 0 64 with
        | 0 -> true
        | _ -> false
        | exception Unix.Unix_error _ -> true))
  in
  await ~timeout:5.0 ~what:"drained server to stop" gone

(* ---- scatter reassembly is linear in the id count ---- *)

let test_scatter_linear () =
  let a = start_fake ~echo:true () and b = start_fake ~echo:true () in
  Fun.protect ~finally:(fun () -> stop_fake a ; stop_fake b)
  @@ fun () ->
  let over shards = router_over ~probe_interval:0.0 shards in
  let whole = over [ ("s0", a.fk_addr) ] in
  let split = over [ ("s0", a.fk_addr); ("s1", b.fk_addr) ] in
  Fun.protect ~finally:(fun () -> Router.stop whole ; Router.stop split)
  @@ fun () ->
  (* ~590 KB of frame; blocks of 4 alternate between the two owners,
     so each piece holds about half the ids *)
  let ids = Array.init 100_000 Fun.id in
  let timed router =
    let t0 = Unix.gettimeofday () in
    (match
       Client.with_client
         ~socket:(Endpoint.to_string (Router.endpoint router))
         (fun c -> Client.score_ids c ~model:"m" ~dataset:"/ds" ids)
     with
    | Ok preds ->
      if preds <> Array.map float_of_int ids then
        Alcotest.fail "predictions are not the ids in request order"
    | Error (c, m) -> Alcotest.failf "score: [%s] %s" c m) ;
    Unix.gettimeofday () -. t0
  in
  let scattered router =
    let cluster = Option.get (Json.member "cluster" (Router.stats router)) in
    Option.bind (Json.member "scattered" cluster) Json.to_int
  in
  (* the same ids cross the same hops whether one owner serves them
     whole or two serve a piece each, so the whole request's time
     takes the host's speed out of the bound; quadratic reassembly
     adds seconds on top of it *)
  let t_whole = timed whole in
  let t_split = timed split in
  Alcotest.(check (option int)) "one owner: forwarded whole" (Some 0) (scattered whole) ;
  Alcotest.(check (option int)) "two owners: scattered" (Some 1) (scattered split) ;
  if t_split > (3.0 *. t_whole) +. 0.5 then
    Alcotest.failf "100k ids: scattered %.2fs, whole %.2fs" t_split t_whole

(* ---- health and stats stay bounded over a wedged shard ---- *)

(* One request whose reads and writes are bounded by [timeout]: a
   router that never answers fails the test instead of hanging it. *)
let wire_within ~timeout addr req =
  let slot = ref None in
  Fun.protect ~finally:(fun () -> Client.drop slot)
  @@ fun () -> Client.call_kept ~timeout ~socket:addr slot req

(* A loopback listener that never accepts: the kernel completes up to
   [backlog] + 1 handshakes into its queue, and nothing ever answers. *)
let never_accepting ~backlog =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0)) ;
  Unix.listen fd backlog ;
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, p) -> (fd, p)
  | _ -> Alcotest.fail "wedged listener: no port"

(* [f router_addr] with a router over the wedged listener (as s0) and a
   healthy fake (s1). Closing the listener first resets the
   connections queued on it, so a router thread still waiting on one
   cannot hold up the stop. *)
let with_wedged_router ~backlog ~probe_interval f =
  let wedged, port = never_accepting ~backlog in
  let good = start_fake () in
  Fun.protect ~finally:(fun () -> stop_fake good)
  @@ fun () ->
  let router =
    router_over ~probe_interval
      [ ("s0", Printf.sprintf "127.0.0.1:%d" port); ("s1", good.fk_addr) ]
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close wedged with Unix.Unix_error _ -> ()) ;
      Router.stop router)
  @@ fun () -> f port (Endpoint.to_string (Router.endpoint router))

let check_degraded addr =
  let str j k = Option.bind (Json.member k j) Json.to_str in
  (match wire_within ~timeout:3.0 addr Protocol.Health with
  | Ok j ->
    Alcotest.(check (option string)) "router health" (Some "degraded") (str j "status") ;
    let shards = Option.value ~default:Json.Null (Json.member "shards" j) in
    Alcotest.(check (option string)) "wedged shard" (Some "down") (str shards "s0") ;
    Alcotest.(check (option string)) "healthy shard" (Some "ok") (str shards "s1")
  | Error (c, m) -> Alcotest.failf "health over a wedged shard: [%s] %s" c m) ;
  match wire_within ~timeout:3.0 addr Protocol.Stats with
  | Ok _ -> ()
  | Error (c, m) -> Alcotest.failf "stats over a wedged shard: [%s] %s" c m

(* The shard's queue has room: connects succeed, reads time out. *)
let test_health_wedged_shard () =
  with_wedged_router ~backlog:16 ~probe_interval:0.0 (fun _ addr ->
      check_degraded addr)

(* The shard's queue is full: connects wait in SYN-SENT until their
   bound, so neither the prober nor health may stall on them. *)
let test_wedged_full_backlog () =
  with_wedged_router ~backlog:0 ~probe_interval:0.05 (fun port addr ->
      let fill () =
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.set_nonblock fd ;
        (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
         with Unix.Unix_error (Unix.EINPROGRESS, _, _) -> ()) ;
        fd
      in
      let fillers = List.init 2 (fun _ -> fill ()) in
      Fun.protect ~finally:(fun () -> List.iter Unix.close fillers)
      @@ fun () ->
      await ~what:"the wedged shard ejected" (fun () ->
          member_state (membership_of addr) "s0" = "ejected") ;
      let probes () =
        Option.bind (member_field (membership_of addr) "s1" "probes") Json.to_int
      in
      let seen = probes () in
      await ~what:"the healthy shard still probed" (fun () -> probes () > seen) ;
      check_degraded addr)

(* ---- a forward ends when its request's deadline does ---- *)

(* The owner accepts but never answers: a score with a 300 ms budget
   is answered deadline_exceeded once the budget is spent. It tries no
   successor, and the shard is charged no error: a client's short
   budget says nothing about the shard. The router counts each failed
   reply once, as an error and not as a request, scattered or not. *)
let test_deadline_bounds_forward () =
  let wedged, port = never_accepting ~backlog:16 in
  let good = start_fake () in
  Fun.protect ~finally:(fun () -> stop_fake good)
  @@ fun () ->
  let shards = [ ("s0", Printf.sprintf "127.0.0.1:%d" port); ("s1", good.fk_addr) ] in
  let router = router_over ~probe_interval:0.0 shards in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close wedged with Unix.Unix_error _ -> ()) ;
      Router.stop router)
  @@ fun () ->
  let ring = Ring.create (List.map fst shards) in
  let model =
    List.find (fun m -> Ring.lookup ring m = "s0") (List.init 64 (Printf.sprintf "m%d"))
  in
  let req =
    Protocol.Score
      { model; target = Protocol.Rows [| [| 0.5; 0.25 |] |]; deadline_ms = Some 300.0 }
  in
  let t0 = Unix.gettimeofday () in
  (match wire_within ~timeout:3.0 (Endpoint.to_string (Router.endpoint router)) req with
  | Error ("deadline_exceeded", _) -> ()
  | Ok _ -> Alcotest.fail "a shard that never answers answered"
  | Error (c, m) -> Alcotest.failf "wrong error [%s] %s" c m) ;
  let took = Unix.gettimeofday () -. t0 in
  if took > 1.0 then Alcotest.failf "answered after %.2fs on a 0.3s budget" took ;
  Alcotest.(check (list string)) "no successor tried" [] (fake_models good) ;
  let s0 k =
    Option.bind (Json.member "cluster" (Router.stats router)) (Json.member "shards")
    |> Fun.flip Option.bind (Json.member "s0")
    |> Fun.flip Option.bind (Json.member k)
  in
  Alcotest.(check (option int)) "no shard error" (Some 0) (Option.bind (s0 "errors") Json.to_int) ;
  Alcotest.(check (option string)) "breaker closed" (Some "closed")
    (Option.bind (s0 "breaker") Json.to_str) ;
  let metrics = Router.metrics router in
  Alcotest.(check int) "a failed reply is no request" 0 (Metrics.requests metrics) ;
  Alcotest.(check int) "one error" 1 (Metrics.errors metrics) ;
  (* 64 ids in blocks of 4 land on both shards *)
  let scattered =
    Protocol.Score
      { model;
        target = Protocol.Dataset { dataset = "/ds"; ids = Array.init 64 Fun.id };
        deadline_ms = Some 300.0
      }
  in
  (match wire_within ~timeout:3.0 (Endpoint.to_string (Router.endpoint router)) scattered with
  | Error ("deadline_exceeded", _) -> ()
  | Ok _ -> Alcotest.fail "a scatter over a shard that never answers answered"
  | Error (c, m) -> Alcotest.failf "scatter: wrong error [%s] %s" c m) ;
  Alcotest.(check (option int)) "the request was scattered" (Some 1)
    (Option.bind (Json.member "cluster" (Router.stats router)) (Json.member "scattered")
    |> Fun.flip Option.bind Json.to_int) ;
  Alcotest.(check int) "a failed scatter is one more error" 2 (Metrics.errors metrics) ;
  Alcotest.(check int) "still no request" 0 (Metrics.requests metrics)

(* ---- a stale kept-alive connection gets one fresh retry ---- *)

let test_stale_retry () =
  let shard = start_fake ~one_shot:true () in
  Fun.protect ~finally:(fun () -> stop_fake shard)
  @@ fun () ->
  let metrics = Metrics.create () in
  let slot = ref None in
  Fun.protect ~finally:(fun () -> Client.drop slot)
  @@ fun () ->
  for i = 1 to 2 do
    match Client.call_kept ~metrics ~socket:shard.fk_addr slot (score_rows_req ()) with
    | Ok _ -> ()
    | Error (c, m) -> Alcotest.failf "call %d: [%s] %s" i c m
  done ;
  (* the second call found the first connection closed under it *)
  Alcotest.(check int) "fresh connections" 2 (Metrics.conns_fresh metrics) ;
  Alcotest.(check int) "reused connections" 1 (Metrics.conns_reused metrics)

(* A reused connection whose call ran out its timeout is not retried:
   the peer stopped answering, and it would only be waited out twice. *)
let test_timeout_not_retried () =
  let shard = start_fake ~score_delay:0.5 () in
  Fun.protect ~finally:(fun () -> stop_fake shard)
  @@ fun () ->
  let metrics = Metrics.create () in
  let slot = ref None in
  Fun.protect ~finally:(fun () -> Client.drop slot)
  @@ fun () ->
  let call ?timeout req = Client.call_kept ~metrics ?timeout ~socket:shard.fk_addr slot req in
  (match call Protocol.Health with
  | Ok _ -> ()
  | Error (c, m) -> Alcotest.failf "health: [%s] %s" c m) ;
  (match call ~timeout:0.1 (score_rows_req ()) with
  | Error ("transport", _) -> ()
  | Ok _ -> Alcotest.fail "a 0.5 s score answered within 0.1 s"
  | Error (c, m) -> Alcotest.failf "score: [%s] %s" c m) ;
  Alcotest.(check int) "fresh connections" 1 (Metrics.conns_fresh metrics) ;
  Alcotest.(check int) "reused connections" 1 (Metrics.conns_reused metrics)

(* ---- listener: every connection has a thread of its own ---- *)

let connect addr = Endpoint.connect (Endpoint.of_string addr)
let close_all =
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())

(* Twice the old default of 4 handler threads sit idle, each holding a
   connection that sends nothing: a ninth connection is still answered
   at once. *)
let test_idle_connections (start : unit -> endpoint) () =
  let ep = start () in
  Fun.protect ~finally:ep.close
  @@ fun () ->
  let idle = List.init 8 (fun _ -> connect ep.addr) in
  Fun.protect ~finally:(fun () -> close_all idle)
  @@ fun () ->
  let slot = ref None in
  Fun.protect ~finally:(fun () -> Client.drop slot)
  @@ fun () ->
  List.iter
    (fun (what, req) ->
      let t0 = Unix.gettimeofday () in
      (match Client.call_kept ~timeout:1.0 ~socket:ep.addr slot req with
      | Ok _ -> ()
      | Error (c, m) ->
        Alcotest.failf "%s behind 8 idle connections: [%s] %s" what c m) ;
      let took = Unix.gettimeofday () -. t0 in
      if took > 1.0 then Alcotest.failf "%s answered after %.2fs" what took)
    [ ("health", Protocol.Health); ("ping", Protocol.Ping) ]

(* At [max_conns] open connections the next one is refused with
   [overloaded]; one closing makes room; and a stop ends the idle rest
   at once. *)
let test_connection_cap () =
  let server = start_plain_server () in
  let addr = Endpoint.to_string (Server.endpoint server) in
  let stopped = ref false in
  Fun.protect ~finally:(fun () -> if not !stopped then Server.stop server)
  @@ fun () ->
  let idle = ref (List.init Listener.max_conns (fun _ -> connect addr)) in
  Fun.protect ~finally:(fun () -> close_all !idle)
  @@ fun () ->
  (* the accept thread takes connections in order: every earlier one
     is admitted before this one *)
  let over = connect addr in
  let refusal =
    Fun.protect ~finally:(fun () -> Unix.close over) (fun () -> read_response over)
  in
  (match refusal with
  | Some resp when contains ~needle:"overloaded" resp -> ()
  | Some resp -> Alcotest.failf "connection over the cap got %S" resp
  | None -> Alcotest.fail "connection over the cap got no answer") ;
  (match !idle with
  | fd :: rest ->
    Unix.close fd ;
    idle := rest
  | [] -> ()) ;
  await ~timeout:2.0 ~what:"a health after one connection closed" (fun () ->
      match wire_within ~timeout:1.0 addr Protocol.Health with
      | Ok _ -> true
      | Error _ -> false) ;
  let t0 = Unix.gettimeofday () in
  Server.stop server ;
  stopped := true ;
  let took = Unix.gettimeofday () -. t0 in
  if took > 1.0 then
    Alcotest.failf "stop took %.2fs over %d idle connections" took
      (List.length !idle)

(* Shard connections follow forwards in flight, not client connections:
   one-shot clients arriving one after another share one. *)
let test_shared_shard_conns () =
  let shard = start_fake () in
  Fun.protect ~finally:(fun () -> stop_fake shard)
  @@ fun () ->
  let router = router_over ~probe_interval:0.0 [ ("s0", shard.fk_addr) ] in
  Fun.protect ~finally:(fun () -> Router.stop router)
  @@ fun () ->
  let addr = Endpoint.to_string (Router.endpoint router) in
  List.iter
    (fun req ->
      match Client.call_once ~socket:addr req with
      | Ok _ -> ()
      | Error (c, m) -> Alcotest.failf "one-shot call: [%s] %s" c m)
    (List.init 8 (fun _ -> Protocol.Health) @ [ Protocol.Stats ]) ;
  let metrics = Router.metrics router in
  Alcotest.(check int) "shard connections opened" 1
    (Metrics.conns_fresh metrics) ;
  Alcotest.(check int) "shard connections reused" 8
    (Metrics.conns_reused metrics)

(* ---- process-level control chaos (MORPHEUS_BIN) ---- *)

let make_data root =
  let g = Rng.of_int 4242 in
  let s = Dense.random ~rng:g 200 3 in
  let r = Dense.random ~rng:g 15 4 in
  let k = Indicator.random ~rng:g ~rows:200 ~cols:15 () in
  let t = Normalized.pkfk ~s:(Mat.of_dense s) ~k ~r:(Mat.of_dense r) in
  let d = snd (Normalized.dims t) in
  let artifact = Artifact.Logreg (Dense.random ~rng:g d 1) in
  let ds_dir = Filename.concat root "ds" in
  Io.save ~dir:ds_dir t ;
  let reg = Filename.concat root "reg" in
  let entry =
    Registry.save ~dir:reg ~name:"m" ~schema_hash:(Registry.schema_hash t)
      artifact
  in
  (t, artifact, ds_dir, reg, entry)

let spawn_shard bin ~reg ~port =
  let addr = Printf.sprintf "127.0.0.1:%d" port in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close devnull)
  @@ fun () ->
  let pid =
    Unix.create_process bin
      [| bin; "serve"; "--registry"; reg; "--listen"; addr; "--max-wait-ms"; "1";
         "--drain-on"; "SIGTERM"
      |]
      Unix.stdin devnull devnull
  in
  (pid, addr)

let await_shard_healthy addr =
  await ~what:(addr ^ " healthy") (fun () ->
      match Client.call_once ~socket:addr Protocol.Health with
      | Ok _ -> true
      | Error _ -> false
      | exception Unix.Unix_error _ -> false)

let test_control_chaos () =
  match Sys.getenv_opt "MORPHEUS_BIN" with
  | None | Some "" ->
    print_endline "control chaos: skipped (MORPHEUS_BIN not set)"
  | Some bin ->
    let root = tmpdir "control_chaos" in
    let t, artifact, ds_dir, reg, entry = make_data root in
    let ports = [ free_port (); free_port () ] in
    let procs = List.map (fun port -> (port, ref (spawn_shard bin ~reg ~port))) ports in
    let kill_all signal =
      List.iter (fun (_, p) -> try Unix.kill (fst !p) signal with _ -> ()) procs
    in
    Fun.protect
      ~finally:(fun () ->
        kill_all Sys.sigkill ;
        List.iter
          (fun (_, p) -> try ignore (Unix.waitpid [] (fst !p)) with _ -> ())
          procs)
    @@ fun () ->
    List.iter (fun (_, p) -> await_shard_healthy (snd !p)) procs ;
    let router =
      router_over ~probe_interval:0.05
        (List.mapi (fun i (_, p) -> (Printf.sprintf "s%d" i, snd !p)) procs)
    in
    Fun.protect ~finally:(fun () -> Router.stop router)
    @@ fun () ->
    let addr = Endpoint.to_string (Router.endpoint router) in
    let batches =
      Array.init 24 (fun b -> Array.init 8 (fun i -> ((13 * b) + (29 * i)) mod 200))
    in
    let expected =
      Array.map
        (fun ids ->
          Artifact.score_normalized artifact (Normalized.select_rows t ids))
        batches
    in
    let policy =
      { Client.default_retry with
        attempts = 10;
        base_backoff = 5e-3;
        max_backoff = 0.1;
        budget = 30.0;
        retry_codes =
          "unavailable" :: "rejected"
          :: Client.default_retry.Client.retry_codes
      }
    in
    let victim_port, victim = List.hd procs in
    (* the storm runs with transport faults armed on the router/client
       side of every connection; responses must stay bitwise-identical
       (absorbed by failover + retries), and the SIGKILLed shard must
       be auto-ejected *)
    Fault.with_config
      "seed=11,endpoint.read=0.03,endpoint.write.torn=0.02,router.forward=0.03"
      (fun () ->
        Array.iteri
          (fun b ids ->
            if b = 8 then Unix.kill (fst !victim) Sys.sigkill ;
            match
              Client.score_ids_retry ~policy ~socket:addr
                ~model:entry.Registry.id ~dataset:ds_dir ids
            with
            | Error (code, msg) ->
              Alcotest.failf "storm batch %d: [%s] %s" b code msg
            | Ok preds ->
              if preds <> expected.(b) then
                Alcotest.failf "storm batch %d: answer differs" b)
          batches) ;
    let dump () =
      Printf.eprintf "membership at timeout: %s\n%!"
        (Json.to_string (membership_of addr))
    in
    await ~what:"victim ejected" ~on_timeout:dump (fun () ->
        let j = membership_of addr in
        member_state j "s0" = "ejected" && not (member_in_ring j "s0")) ;
    (* restart the victim on the same port: it rejoins unaided *)
    ignore (Unix.waitpid [] (fst !victim)) ;
    victim := spawn_shard bin ~reg ~port:victim_port ;
    await_shard_healthy (snd !victim) ;
    await ~what:"victim rejoined" ~on_timeout:dump (fun () ->
        let j = membership_of addr in
        member_state j "s0" = "active" && member_in_ring j "s0") ;
    (* drain the revived shard: membership flips and not one request
       fails while it empties *)
    (match wire addr (Protocol.Drain (Some "s0")) with
    | Ok _ -> ()
    | Error (c, m) -> Alcotest.failf "drain: [%s] %s" c m) ;
    Array.iteri
      (fun b ids ->
        match
          Client.score_ids_retry ~policy ~socket:addr ~model:entry.Registry.id
            ~dataset:ds_dir ids
        with
        | Error (code, msg) ->
          Alcotest.failf "drain batch %d failed: [%s] %s" b code msg
        | Ok preds ->
          if preds <> expected.(b) then
            Alcotest.failf "drain batch %d: answer differs" b)
      batches ;
    Alcotest.(check bool) "still out of the ring" false
      (member_in_ring (membership_of addr) "s0") ;
    kill_all Sys.sigterm

(* ---- accept backs off when descriptors run out (MORPHEUS_BIN) ---- *)

(* utime + stime of [pid] in seconds ([None] where /proc/PID/stat is
   unreadable); the fields count USER_HZ (100) ticks. *)
let cpu_seconds pid =
  let path = Printf.sprintf "/proc/%d/stat" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> None
  | stat -> (
    (* the command name in parentheses may hold spaces *)
    let from = String.rindex stat ')' + 2 in
    let fields = String.sub stat from (String.length stat - from) in
    match String.split_on_char ' ' fields with
    | fields when List.length fields > 12 ->
      let tick k = float_of_string (List.nth fields k) /. 100.0 in
      Some (tick 11 +. tick 12)
    | _ -> None)

(* A server limited to 32 descriptors, under 40 idle connections: the
   listening socket stays readable while accept fails with EMFILE, and
   the accept thread must wait instead of spinning. Once descriptors
   free up it serves again, idle connections and all. *)
let test_accept_out_of_fds () =
  match Sys.getenv_opt "MORPHEUS_BIN" with
  | None | Some "" ->
    print_endline "accept backoff: skipped (MORPHEUS_BIN not set)"
  | Some bin -> (
    let reg = tmpdir "control_emfile_reg" in
    let addr = Printf.sprintf "127.0.0.1:%d" (free_port ()) in
    let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    let pid =
      Fun.protect ~finally:(fun () -> Unix.close devnull) (fun () ->
          Unix.create_process "/bin/sh"
            [| "/bin/sh";
               "-c";
               {|ulimit -n 32; exec "$0" serve --registry "$1" --listen "$2"|};
               bin;
               reg;
               addr
            |]
            Unix.stdin devnull devnull)
    in
    Fun.protect
      ~finally:(fun () ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()) ;
        ignore (Unix.waitpid [] pid))
    @@ fun () ->
    await_shard_healthy addr ;
    match cpu_seconds pid with
    | None ->
      print_endline "accept backoff: skipped (/proc/PID/stat unreadable)"
    | Some _ ->
      let idle = ref (List.init 40 (fun _ -> connect addr)) in
      Fun.protect ~finally:(fun () -> close_all !idle)
      @@ fun () ->
      (* the accept thread has run out of descriptors by now *)
      Unix.sleepf 0.3 ;
      let spent () = Option.value ~default:Float.nan (cpu_seconds pid) in
      let before = spent () in
      Unix.sleepf 1.0 ;
      let cpu = spent () -. before in
      if not (cpu < 0.3) then
        Alcotest.failf "the server spent %.2fs of CPU in 1s out of descriptors"
          cpu ;
      (* the kernel hands out queued connections in order, and those the
         server could not accept yet are ahead of a new one: close all
         but the 10 oldest, which stay idle *)
      let keep = List.filteri (fun i _ -> i < 10) !idle in
      close_all (List.filteri (fun i _ -> i >= 10) !idle) ;
      idle := keep ;
      let t0 = Unix.gettimeofday () in
      (match wire_within ~timeout:1.0 addr Protocol.Ping with
      | Ok _ -> ()
      | Error (c, m) ->
        Alcotest.failf "ping once descriptors freed: [%s] %s" c m) ;
      let took = Unix.gettimeofday () -. t0 in
      if took > 1.0 then Alcotest.failf "ping answered after %.2fs" took)

(* ---- CLI usage errors exit 2, not a backtrace ---- *)

let run_cli bin args =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close devnull)
  @@ fun () ->
  let pid =
    Unix.create_process bin (Array.of_list (bin :: args)) Unix.stdin devnull
      devnull
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED code -> code
  | _ -> -1

let test_cli_usage_errors () =
  match Sys.getenv_opt "MORPHEUS_BIN" with
  | None | Some "" ->
    print_endline "cli usage: skipped (MORPHEUS_BIN not set)"
  | Some bin ->
    let reg = tmpdir "control_cli_reg" in
    let check args =
      let code = run_cli bin args in
      if code <> 2 then
        Alcotest.failf "%s: exit %d, wanted the usage error 2"
          (String.concat " " args) code
    in
    check [ "score"; "--socket"; ""; "--ping" ] ;
    check [ "score"; "--socket"; "tcp:host:notaport"; "--ping" ] ;
    check [ "score"; "--socket"; "tcp::80"; "--ping" ] ;
    check [ "serve"; "--registry"; reg; "--socket"; "/tmp/x.sock";
            "--drain-on"; "SIGUSR1" ] ;
    check [ "route"; "--listen"; "tcp:"; "--shard"; "a=127.0.0.1:1" ] ;
    check [ "route"; "--listen"; "127.0.0.1:0"; "--shard"; "a=tcp:bad" ]

let () =
  Alcotest.run "control"
    [ ( "endpoint",
        [ Alcotest.test_case "edge cases and IPv6 brackets" `Quick
            test_endpoint_edges ] );
      ( "codec",
        [ qc qcheck_json_total;
          qc qcheck_request_total;
          qc qcheck_truncated_frames;
          qc qcheck_framer;
          Alcotest.test_case "framer at max_frame" `Quick test_framer_max_frame;
          Alcotest.test_case "live-socket fuzz" `Quick (test_wire_fuzz plain_server);
          Alcotest.test_case "live-socket fuzz, router" `Quick
            (test_wire_fuzz routed_fake) ] );
      ( "breaker",
        [ Alcotest.test_case "seeded jitter spreads reopens" `Quick
            test_breaker_jitter_spread;
          Alcotest.test_case "abandoned probe handed back" `Quick
            test_breaker_abandon ] );
      ( "batcher",
        [ Alcotest.test_case "expired at dequeue" `Quick test_batcher_expired ] );
      ( "deadline",
        [ Alcotest.test_case "budget decrements across the router" `Quick
            test_deadline_propagation;
          Alcotest.test_case "forward bounded over a wedged shard" `Quick
            test_deadline_bounds_forward ] );
      ( "scatter",
        [ Alcotest.test_case "one model version per response" `Quick
            test_scatter_pins_version;
          Alcotest.test_case "100k ids reassemble in linear time" `Quick
            test_scatter_linear ] );
      ( "membership",
        [ Alcotest.test_case "router drain lifecycle" `Quick test_router_drain;
          Alcotest.test_case "probe eject and rejoin" `Quick
            test_probe_eject_rejoin;
          Alcotest.test_case "server drain mode" `Quick test_server_drain ] );
      ( "health",
        [ Alcotest.test_case "bounded over a wedged shard" `Quick
            test_health_wedged_shard;
          Alcotest.test_case "prober and health past a full backlog" `Quick
            test_wedged_full_backlog ] );
      ( "listener",
        [ Alcotest.test_case "idle connections hold no service" `Quick
            (test_idle_connections plain_server);
          Alcotest.test_case "idle connections hold no service, router" `Quick
            (test_idle_connections routed_fake);
          Alcotest.test_case "connection cap" `Quick test_connection_cap;
          Alcotest.test_case "accept backs off out of descriptors" `Quick
            test_accept_out_of_fds ] );
      ( "router",
        [ Alcotest.test_case "one-shot clients share shard connections" `Quick
            test_shared_shard_conns ] );
      ( "client",
        [ Alcotest.test_case "stale connection retried fresh once" `Quick
            test_stale_retry;
          Alcotest.test_case "timed-out connection not retried" `Quick
            test_timeout_not_retried ] );
      ( "chaos",
        [ Alcotest.test_case "transport storm, SIGKILL, rejoin, drain" `Quick
            test_control_chaos;
          Alcotest.test_case "CLI usage errors exit 2" `Quick
            test_cli_usage_errors ] )
    ]
