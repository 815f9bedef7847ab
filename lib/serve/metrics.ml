(* Serving metrics. Latencies go into a geometric histogram: bucket i
   covers (base·r^(i-1), base·r^i] with base = 1µs and r = 2^(1/4), so
   113 buckets span 1µs..~100s and a quantile read off a bucket's upper
   edge overestimates by at most r − 1 ≈ 19%. Exact min/mean/max are
   kept separately. *)

type hist = {
  buckets : int array;  (* last bucket is the overflow *)
  mutable count : int;
  mutable sum : float;
  mutable min : float;
  mutable max : float;
}

let nbuckets = 114
let base = 1e-6
let log_r = 0.25 *. Stdlib.log 2.0

let hist () =
  { buckets = Array.make nbuckets 0;
    count = 0;
    sum = 0.0;
    min = Float.infinity;
    max = 0.0
  }

let bucket_of seconds =
  if seconds <= base then 0
  else
    let i = 1 + int_of_float (Float.ceil (Stdlib.log (seconds /. base) /. log_r)) in
    Stdlib.min i (nbuckets - 1)

let bucket_upper i = if i = 0 then base else base *. Stdlib.exp (log_r *. float_of_int i)

let hist_add h seconds =
  let seconds = Float.max 0.0 seconds in
  h.buckets.(bucket_of seconds) <- h.buckets.(bucket_of seconds) + 1 ;
  h.count <- h.count + 1 ;
  h.sum <- h.sum +. seconds ;
  if seconds < h.min then h.min <- seconds ;
  if seconds > h.max then h.max <- seconds

let hist_quantile h q =
  if h.count = 0 then 0.0
  else begin
    let target =
      Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int h.count)))
    in
    let acc = ref 0 and found = ref (nbuckets - 1) in
    (try
       for i = 0 to nbuckets - 1 do
         acc := !acc + h.buckets.(i) ;
         if !acc >= target then begin
           found := i ;
           raise Exit
         end
       done
     with Exit -> ()) ;
    (* clamp the edge estimate by the exact extrema *)
    Float.min h.max (Float.max h.min (bucket_upper !found))
  end

type t = {
  m : Analysis.Sync.t;
  ops : (string, int * hist) Hashtbl.t;  (* per-op count + latencies *)
  all : hist;  (* all successful requests *)
  errors : (string, int) Hashtbl.t;
  batch_dist : (int, int) Hashtbl.t;  (* requests-per-batch -> batches *)
  mutable batches : int;
  mutable batched_requests : int;
  mutable batched_rows : int;
  mutable max_batch_requests : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  (* robustness counters *)
  mutable retries : int;  (* client-side retry attempts *)
  mutable sheds : int;  (* requests shed at the queue bound *)
  mutable restarts : int;  (* connections closed by a handler crash *)
  mutable write_errors : int;  (* response writes to dead peers *)
  mutable conns_reused : int;  (* retry attempts on a kept-alive connection *)
  mutable conns_fresh : int;  (* retry attempts that opened a new connection *)
}

let create () =
  { m = Analysis.Sync.create ~name:"serve.metrics" ();
    ops = Hashtbl.create 8;
    all = hist ();
    errors = Hashtbl.create 8;
    batch_dist = Hashtbl.create 16;
    batches = 0;
    batched_requests = 0;
    batched_rows = 0;
    max_batch_requests = 0;
    cache_hits = 0;
    cache_misses = 0;
    retries = 0;
    sheds = 0;
    restarts = 0;
    write_errors = 0;
    conns_reused = 0;
    conns_fresh = 0
  }

let locked t f =
  Analysis.Sync.lock t.m ;
  Fun.protect ~finally:(fun () -> Analysis.Sync.unlock t.m) f

let record t ~op ~seconds =
  locked t (fun () ->
      let count, h =
        match Hashtbl.find_opt t.ops op with
        | Some ch -> ch
        | None -> (0, hist ())
      in
      hist_add h seconds ;
      Hashtbl.replace t.ops op (count + 1, h) ;
      hist_add t.all seconds)

let record_error t ~code =
  locked t (fun () ->
      Hashtbl.replace t.errors code
        (1 + Option.value ~default:0 (Hashtbl.find_opt t.errors code)))

let record_batch t ~requests ~rows =
  locked t (fun () ->
      t.batches <- t.batches + 1 ;
      t.batched_requests <- t.batched_requests + requests ;
      t.batched_rows <- t.batched_rows + rows ;
      if requests > t.max_batch_requests then t.max_batch_requests <- requests ;
      Hashtbl.replace t.batch_dist requests
        (1 + Option.value ~default:0 (Hashtbl.find_opt t.batch_dist requests)))

let record_cache t ~hit =
  locked t (fun () ->
      if hit then t.cache_hits <- t.cache_hits + 1
      else t.cache_misses <- t.cache_misses + 1)

let record_retry t = locked t (fun () -> t.retries <- t.retries + 1)
let record_shed t = locked t (fun () -> t.sheds <- t.sheds + 1)
let record_restart t = locked t (fun () -> t.restarts <- t.restarts + 1)
let record_write_error t = locked t (fun () -> t.write_errors <- t.write_errors + 1)
let record_conn_reused t = locked t (fun () -> t.conns_reused <- t.conns_reused + 1)
let record_conn_fresh t = locked t (fun () -> t.conns_fresh <- t.conns_fresh + 1)
let conns_reused t = locked t (fun () -> t.conns_reused)
let conns_fresh t = locked t (fun () -> t.conns_fresh)
let retries t = locked t (fun () -> t.retries)
let sheds t = locked t (fun () -> t.sheds)
let restarts t = locked t (fun () -> t.restarts)
let write_errors t = locked t (fun () -> t.write_errors)

let requests t = locked t (fun () -> t.all.count)

let errors t =
  locked t (fun () -> Hashtbl.fold (fun _ n acc -> acc + n) t.errors 0)

let latency_json h =
  Json.Obj
    [ ("count", Json.Num (float_of_int h.count));
      ( "mean_s",
        Json.Num (if h.count = 0 then 0.0 else h.sum /. float_of_int h.count) );
      ("p50_s", Json.Num (hist_quantile h 0.50));
      ("p95_s", Json.Num (hist_quantile h 0.95));
      ("p99_s", Json.Num (hist_quantile h 0.99));
      ("max_s", Json.Num (if h.count = 0 then 0.0 else h.max))
    ]

let snapshot t =
  locked t (fun () ->
      let ops =
        Hashtbl.fold
          (fun op (count, h) acc ->
            ( op,
              Json.Obj
                [ ("count", Json.Num (float_of_int count));
                  ("latency", latency_json h)
                ] )
            :: acc)
          t.ops []
        |> List.sort compare
      in
      let errors =
        Hashtbl.fold
          (fun code n acc -> (code, Json.Num (float_of_int n)) :: acc)
          t.errors []
        |> List.sort compare
      in
      let dist =
        Hashtbl.fold
          (fun sz n acc -> (string_of_int sz, Json.Num (float_of_int n)) :: acc)
          t.batch_dist []
        |> List.sort (fun (a, _) (b, _) ->
               compare (int_of_string a) (int_of_string b))
      in
      let fdiv a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
      Json.Obj
        [ ("requests", Json.Num (float_of_int t.all.count));
          ("latency", latency_json t.all);
          ("ops", Json.Obj ops);
          ("errors", Json.Obj errors);
          ( "batches",
            Json.Obj
              [ ("count", Json.Num (float_of_int t.batches));
                ("mean_requests", Json.Num (fdiv t.batched_requests t.batches));
                ("mean_rows", Json.Num (fdiv t.batched_rows t.batches));
                ("max_requests", Json.Num (float_of_int t.max_batch_requests));
                ("dist", Json.Obj dist)
              ] );
          ( "dataset_cache",
            Json.Obj
              [ ("hits", Json.Num (float_of_int t.cache_hits));
                ("misses", Json.Num (float_of_int t.cache_misses));
                ( "hit_rate",
                  Json.Num (fdiv t.cache_hits (t.cache_hits + t.cache_misses))
                )
              ] );
          ( "robustness",
            Json.Obj
              [ ("retries", Json.Num (float_of_int t.retries));
                ("sheds", Json.Num (float_of_int t.sheds));
                ("handler_restarts", Json.Num (float_of_int t.restarts));
                ("write_errors", Json.Num (float_of_int t.write_errors));
                ("conns_reused", Json.Num (float_of_int t.conns_reused));
                ("conns_fresh", Json.Num (float_of_int t.conns_fresh))
              ] );
          (* concurrency-discipline counters: process-global (the pool
             and lockdep are), not per-server *)
          ( "concurrency",
            Json.Obj
              [ ( "nested_parallel_downgrades",
                  Json.Num (float_of_int (Analysis.Sync.nested_downgrades ()))
                );
                ( "lockdep",
                  Json.Str
                    (if Analysis.Sync.lockdep_enabled () then "on" else "off")
                );
                ( "lockdep_violations",
                  Json.Num
                    (float_of_int
                       (List.length (Analysis.Sync.lockdep_violations ()))) );
                ( "lockdep_warnings",
                  Json.Num
                    (float_of_int
                       (List.length (Analysis.Sync.lockdep_warnings ()))) )
              ] )
        ])

let summary t =
  let j = snapshot t in
  let buf = Buffer.create 256 in
  let num path dflt =
    match Option.bind (Json.member path j) Json.to_float with
    | Some x -> x
    | None -> dflt
  in
  let lat k =
    match
      Option.bind (Json.member "latency" j) (fun l ->
          Option.bind (Json.member k l) Json.to_float)
    with
    | Some x -> x
    | None -> 0.0
  in
  Buffer.add_string buf
    (Printf.sprintf "requests      : %.0f (errors: %d)\n" (num "requests" 0.0)
       (errors t)) ;
  Buffer.add_string buf
    (Printf.sprintf "latency       : p50 %.3fms  p95 %.3fms  p99 %.3fms  max %.3fms\n"
       (1e3 *. lat "p50_s") (1e3 *. lat "p95_s") (1e3 *. lat "p99_s")
       (1e3 *. lat "max_s")) ;
  (match Json.member "batches" j with
  | Some b ->
    let f k =
      match Option.bind (Json.member k b) Json.to_float with
      | Some x -> x
      | None -> 0.0
    in
    Buffer.add_string buf
      (Printf.sprintf
         "micro-batches : %.0f (mean %.2f requests / %.1f rows, max %.0f)\n"
         (f "count") (f "mean_requests") (f "mean_rows") (f "max_requests"))
  | None -> ()) ;
  (match Json.member "dataset_cache" j with
  | Some c ->
    let f k =
      match Option.bind (Json.member k c) Json.to_float with
      | Some x -> x
      | None -> 0.0
    in
    Buffer.add_string buf
      (Printf.sprintf "dataset cache : %.0f hits / %.0f misses (%.1f%% hit rate)\n"
         (f "hits") (f "misses")
         (100.0 *. f "hit_rate"))
  | None -> ()) ;
  (match Json.member "robustness" j with
  | Some r ->
    let f k =
      match Option.bind (Json.member k r) Json.to_float with
      | Some x -> x
      | None -> 0.0
    in
    Buffer.add_string buf
      (Printf.sprintf
         "robustness    : %.0f sheds, %.0f handler restarts, \
          %.0f write errors, %.0f/%.0f conns reused/fresh\n"
         (f "sheds") (f "handler_restarts")
         (f "write_errors") (f "conns_reused") (f "conns_fresh"))
  | None -> ()) ;
  (match Json.member "concurrency" j with
  | Some c ->
    let f k =
      match Option.bind (Json.member k c) Json.to_float with
      | Some x -> x
      | None -> 0.0
    in
    let mode =
      match Option.bind (Json.member "lockdep" c) Json.to_str with
      | Some m -> m
      | None -> "off"
    in
    Buffer.add_string buf
      (Printf.sprintf
         "concurrency   : %.0f nested-region downgrades, lockdep %s%s\n"
         (f "nested_parallel_downgrades") mode
         (if mode = "on" then
            Printf.sprintf " (%.0f violations, %.0f warnings)"
              (f "lockdep_violations") (f "lockdep_warnings")
          else ""))
  | None -> ()) ;
  Buffer.contents buf
