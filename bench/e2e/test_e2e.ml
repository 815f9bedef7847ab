(* Unit tests of the benchmark's own arithmetic: percentiles, open-loop
   latency and lateness, the arrival schedule, and the trace writer. *)

module Json = Morpheus_serve.Json

let feq = Alcotest.float 0.0

let test_percentile () =
  let xs = [| 5.0; 1.0; 4.0; 2.0; 3.0 |] in
  Alcotest.check feq "p50 of 5" 3.0 (Stats.percentile 50.0 xs) ;
  Alcotest.check feq "p90 of 5 is the 5th" 5.0 (Stats.percentile 90.0 xs) ;
  Alcotest.check feq "p20 of 5 is the 1st" 1.0 (Stats.percentile 20.0 xs) ;
  Alcotest.check feq "p21 of 5 is the 2nd" 2.0 (Stats.percentile 21.0 xs) ;
  Alcotest.check feq "p0 is the minimum" 1.0 (Stats.percentile 0.0 xs) ;
  Alcotest.check feq "p100 is the maximum" 5.0 (Stats.percentile 100.0 xs) ;
  Alcotest.check feq "median of 4 is the 2nd" 2.0 (Stats.median [| 4.0; 1.0; 3.0; 2.0 |]) ;
  Alcotest.check feq "a failure sorts last" Float.infinity
    (Stats.percentile 90.0 [| 1.0; Float.infinity |]) ;
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Stats.median [||])) ;
  Alcotest.(check (array (float 0.0))) "input untouched" [| 5.0; 1.0; 4.0; 2.0; 3.0 |] xs

(* A clock that only moves when told: sleeping jumps to the due time,
   and each send takes 1.5 s. *)
let fake_clock () =
  let t = ref 10.0 in
  ( t,
    { Loadgen.now = (fun () -> !t); sleep_until = (fun due -> t := Float.max !t due) } )

let test_due_time () =
  let t, clock = fake_clock () in
  let samples =
    Loadgen.open_loop clock ~workers:1 ~start:10.0 ~offsets:[| 0.0; 1.0; 2.0 |] (fun _ i ->
        t := !t +. 1.5 ;
        i)
  in
  let lat = Array.map Loadgen.latency samples and late = Array.map Loadgen.lateness samples in
  Alcotest.(check (array (float 1e-12))) "latency from due time" [| 1.5; 2.0; 2.5 |] lat ;
  Alcotest.(check (array (float 1e-12))) "lateness" [| 0.0; 0.5; 1.0 |] late ;
  Alcotest.(check (array int)) "arrival order" [| 0; 1; 2 |]
    (Array.map (fun s -> s.Loadgen.result) samples)

let test_closed_loop () =
  let t, clock = fake_clock () in
  let samples =
    Loadgen.closed_loop clock ~workers:1 ~until:14.0 (fun _ k ->
        t := !t +. 1.5 ;
        k)
  in
  Alcotest.(check (array int)) "requests until the deadline" [| 0; 1; 2 |]
    (Array.map (fun s -> s.Loadgen.result) samples) ;
  Alcotest.(check (array (float 1e-12))) "never late" [| 0.0; 0.0; 0.0 |]
    (Array.map Loadgen.lateness samples)

let test_poisson () =
  let a = Poisson.schedule ~seed:7 ~rate:200.0 ~duration:10.0 in
  let b = Poisson.schedule ~seed:7 ~rate:200.0 ~duration:10.0 in
  let c = Poisson.schedule ~seed:8 ~rate:200.0 ~duration:10.0 in
  Alcotest.(check (array (float 0.0))) "same seed, same schedule" a b ;
  Alcotest.(check bool) "another seed, another schedule" false (a = c) ;
  Alcotest.(check bool) "increasing, inside the window" true
    (Array.for_all2 ( < ) (Array.sub a 0 (Array.length a - 1)) (Array.sub a 1 (Array.length a - 1))
    && a.(0) > 0.0
    && a.(Array.length a - 1) < 10.0) ;
  let n = float_of_int (Array.length a) in
  (* 2000 expected, standard deviation about 45 *)
  Alcotest.(check bool) "about rate × duration arrivals" true (n > 1800.0 && n < 2200.0)

let test_trace () =
  let t = ref 1.0 in
  let now () = !t in
  let tr = Chrome_trace.create ~origin:1.0 in
  Chrome_trace.with_span tr ~now ~name:"parent" ~cat:"test" ~tid:3 (fun parent ->
      t := 1.25 ;
      Chrome_trace.with_span tr ~now ~parent ~name:"child \"a\"" ~cat:"test" ~tid:3 (fun _ ->
          t := 1.5) ;
      ignore
        (Chrome_trace.span tr ~parent ~name:"child b" ~cat:"test" ~tid:3 ~start:1.75 ~stop:2.0
           ()) ;
      t := 2.5) ;
  let json =
    match Json.of_string (Json.to_string (Chrome_trace.to_json tr)) with
    | Ok j -> j
    | Error msg -> Alcotest.fail msg
  in
  let events = Option.get (Option.bind (Json.member "traceEvents" json) Json.to_list) in
  let num k e = Option.get (Option.bind (Json.member k e) Json.to_float) in
  let arg k e = Option.bind (Json.member "args" e) (Json.member k) in
  let by_id id = List.find (fun e -> Option.bind (arg "span" e) Json.to_float = Some id) events in
  Alcotest.(check int) "three events" 3 (List.length events) ;
  let children =
    List.filter_map
      (fun e -> Option.map (fun p -> (e, by_id (Option.get (Json.to_float p)))) (arg "parent" e))
      events
  in
  Alcotest.(check int) "two children" 2 (List.length children) ;
  List.iter
    (fun (c, p) ->
      Alcotest.(check bool) "child inside its parent" true
        (num "ts" c >= num "ts" p && num "ts" c +. num "dur" c <= num "ts" p +. num "dur" p) ;
      Alcotest.check feq "same thread" (num "tid" p) (num "tid" c))
    children ;
  let parent = snd (List.hd children) in
  Alcotest.check feq "microseconds from the origin" 0.0 (num "ts" parent) ;
  Alcotest.check feq "duration in microseconds" 1.5e6 (num "dur" parent)

let () =
  Alcotest.run "e2e"
    [ ( "stats",
        [ Alcotest.test_case "nearest-rank percentile" `Quick test_percentile ] );
      ( "loadgen",
        [ Alcotest.test_case "latency from due time" `Quick test_due_time;
          Alcotest.test_case "closed loop" `Quick test_closed_loop;
          Alcotest.test_case "Poisson schedule" `Quick test_poisson
        ] );
      ("trace", [ Alcotest.test_case "Chrome trace nests" `Quick test_trace ])
    ]
