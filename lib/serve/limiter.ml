(* AIMD concurrency limiter. The admission cap is a float that grows
   additively (+1/limit per good completion, so roughly +1 per
   round-trip of the whole window) while latency stays at or under
   target, and shrinks multiplicatively when completions fail or the
   latency ewma crosses the target. Decreases are rate-limited to one
   per [decrease_interval] so a single slow batch doesn't collapse the
   window to the floor.

   This bounds in-flight work by *observed capacity* rather than a
   static handler count: when a downstream stalls, latency rises, the
   limit backs off, and excess load is shed at admission (cheap,
   structured error) instead of queueing into deadline blowout. *)

type t = {
  m : Analysis.Sync.t;
  min_limit : float;
  max_limit : float;
  target : float;  (* latency target, seconds *)
  backoff : float;  (* multiplicative decrease factor *)
  decrease_interval : float;
  now : unit -> float;
  mutable limit : float;
  mutable in_flight : int;
  mutable ewma : float;  (* latency ewma, seconds; 0 until first sample *)
  mutable last_decrease : float;
  mutable admitted : int;
  mutable shed : int;
  mutable increases : int;
  mutable decreases : int;
}

let alpha = 0.2

let create ?(min_limit = 2.0) ?(max_limit = 256.0) ?(initial = 16.0)
    ?(backoff = 0.7) ?(decrease_interval = 0.1) ?(now = Clock.wall) ~target ()
    =
  if target <= 0.0 then invalid_arg "Limiter.create: target <= 0" ;
  if min_limit < 1.0 then invalid_arg "Limiter.create: min_limit < 1" ;
  if max_limit < min_limit then invalid_arg "Limiter.create: max < min" ;
  if backoff <= 0.0 || backoff >= 1.0 then
    invalid_arg "Limiter.create: backoff outside (0,1)" ;
  { m = Analysis.Sync.create ~name:"serve.limiter" ();
    min_limit;
    max_limit;
    target;
    backoff;
    decrease_interval;
    now;
    limit = Float.min max_limit (Float.max min_limit initial);
    in_flight = 0;
    ewma = 0.0;
    last_decrease = 0.0;
    admitted = 0;
    shed = 0;
    increases = 0;
    decreases = 0
  }

let locked t f =
  Analysis.Sync.lock t.m ;
  Fun.protect ~finally:(fun () -> Analysis.Sync.unlock t.m) f

let try_acquire t =
  locked t (fun () ->
      if float_of_int t.in_flight < t.limit then begin
        t.in_flight <- t.in_flight + 1 ;
        t.admitted <- t.admitted + 1 ;
        true
      end
      else begin
        t.shed <- t.shed + 1 ;
        false
      end)

let release t ~latency ~ok =
  locked t (fun () ->
      if t.in_flight > 0 then t.in_flight <- t.in_flight - 1 ;
      t.ewma <-
        (if t.ewma = 0.0 then latency
         else ((1.0 -. alpha) *. t.ewma) +. (alpha *. latency)) ;
      let now = t.now () in
      if (not ok) || t.ewma > t.target then begin
        if now -. t.last_decrease >= t.decrease_interval then begin
          t.limit <- Float.max t.min_limit (t.limit *. t.backoff) ;
          t.last_decrease <- now ;
          t.decreases <- t.decreases + 1
        end
      end
      else if t.limit < t.max_limit then begin
        t.limit <- Float.min t.max_limit (t.limit +. (1.0 /. t.limit)) ;
        t.increases <- t.increases + 1
      end)

let limit t = locked t (fun () -> t.limit)
let in_flight t = locked t (fun () -> t.in_flight)
let ewma t = locked t (fun () -> t.ewma)
let shed t = locked t (fun () -> t.shed)

let snapshot t =
  locked t (fun () ->
      ( Json.Obj
          [ ("limit", Json.Num t.limit);
            ("in_flight", Json.Num (float_of_int t.in_flight));
            ("latency_ewma_ms", Json.Num (t.ewma *. 1e3));
            ("target_ms", Json.Num (t.target *. 1e3));
            ("admitted", Json.Num (float_of_int t.admitted));
            ("shed", Json.Num (float_of_int t.shed));
            ("increases", Json.Num (float_of_int t.increases));
            ("decreases", Json.Num (float_of_int t.decreases))
          ] ))

(* The admission step both the server and the router run around a
   score request: shed with a structured [overloaded] error at the
   cap, otherwise fold the request's latency and outcome (an exception
   counts as a failure) back into the limit. *)
let admit lim ~metrics ~shed_message f =
  match lim with
  | None -> f ()
  | Some t ->
    if not (try_acquire t) then begin
      Metrics.record_limited metrics ;
      Metrics.record_error metrics ~code:"overloaded" ;
      Protocol.error ~code:"overloaded" ~message:shed_message
    end
    else begin
      let t0 = t.now () in
      match f () with
      | resp ->
        let ok = Result.is_ok (Protocol.response_result resp) in
        release t ~latency:(t.now () -. t0) ~ok ;
        resp
      | exception e ->
        release t ~latency:(t.now () -. t0) ~ok:false ;
        raise e
    end
