(* Load generation: open and closed loops over a fixed set of worker
   threads, each owning one connection. The clock is a parameter so the
   latency arithmetic can be tested without sleeping. *)

type clock = {
  now : unit -> float;  (** monotonic seconds *)
  sleep_until : float -> unit;
}

let real_clock =
  let now = Workload.Timing.now in
  { now;
    sleep_until =
      (fun t ->
        let dt = t -. now () in
        if dt > 0.0 then Thread.delay dt)
  }

type 'r sample = {
  due : float;  (** when the schedule said to send *)
  sent : float;
  finished : float;
  result : 'r;
}

(* Open-loop latency counts from the due time, so a stall also charges
   the requests queued behind it. In a closed loop due = sent. *)
let latency s = s.finished -. s.due

(* How late the generator itself ran. *)
let lateness s = s.sent -. s.due

let timed clock ~due send =
  clock.sleep_until due ;
  let sent = clock.now () in
  let result = send () in
  { due; sent; finished = clock.now (); result }

(* Run [f w] on [n] threads and join them; the first exception a worker
   raised is re-raised here. *)
let run_workers n f =
  let failure = Atomic.make None in
  let guarded w =
    try f w with e -> ignore (Atomic.compare_and_set failure None (Some e))
  in
  List.iter Thread.join (List.init n (Thread.create guarded)) ;
  Option.iter raise (Atomic.get failure)

(* Arrival [i] is due at [start +. offsets.(i)]. Workers claim arrivals
   in order, so an idle worker takes the next one while a busy one is
   still waiting for its reply. [between w] runs before each claim (the
   place for work a worker does between its requests). Samples come
   back in arrival order. *)
let open_loop clock ~workers ~start ~offsets ?(between = ignore) send =
  let n = Array.length offsets in
  let next = Atomic.make 0 in
  let out = Array.make n None in
  let worker w =
    let rec loop () =
      between w ;
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        out.(i) <-
          Some (timed clock ~due:(start +. offsets.(i)) (fun () -> send w i)) ;
        loop ()
      end
    in
    loop ()
  in
  run_workers workers worker ;
  Array.map Option.get out

(* Each worker sends its next request as soon as the previous reply
   arrives, until [until]. [send w k] is worker [w]'s [k]-th request. *)
let closed_loop clock ~workers ~until ?(between = ignore) send =
  let out = Array.make workers [] in
  let worker w =
    let k = ref 0 in
    while clock.now () < until do
      between w ;
      let t = clock.now () in
      out.(w) <- timed clock ~due:t (fun () -> send w !k) :: out.(w) ;
      incr k
    done
  in
  run_workers workers worker ;
  Array.concat (Array.to_list (Array.map (fun l -> Array.of_list (List.rev l)) out))
