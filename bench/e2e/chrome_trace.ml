(* Spans kept in memory and written once, at the end of a workload, as
   Chrome trace-event JSON ("X" complete events, microseconds), which
   Perfetto and chrome://tracing open offline. A span names its parent
   in [args]; a child is recorded on its parent's thread id and inside
   its parent's interval, so the viewers nest it. *)

open Morpheus_serve

type span = {
  id : int;
  parent : int option;
  name : string;
  cat : string;  (** the layer the span times *)
  tid : int;
  start : float;
  stop : float;
}

type t = {
  origin : float;  (** clock reading shown as time 0 *)
  m : Mutex.t;
  mutable next_id : int;
  mutable spans : span list;
}

let create ~origin = { origin; m = Mutex.create (); next_id = 0; spans = [] }

let fresh_id t =
  Mutex.protect t.m (fun () ->
      let id = t.next_id in
      t.next_id <- id + 1 ;
      id)

(* Record a finished span under an id taken with [fresh_id] (so that its
   children can name it before it ends). *)
let add t ~id ?parent ~name ~cat ~tid ~start ~stop () =
  Mutex.protect t.m (fun () ->
      t.spans <- { id; parent; name; cat; tid; start; stop } :: t.spans)

let span t ?parent ~name ~cat ~tid ~start ~stop () =
  let id = fresh_id t in
  add t ~id ?parent ~name ~cat ~tid ~start ~stop () ;
  id

(* Time [f id] as one span; [id] is the span's own id, for children. *)
let with_span t ~now ?parent ~name ~cat ~tid f =
  let id = fresh_id t in
  let start = now () in
  let r = f id in
  add t ~id ?parent ~name ~cat ~tid ~start ~stop:(now ()) () ;
  r

let event t s =
  let us x = (x -. t.origin) *. 1e6 in
  let ts = us s.start in
  Json.Obj
    [ ("name", Json.Str s.name);
      ("cat", Json.Str s.cat);
      ("ph", Json.Str "X");
      ("ts", Json.Num ts);
      ("dur", Json.Num (us s.stop -. ts));
      ("pid", Json.Num 1.0);
      ("tid", Json.Num (float_of_int s.tid));
      ( "args",
        Json.Obj
          (("span", Json.Num (float_of_int s.id))
          :: (match s.parent with
             | Some p -> [ ("parent", Json.Num (float_of_int p)) ]
             | None -> [])) )
    ]

let to_json t =
  let spans = Mutex.protect t.m (fun () -> List.rev t.spans) in
  Json.Obj
    [ ("traceEvents", Json.Arr (List.map (event t) spans));
      ("displayTimeUnit", Json.Str "ms")
    ]

let write t path =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_string (to_json t)) ;
      output_char oc '\n')
