(* Consecutive-failure circuit breaker. State is derived: [opened_at =
   None] is closed; [Some at] is open until [at + cooldown], half-open
   after. The half-open single-probe gate is the [probing] flag: the
   first [allow] after the cooldown claims it, every other caller keeps
   getting [false] until the probe reports success or failure.

   Cooldowns carry deterministic seeded jitter: when one shard death
   trips N breakers at once, identical cooldowns would wake all N
   probes in lockstep and hammer the recovering shard with a
   synchronized thundering herd. Each open stretches its cooldown by a
   pseudo-random fraction of [jitter], derived purely from (seed, open
   count) so runs replay bit-identically. *)

type state = Closed | Open | Half_open

type t = {
  m : Analysis.Sync.t;
  threshold : int;
  cooldown : float;
  jitter : float;  (* fraction of cooldown, 0 disables *)
  seed : int;
  now : unit -> float;
  mutable failures : int;  (* consecutive *)
  mutable opened_at : float option;
  mutable cur_cooldown : float;  (* this open's jittered cooldown *)
  mutable probing : bool;
  mutable opens : int;
}

(* splitmix64-style finalizer: decorrelates consecutive (seed, n). *)
let mix64 x =
  let x = Int64.of_int x in
  let x = Int64.mul (Int64.logxor x (Int64.shift_right_logical x 30)) 0xbf58476d1ce4e5b9L in
  let x = Int64.mul (Int64.logxor x (Int64.shift_right_logical x 27)) 0x94d049bb133111ebL in
  Int64.logxor x (Int64.shift_right_logical x 31)

let u01 seed n =
  let h = mix64 ((seed * 0x9e3779b9) lxor (n * 0x85ebca6b)) in
  let bits = Int64.to_int (Int64.logand h 0x1FFFFFFFFFFFFFL) in
  float_of_int bits /. float_of_int 0x20000000000000

let create ?(threshold = 5) ?(cooldown = 1.0) ?(jitter = 0.0) ?(seed = 0)
    ?(now = Clock.wall) () =
  if threshold < 1 then invalid_arg "Breaker.create: threshold < 1" ;
  if cooldown < 0.0 then invalid_arg "Breaker.create: negative cooldown" ;
  if jitter < 0.0 then invalid_arg "Breaker.create: negative jitter" ;
  { m = Analysis.Sync.create ~name:"serve.breaker" ();
    threshold;
    cooldown;
    jitter;
    seed;
    now;
    failures = 0;
    opened_at = None;
    cur_cooldown = cooldown;
    probing = false;
    opens = 0
  }

let locked t f =
  Analysis.Sync.lock t.m ;
  Fun.protect ~finally:(fun () -> Analysis.Sync.unlock t.m) f

let open_now t =
  t.opened_at <- Some (t.now ()) ;
  t.probing <- false ;
  t.opens <- t.opens + 1 ;
  t.cur_cooldown <- t.cooldown *. (1.0 +. (t.jitter *. u01 t.seed t.opens))

let state t =
  locked t (fun () ->
      match t.opened_at with
      | None -> Closed
      | Some at ->
        if t.now () -. at >= t.cur_cooldown then Half_open else Open)

let allow t =
  locked t (fun () ->
      match t.opened_at with
      | None -> true
      | Some at ->
        if t.now () -. at >= t.cur_cooldown && not t.probing then begin
          t.probing <- true ;
          true
        end
        else false)

let success t =
  locked t (fun () ->
      t.failures <- 0 ;
      t.opened_at <- None ;
      t.probing <- false)

let failure t =
  locked t (fun () ->
      match t.opened_at with
      | Some _ ->
        (* a probe failed (or a straggler raced the trip): re-open with
           a fresh cooldown *)
        open_now t
      | None ->
        t.failures <- t.failures + 1 ;
        if t.failures >= t.threshold then open_now t)

let abandon t = locked t (fun () -> t.probing <- false)

let opens t = locked t (fun () -> t.opens)
