(* Wall-clock measurement helpers shared by the benches: warmup + median
   of repeated runs, which is enough to read off the speed-up *ratios*
   the paper reports. *)

(* Monotonic clock (bechamel's CLOCK_MONOTONIC binding, nanoseconds
   since an arbitrary epoch): immune to NTP slews and wall-clock steps
   that made Unix.gettimeofday occasionally report negative or wildly
   wrong durations. Only differences of [now] are meaningful. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Wall-clock seconds of one run of [f], plus its result. A full major
   collection runs first so that garbage left over from previous
   measurements is not charged to [f] — without this, large temporary
   matrices freed by one path distort the other path's numbers. *)
let time f =
  Gc.full_major () ;
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* Median wall-clock seconds over [runs] measured executions after
   [warmup] unmeasured ones. *)
let measure ?(warmup = 1) ?(runs = 3) f =
  for _ = 1 to warmup do
    ignore (f ())
  done ;
  let samples =
    List.init runs (fun _ ->
        let _, dt = time f in
        dt)
  in
  let sorted = List.sort compare samples in
  List.nth sorted (runs / 2)

(* Nearest rank: the smallest sample with at least [p] percent of the
   samples at or below it. [nan] on an empty sample. *)
let percentile p xs =
  let n = Array.length xs in
  if n = 0 then Float.nan
  else begin
    let sorted = Array.copy xs in
    Array.sort Float.compare sorted ;
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    sorted.(max 1 (min n rank) - 1)
  end

(* ---- allocation-aware measurement ---- *)

type alloc = {
  seconds : float;
  minor_words : float; (* words allocated on the minor heap *)
  major_words : float; (* words allocated directly on the major heap *)
  promoted_words : float; (* minor-heap survivors copied to the major heap *)
}

(* One run's wall-clock time and heap allocation, from Gc.counters
   deltas. [Gc.counters] reads the allocation counters without walking
   the heap, so the measurement itself is cheap, and — unlike
   [Gc.quick_stat] on OCaml 5, whose major_words only refreshes at GC
   slice boundaries — it is accurate immediately after the allocation.
   The preceding full major collection gives every run the same
   starting heap. Counts are per-domain, so callers should run [f] on
   the calling domain (the Exec pool's share of a parallel kernel is
   not charged here). *)
let time_alloc f =
  Gc.full_major () ;
  let mi0, p0, ma0 = Gc.counters () in
  let t0 = now () in
  let x = f () in
  let dt = now () -. t0 in
  let mi1, p1, ma1 = Gc.counters () in
  ( x,
    {
      seconds = dt;
      minor_words = mi1 -. mi0;
      (* Gc's major_words includes promotions; report direct major
         allocation so the three columns are disjoint. *)
      major_words = ma1 -. ma0 -. (p1 -. p0);
      promoted_words = p1 -. p0;
    } )

(* Median-seconds sample with the allocation stats of that same run
   shape: time is the median over [runs]; allocation is deterministic
   for these kernels, so the last run's counters stand for all. *)
let measure_alloc ?(warmup = 1) ?(runs = 3) f =
  for _ = 1 to warmup do
    ignore (f ())
  done ;
  let samples = List.init runs (fun _ -> snd (time_alloc f)) in
  let sorted =
    List.sort (fun a b -> compare a.seconds b.seconds) samples
  in
  let median = List.nth sorted (runs / 2) in
  let last = List.nth samples (runs - 1) in
  { last with seconds = median.seconds }

(* Speed-up of [fast] over [slow] (the paper's F-vs-M ratio). *)
let speedup ~materialized ~factorized = materialized /. factorized

let pp_seconds ppf s =
  if s < 1e-3 then Fmt.pf ppf "%.1fus" (s *. 1e6)
  else if s < 1.0 then Fmt.pf ppf "%.2fms" (s *. 1e3)
  else Fmt.pf ppf "%.2fs" s
