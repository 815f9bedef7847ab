(* Open-loop arrival schedule: the send offsets, in seconds from the
   phase start, of a Poisson process of [rate] arrivals per second over
   [duration] seconds. Independent users arrive this way; the schedule
   is a pure function of [seed]. *)
let schedule ~seed ~rate ~duration =
  let rng = La.Rng.of_int seed in
  let rec go t acc =
    (* 1 - u is in (0, 1], so the log is finite *)
    let t = t -. (Float.log (1.0 -. La.Rng.float rng) /. rate) in
    if t >= duration then Array.of_list (List.rev acc) else go t (t :: acc)
  in
  go 0.0 []
