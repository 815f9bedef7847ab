(* Order statistics for the benchmark's reports. Failed requests enter a
   latency sample as [infinity], so they count as missing every latency
   limit instead of vanishing from the tail. *)

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

let median xs = percentile 50.0 xs

let sum xs = Array.fold_left ( +. ) 0.0 xs
