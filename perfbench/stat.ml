(* Sums, fits and weighted percentiles over per-operation samples; the
   median comes from [Evalharness.Stats]. *)

let sum xs = List.fold_left ( +. ) 0.0 xs
let median = Evalharness.Stats.median

(* Least-squares slope of y against x. *)
let slope points =
  let n = float_of_int (List.length points) in
  if n < 2.0 then 0.0
  else
    let mx = sum (List.map fst points) /. n in
    let my = sum (List.map snd points) /. n in
    let sxy = sum (List.map (fun (x, y) -> (x -. mx) *. (y -. my)) points) in
    let sxx = sum (List.map (fun (x, _) -> (x -. mx) *. (x -. mx)) points) in
    if sxx = 0.0 then 0.0 else sxy /. sxx

(* The [p]th percentile of (value, weight) samples: the smallest value at
   which the cumulative weight reaches [p]% of the total. *)
let weighted_percentile p samples =
  let sorted = List.sort compare samples in
  let target = p /. 100.0 *. sum (List.map snd sorted) in
  let rec go acc = function
    | [] -> nan
    | [ (x, _) ] -> x
    | (x, w) :: rest -> if acc +. w >= target then x else go (acc +. w) rest
  in
  go 0.0 sorted
