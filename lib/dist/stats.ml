(** Small statistics helpers for benchmark reporting. *)

let mean xs =
  match xs with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let stddev xs =
  match xs with
  | [] | [ _ ] -> 0.
  | _ ->
      let m = mean xs in
      let var =
        List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. xs
        /. float_of_int (List.length xs - 1)
      in
      sqrt var

(** p in [0, 100]; nearest-rank percentile.  [nan] on an empty sample
    (a --quick / short-duration run can finish with zero samples). *)
let percentile p xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let n = List.length sorted in
      let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
      List.nth sorted (max 0 (min (n - 1) (rank - 1)))

(** Several nearest-rank percentiles from one sort of a copy of [xs]:
    [(percentiles ps xs).(i)] is exactly [percentile ps.(i)] of the
    same samples ([Float.compare] orders floats as [compare] does). *)
let percentiles ps xs =
  let n = Array.length xs in
  if n = 0 then Array.map (fun _ -> nan) ps
  else begin
    let sorted = Array.copy xs in
    Array.sort Float.compare sorted;
    Array.map
      (fun p ->
        let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
        sorted.(max 0 (min (n - 1) (rank - 1))))
      ps
  end

let median xs = percentile 50. xs

(** Coefficient of variation — used to demonstrate the "high variance"
    of red-black-forest transaction lengths. *)
let cv xs = match mean xs with 0. -> 0. | m -> stddev xs /. m

(* The range is closed at both ends: a sample exactly at [hi] lands in
   the last bucket rather than being dropped (p100 of a latency sample
   IS the max — losing it skewed every tail histogram). *)
let histogram ~buckets ~lo ~hi xs =
  let h = Array.make buckets 0 in
  let w = (hi -. lo) /. float_of_int buckets in
  List.iter
    (fun x ->
      if x >= lo && x <= hi then
        let b = int_of_float ((x -. lo) /. w) in
        h.(min (buckets - 1) b) <- h.(min (buckets - 1) b) + 1)
    xs;
  h
