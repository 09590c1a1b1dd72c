(** Percentiles over pooled samples, and the "at least ten samples
    beyond" rule for the highest percentile worth printing. *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(** Nearest-rank percentile of an already sorted array; [nan] when
    empty.  The same rule as [Tcm_dist.Stats.percentile], which sorts a
    list on every call: too slow for the ~10^6 pooled samples of a run,
    read at several percentiles each. *)
let at sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

(** Samples strictly beyond the nearest-rank position of [p]. *)
let beyond n p =
  if n = 0 then 0
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    n - max 1 (min n rank)

let ladder = [ 50.; 90.; 99.; 99.9; 99.99; 99.999 ]

(** The highest ladder percentile with at least ten samples beyond it,
    with that count; [None] below ten samples. *)
let top n =
  List.fold_left
    (fun acc p -> if beyond n p >= 10 then Some (p, beyond n p) else acc)
    None ladder

let median a = at (sorted a) 50.
