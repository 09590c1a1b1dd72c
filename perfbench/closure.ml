(** Closure arithmetic: do the layer spans add up to the whole? *)

(** Share of [total] that [parts] leave unexplained (negative when the
    parts overlap or over-count); [nan] for a zero total. *)
let residual_frac ~total parts =
  if total = 0. then nan else (total -. List.fold_left ( +. ) 0. parts) /. total

let within ~lo ~hi r = Float.is_finite r && r >= lo && r <= hi
