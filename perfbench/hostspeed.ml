(** Host-speed probe: a fixed arithmetic loop timed between windows.
    Printed only, so a slow host phase can be told from a slow
    program; never used to scale a metric. *)

let sink = ref 0

let probe_ms () =
  let t0 = Clock.now_ns () in
  let x = ref 1 in
  for i = 1 to 2_000_000 do
    x := ((!x * 1103515245) + i) land 0xffffff
  done;
  sink := !sink lxor !x;
  float_of_int (Clock.now_ns () - t0) *. 1e-6

let samples = ref []
let record () = samples := probe_ms () :: !samples

let summary () =
  match !samples with
  | [] -> "host-speed: no samples"
  | l ->
      let a = Pct.sorted (Array.of_list l) in
      Printf.sprintf "host-speed: fixed loop ms min %.2f median %.2f max %.2f (%d samples)"
        a.(0) (Pct.at a 50.) a.(Array.length a - 1) (Array.length a)
