(** Monotonic clock in integer nanoseconds; allocation-free. *)

external now_ns : unit -> (int[@untagged]) = "pb_now_ns_byte" "pb_now_ns"
[@@noalloc]

let s_of_ns ns = float_of_int ns *. 1e-9
let us_of_ns ns = float_of_int ns *. 1e-3
let since_s t0 = s_of_ns (now_ns () - t0)
