(** GC pauses from [runtime_events]: each outermost minor collection
    or major slice on a domain is one pause.  Only the traced run
    starts the event rings; the caller polls between (or, through the
    harness hook, during) windows and takes the pauses per window. *)

module RE = Runtime_events

let max_domains = 128

type t = {
  cursor : RE.cursor;
  callbacks : RE.Callbacks.t;
  pauses : float list ref;  (** us, since the last [take]. *)
  lost : int ref;
}

let is_pause = function RE.EV_MINOR | RE.EV_MAJOR_SLICE -> true | _ -> false

let start () =
  RE.start ();
  let depth = Array.make max_domains 0 in
  let start = Array.make max_domains 0L in
  let pauses = ref [] and lost = ref 0 in
  let runtime_begin d ts ph =
    if is_pause ph && d < max_domains then begin
      if depth.(d) = 0 then start.(d) <- RE.Timestamp.to_int64 ts;
      depth.(d) <- depth.(d) + 1
    end
  in
  let runtime_end d ts ph =
    if is_pause ph && d < max_domains && depth.(d) > 0 then begin
      depth.(d) <- depth.(d) - 1;
      if depth.(d) = 0 then
        let ns = Int64.sub (RE.Timestamp.to_int64 ts) start.(d) in
        pauses := (Int64.to_float ns *. 1e-3) :: !pauses
    end
  in
  let lost_events _ n = lost := !lost + n in
  {
    cursor = RE.create_cursor None;
    callbacks = RE.Callbacks.create ~runtime_begin ~runtime_end ~lost_events ();
    pauses;
    lost;
  }

let poll t = ignore (RE.read_poll t.cursor t.callbacks None)

(** Pauses recorded since the last [take] (us), and events lost to
    ring overflow over the same stretch. *)
let take t =
  poll t;
  let p = !(t.pauses) and l = !(t.lost) in
  t.pauses := [];
  t.lost := 0;
  (p, l)
