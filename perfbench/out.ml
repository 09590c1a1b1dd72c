(** The result line: [{"correct":…,"attempted":…,"failed":…,"metrics":
    {name: {"value": v, "unit": u}}}]. *)

type metric = { name : string; value : float; unit_ : string }
type t = { correct : bool; attempted : int; failed : int; metrics : metric list }

let metric name unit_ value = { name; value; unit_ }

(* Shortest decimal that reads back to the same float: all the digits
   the measurement has, none invented. *)
let number v =
  let rec go prec =
    let s = Printf.sprintf "%.*g" prec v in
    if prec >= 17 || float_of_string s = v then s else go (prec + 1)
  in
  go 15

let quote s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(** @raise Invalid_argument on a non-finite value: JSON has no nan. *)
let to_json r =
  let m =
    List.map
      (fun { name; value; unit_ } ->
        if not (Float.is_finite value) then
          invalid_arg (Printf.sprintf "Out.to_json: %s is not finite" name);
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (quote name) (number value)
          (quote unit_))
      r.metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed (String.concat ", " m)
