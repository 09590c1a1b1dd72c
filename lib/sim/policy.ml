(** Contention managers on the simulator's tick clock.

    The simulator runs the very managers of [Tcm_core]: every simulated
    thread holds a real {!Tcm_stm.Txn.t} descriptor and its own manager
    instance, and the engine fires the manager's lifecycle hooks at its
    own begin, open, commit and abort events.  A policy is therefore
    just a factory, the seed its per-thread instances are drawn from,
    and the consult entry point the engine calls. *)

open Tcm_stm

type party = { mutable txn : Txn.t; cm : Cm_intf.packed }

type t = {
  name : string;
  factory : Cm_intf.factory;
  seed : int;
  resolve : me:party -> other:party -> attempts:int -> now:int -> Decision.t;
}

let consult ~me ~other ~attempts ~now:_ =
  let (Cm_intf.Packed ((module M), st)) = me.cm in
  M.resolve st ~me:me.txn ~other:other.txn ~attempts

let begin_attempt p =
  let (Cm_intf.Packed ((module M), st)) = p.cm in
  M.begin_attempt st p.txn

let opened p =
  let (Cm_intf.Packed ((module M), st)) = p.cm in
  M.opened st p.txn

let committed p =
  let (Cm_intf.Packed ((module M), st)) = p.cm in
  M.committed st p.txn

let aborted p =
  let (Cm_intf.Packed ((module M), st)) = p.cm in
  M.aborted st p.txn

let of_factory ~seed factory =
  { name = Cm_intf.name factory; factory; seed; resolve = consult }

let instantiate p ~tid =
  let cm, slots =
    Tcm_core.Cm_util.instantiate_owned ~seed:((p.seed * 65_537) + tid) p.factory
  in
  ({ txn = Txn.committed_sentinel; cm }, slots)

(* ------------------------------------------------------------------ *)
(* Theory-only managers                                                *)
(* ------------------------------------------------------------------ *)

module Unbounded_queue = struct
  let name = "queueonblock-unbounded"

  type t = unit

  let create () = ()

  include Tcm_core.Cm_util.No_lifecycle

  let resolve () ~me:_ ~other:_ ~attempts:_ = Decision.block_forever
end

module Rand_greedy = struct
  let name = "rand-greedy"

  type t = Tcm_core.Cm_util.Prng.t

  let create () = Tcm_core.Cm_util.Prng.create ()

  (* The rank is drawn once per logical transaction and published in
     the shared descriptor, so it survives aborts and every enemy reads
     the same value. *)
  let begin_attempt prng me =
    if Txn.cm_stamp me = Txn.no_cm_stamp then
      Txn.set_cm_stamp me (Tcm_core.Cm_util.Prng.int prng Txn.no_cm_stamp)

  let opened _ _ = ()
  let committed _ _ = ()
  let aborted _ _ = ()

  (* Greedy's rules over (rank, timestamp): a strict total order even
     when two ranks collide. *)
  let resolve _ ~me ~other ~attempts:_ =
    let rm = Txn.cm_stamp me and ro = Txn.cm_stamp other in
    if rm < ro || (rm = ro && Txn.older_than me other) || Txn.is_waiting other then
      Decision.abort_other
    else Decision.block_forever
end

let greedy () = of_factory ~seed:0 (module Tcm_core.Greedy)
let unbounded_queue () = of_factory ~seed:0 (module Unbounded_queue)
let randomized_greedy ~seed () = of_factory ~seed (module Rand_greedy)

let all ~seed () =
  List.map (of_factory ~seed) Tcm_core.Registry.all @ [ randomized_greedy ~seed () ]

let paper_figures ~seed () = List.map (of_factory ~seed) Tcm_core.Registry.paper_figures
