(** Contention managers on the simulator's tick clock: the [Tcm_core]
    zoo itself, not a copy.  Each simulated thread is a {!party} — a
    real transaction descriptor plus its own manager instance — and the
    engine consults the instance exactly as the live runtimes do. *)

open Tcm_stm

type party = { mutable txn : Txn.t; cm : Cm_intf.packed }
(** One simulated thread as its manager sees it.  [txn] is the current
    attempt's descriptor (timestamp, priority, opens, [cm_stamp],
    [waiting] and status); the engine swaps it at every new attempt. *)

type t = {
  name : string;
  factory : Cm_intf.factory;
  seed : int;  (** Seeds every per-thread instance (see {!instantiate}). *)
  resolve : me:party -> other:party -> attempts:int -> now:int -> Decision.t;
      (** The engine's conflict entry point; {!of_factory} sets it to
          [me]'s manager instance's [resolve].  A field so callers can
          wrap it (e.g. to time each consult). *)
}

val of_factory : seed:int -> Cm_intf.factory -> t

val instantiate : t -> tid:int -> party * Tcm_core.Cm_util.Cm_state.slot list
(** Thread [tid]'s party with a fresh manager instance, its PRNG
    streams seeded from the policy seed and [tid].  The slots are the
    caller's to release when the run ends. *)

(** {1 Lifecycle hooks}

    The party's manager instance, notified about its current
    descriptor. *)

val begin_attempt : party -> unit
val opened : party -> unit
val committed : party -> unit
val aborted : party -> unit

(** {1 Theory-only managers}

    Two managers that cannot run live, written against the same
    {!Cm_intf.S} and consulted through the same path. *)

module Unbounded_queue : Cm_intf.S
(** Wait behind every enemy with no timeout: the dependency-cycle
    livelock the paper warns about ([Tcm_core.Queue_on_block] bounds
    its waits so two real threads cannot deadlock). *)

module Rand_greedy : Cm_intf.S
(** Greedy with random priorities, an experiment on the paper's
    closing open problem: each logical transaction draws a random rank
    once (published in [cm_stamp], retained across aborts) and greedy's
    rules compare ranks, timestamps breaking ties.  The strict total
    order keeps the pending-commit property; arrival-order adversaries
    such as the Section 4 chain lose their grip. *)

(** {1 Line-ups} *)

val greedy : unit -> t
val unbounded_queue : unit -> t
val randomized_greedy : seed:int -> unit -> t

val all : seed:int -> unit -> t list
(** Every [Tcm_core.Registry] manager, in registry order, then
    rand-greedy. *)

val paper_figures : seed:int -> unit -> t list
(** [Tcm_core.Registry.paper_figures]: greedy, karma, eruption,
    aggressive, backoff. *)
