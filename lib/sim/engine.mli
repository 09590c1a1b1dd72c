(** Deterministic two-phase tick engine.

    Each tick: {b Phase A} (thread-id order) starts pending
    transactions, re-checks waits/backoffs and performs the due object
    accesses, resolving conflicts through the policy — aborts take
    effect immediately, victims restart next tick with their timestamp
    retained.  {b Phase B} advances every still-running thread one tick
    of work; completed transactions commit at the end of the tick.
    Accesses thus strictly precede same-tick commits, reproducing the
    paper's "at time 1-eps, T1 accesses X1, aborting T0" exactly.

    The policy's [Tcm_core] manager decides every conflict: each thread
    holds a live [Txn.t] and its own seeded manager instance, notified
    at the engine's begin, open, commit and abort events.  Every slab
    slot those instances acquire is released when the run ends. *)

type cell_kind = Run | Wait | Back | Idle | Done

type cell = { attempt : int; kind : cell_kind }

type result = {
  ticks : int;
  completed : bool;  (** All streams exhausted within the horizon. *)
  makespan : int option;  (** Tick of the last commit, when completed. *)
  commits : int;
  aborts : int;
  commit_log : (int * int * int) list;
      (** [(thread, txn_index, tick)] in commit order. *)
  per_thread_commits : int array;
  per_thread_aborts : int array;
  max_aborts_one_txn : int;
      (** Worst restarts of a single transaction (starvation metric). *)
  grid : cell array array;  (** [grid.(tick).(thread)] when recorded. *)
  policy_name : string;
}

val default_horizon : int

val usec_per_tick : int
(** The tick's length in microseconds: [Block] timeouts and [Backoff]
    durations are converted with it, rounded up to at least one
    tick. *)

val run :
  ?horizon:int ->
  ?record_grid:bool ->
  ?ranks:int array ->
  ?ts_on_restart:[ `Keep | `Fresh ] ->
  policy:Policy.t ->
  n_objects:int ->
  (int -> Spec.txn option) array ->
  result
(** [run ~policy ~n_objects streams]: thread [i] executes
    [streams.(i) 0], [streams.(i) 1], ... until [None].  [ranks]
    overrides the first transactions' timestamps; [ts_on_restart]
    is the Theorem 1 ablation hook ([`Fresh] restarts an aborted
    transaction as a new one, with a fresh timestamp). *)

val run_instance :
  ?horizon:int ->
  ?record_grid:bool ->
  ?ranks:int array ->
  ?ts_on_restart:[ `Keep | `Fresh ] ->
  policy:Policy.t ->
  Spec.instance ->
  result
(** One transaction per thread, all arriving at tick 0; without
    [ranks], thread order is priority order. *)
