(** Shared surface of the runtime backends.

    The repo carries two interchangeable STM engines — the
    obstruction-free DSTM/SXM locator runtime ({!Runtime}) and the
    lock-based TL2-style runtime ({!Tl2}) — behind one signature
    ({!S}), so structures, the workload harness and the benches are
    backend-agnostic.  Everything both engines share lives here:

    - the configuration record and its default;
    - the statistics snapshot and the per-domain shard layout it is
      folded from;
    - the control-flow exceptions (shared so the facade in {!Stm} can
      re-raise and catch uniformly, and so tests written against one
      backend's exceptions hold for the other);
    - the adaptive-wait ladder used while blocked behind an enemy.

    Both backends re-export the types with equations
    ([type config = Runtime_intf.config = {...}]), so existing callers
    that name them through [Runtime] keep compiling unchanged. *)

exception Abort_attempt
(** Internal control flow: the current attempt is (being) aborted and
    must restart. *)

exception Too_many_attempts of int
(** Raised when [max_attempts] is exceeded. *)

exception Retry_wait
(** Internal control flow for [retry_wait]/[check]: abort the attempt
    and re-run after a pause, i.e. block until the world changes. *)

type read_mode = [ `Visible | `Invisible ]
(** Locator backend only; the TL2 backend's reads are always invisible
    (validated against the global clock) and ignore this field. *)

type config = {
  read_mode : read_mode;
  max_attempts : int option;  (** [None] = retry forever. *)
  block_poll_usec : int;
      (** Cap on the sleeping period while blocked on an enemy (the
          wait spins, then yields, then sleeps with geometrically
          growing pauses up to this cap). *)
  backoff_cap_usec : int;  (** Upper bound applied to [Backoff] verdicts. *)
}

let default_config =
  { read_mode = `Visible; max_attempts = None; block_poll_usec = 50; backoff_cap_usec = 100_000 }

(* ------------------------------------------------------------------ *)
(* Statistics: per-domain shards                                       *)
(* ------------------------------------------------------------------ *)

(* Each domain increments only its own shard, so the per-commit /
   per-conflict counters never ping-pong cache lines between cores.  A
   shard is one flat (unboxed) [int array]: counters sit a cache line
   (8 words) apart, with a line of slack at each end so no counter
   shares a line with a neighbouring heap block — a layout the GC
   cannot break, unlike a record of boxed [Atomic.t] cells, where each
   counter is its own heap block and record padding pads nothing.
   Only the owning domain ever writes a counter; [stats] reads them
   from other domains, which is a benign race on monotone int cells
   (OCaml plain-int reads cannot tear): a concurrent snapshot may lag
   a few events, and a snapshot ordered after the counting domain's
   work — joined domains, as in the harness and every test — is
   exact. *)
module Shard = struct
  type t = int array

  let line_words = 8 (* ints per 64-byte cache line *)
  let n_counters = 7
  let counter_ix i = (i + 1) * line_words
  let make () : t = Array.make ((n_counters + 2) * line_words) 0

  let ix_commits = counter_ix 0
  let ix_aborts = counter_ix 1
  let ix_conflicts = counter_ix 2
  let ix_enemy_aborts = counter_ix 3 (* times we aborted an enemy *)
  let ix_self_aborts = counter_ix 4
  let ix_blocks = counter_ix 5
  let ix_backoffs = counter_ix 6
  let tick (s : t) ix = s.(ix) <- s.(ix) + 1
end

type stats_snapshot = {
  n_commits : int;
  n_aborts : int;
  n_conflicts : int;
  n_enemy_aborts : int;
  n_self_aborts : int;
  n_blocks : int;
  n_backoffs : int;
}

let empty_stats =
  {
    n_commits = 0;
    n_aborts = 0;
    n_conflicts = 0;
    n_enemy_aborts = 0;
    n_self_aborts = 0;
    n_blocks = 0;
    n_backoffs = 0;
  }

let stats_of_shards (shards : Shard.t list) =
  List.fold_left
    (fun acc (s : Shard.t) ->
      {
        n_commits = acc.n_commits + s.(Shard.ix_commits);
        n_aborts = acc.n_aborts + s.(Shard.ix_aborts);
        n_conflicts = acc.n_conflicts + s.(Shard.ix_conflicts);
        n_enemy_aborts = acc.n_enemy_aborts + s.(Shard.ix_enemy_aborts);
        n_self_aborts = acc.n_self_aborts + s.(Shard.ix_self_aborts);
        n_blocks = acc.n_blocks + s.(Shard.ix_blocks);
        n_backoffs = acc.n_backoffs + s.(Shard.ix_backoffs);
      })
    empty_stats shards

let pp_stats fmt s =
  Format.fprintf fmt "commits=%d aborts=%d conflicts=%d enemy-aborts=%d blocks=%d backoffs=%d"
    s.n_commits s.n_aborts s.n_conflicts s.n_enemy_aborts s.n_blocks s.n_backoffs

(* ------------------------------------------------------------------ *)
(* Adaptive waiting                                                    *)
(* ------------------------------------------------------------------ *)

let sleep_usec usec = if usec > 0 then Unix.sleepf (float_of_int usec *. 1e-6)

(* [sched_yield(2)]: give up the CPU to another runnable thread and
   return at once.  [Unix.sleepf 0.] is a [nanosleep], which sleeps for
   the kernel's timer slack (tens of microseconds) even when nothing
   else wants the CPU. *)
external yield : unit -> unit = "tcm_sched_yield" [@@noalloc]

(* Adaptive waiting: spin on the CPU hint first (an enemy on another
   core often finishes within nanoseconds), then yield the timeslice,
   then sleep with geometrically growing pauses capped at [cap_usec].
   The wall clock is consulted only once a wait reaches the sleeping
   phase — never in the spin loop. *)
let spin_rounds = 32
let yield_rounds = 16

let wait_step ~round ~cap_usec =
  if round < spin_rounds then Domain.cpu_relax ()
  else if round < spin_rounds + yield_rounds then yield ()
  else
    let r = round - spin_rounds - yield_rounds in
    sleep_usec (min cap_usec (1 lsl min r 10))

(* Block until [other] is no longer active, or starts waiting itself,
   or the timeout expires.  Sets [me]'s public waiting flag for the
   duration, so that greedy enemies may abort the blocked party
   (Rule 1); raises {!Abort_attempt} when [me] is aborted while
   waiting.  Shared by both backends — the locator runtime blocks at
   open time, the TL2 runtime at commit-time lock acquisition — so the
   cycle-breaking dynamics (a wait ends when the enemy starts waiting,
   and the manager is then re-consulted with the enemy's waiting flag
   visible) are identical on both. *)
let block_on ~(me : Txn.t) ~(other : Txn.t) ~(shard : Shard.t)
    ~(mx : Tcm_metrics.Conventions.t) ~(obs : Tcm_obs.Ledger.t) ~cap_usec
    ~timeout_usec =
  Shard.tick shard Shard.ix_blocks;
  Atomic.set me.Txn.waiting true;
  Tcm_trace.Sink.wait_begin ~me:(Txn.timestamp me) ~enemy:(Txn.timestamp other) ~tick:0;
  (* Wall clock only when metrics or the obs ledger are on; the spin
     loop itself never consults it. *)
  let m_t0 =
    if Tcm_metrics.enabled () || Tcm_obs.Ledger.enabled () then
      Unix.gettimeofday ()
    else 0.
  in
  (* [rounds] is how far the spin/yield ladder got — the wait's cost
     in ladder ticks.  The duration is computed once and fed to both
     the metrics histogram and the obs ledger (each self-gates), which
     is what makes [Ledger.reconcile]'s wait-cost check exact when
     both layers are enabled over the same span. *)
  let finish rounds =
    Atomic.set me.Txn.waiting false;
    Tcm_trace.Sink.wait_end ~me:(Txn.timestamp me) ~enemy:(Txn.timestamp other) ~tick:0;
    if m_t0 > 0. then begin
      let duration = int_of_float ((Unix.gettimeofday () -. m_t0) *. 1e6) in
      Tcm_metrics.Conventions.wait mx ~duration;
      Tcm_obs.Ledger.charge_wait obs ~cost:duration ~ticks:rounds
    end
  in
  let deadline =
    match timeout_usec with
    | None -> infinity
    | Some us -> Unix.gettimeofday () +. (float_of_int us *. 1e-6)
  in
  let rec wait round =
    if not (Txn.is_active me) then begin
      finish round;
      raise Abort_attempt
    end;
    if
      Txn.is_active other
      && (not (Txn.is_waiting other))
      && (deadline = infinity || round < spin_rounds || Unix.gettimeofday () < deadline)
    then begin
      wait_step ~round ~cap_usec;
      wait (round + 1)
    end
    else round
  in
  finish (wait 0)

let decision_trace_code = function
  | Decision.Abort_other -> Tcm_trace.Event.d_abort_other
  | Decision.Abort_self -> Tcm_trace.Event.d_abort_self
  | Decision.Block _ -> Tcm_trace.Event.d_block
  | Decision.Backoff _ -> Tcm_trace.Event.d_backoff

(* ------------------------------------------------------------------ *)
(* The backend signature                                               *)
(* ------------------------------------------------------------------ *)

(** What a runtime backend must provide.  [Stm] dispatches over the
    two implementations; both are checked against this signature, so a
    drift in either surface is a compile error. *)
module type S = sig
  val backend_name : string

  type t
  type tx

  val create : ?config:config -> Cm_intf.factory -> t
  val manager_name : t -> string
  val stats : t -> stats_snapshot
  val atomically : t -> (tx -> 'a) -> 'a
  val read : tx -> 'a Tvar.t -> 'a
  val write : tx -> 'a Tvar.t -> 'a -> unit
  val read_for_write : tx -> 'a Tvar.t -> 'a
  val modify : tx -> 'a Tvar.t -> ('a -> 'a) -> unit
  val retry_now : tx -> 'a
  val retry_wait : tx -> 'a
  val check : tx -> bool -> unit
  val current_txn : t -> Txn.t option

  val consult : Cm_intf.packed -> me:Txn.t -> other:Txn.t -> attempts:int -> Decision.t
  (** The backend's conflict adapter: ask the packed manager instance
      for a verdict on the [me]/[other] conflict.  Exposed so tests
      can drive a scripted duel through both backends and assert the
      verdicts agree (the execution of a verdict differs — the locator
      backend aborts enemies in place, the TL2 backend maps
      [Abort_other] to a lock steal — but the verdict itself must
      not). *)
end
