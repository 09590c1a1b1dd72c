(** A forwarding contention manager that times every call into the
    wrapped manager and the STM time around it.

    The runtime keeps one manager instance per domain, so each instance
    owns one {!span} record and only its domain writes it; records are
    registered at [create] and collected with {!take} after the run's
    domains have joined.  The hot path reads the clock and bumps ints:
    it allocates nothing.

    Attempt anatomy on one domain, as the wrapper sees it:
    [begin_attempt] .. ([resolve] -> verdict -> wait)* .. [opened]* ..
    [committed] | [aborted].  The wait after a [Block] or [Backoff]
    verdict runs in the runtime, so it is closed at the next event the
    domain delivers. *)

open Tcm_stm

type span = {
  dom : int;  (** Id of the domain that created the instance. *)
  mutable attempts : int;
  mutable commits : int;
  mutable aborts : int;
  mutable opens : int;
  mutable resolves : int;
  mutable resolve_ns : int;
  mutable abort_other : int;
  mutable abort_self : int;
  mutable blocks : int;
  mutable backoffs : int;
  mutable block_ns : int;
  mutable backoff_ns : int;
  mutable commit_self_ns : int;
      (** Committed attempts, begin to commit, minus the CM time in
          them (resolves and waits): the STM's own self time. *)
  mutable commit_cm_ns : int;  (** The CM time inside committed attempts. *)
  mutable wasted_ns : int;  (** Aborted attempts, begin to abort. *)
  mutable gap_ns : int;  (** Between one attempt's end and the next begin. *)
  (* In flight. *)
  mutable att0 : int;
  mutable cm_in_att : int;
  mutable pending : int;  (** 0 none, 1 block, 2 backoff. *)
  mutable pend0 : int;
  mutable last_end : int;  (** 0 before the first attempt ends. *)
}

let registry : span list ref = ref []
let registry_lock = Mutex.create ()

let fresh () =
  let s =
    {
      dom = (Domain.self () :> int);
      attempts = 0; commits = 0; aborts = 0; opens = 0; resolves = 0; resolve_ns = 0;
      abort_other = 0; abort_self = 0; blocks = 0; backoffs = 0; block_ns = 0;
      backoff_ns = 0; commit_self_ns = 0; commit_cm_ns = 0; wasted_ns = 0; gap_ns = 0;
      att0 = 0; cm_in_att = 0; pending = 0; pend0 = 0; last_end = 0;
    }
  in
  Mutex.lock registry_lock;
  registry := s :: !registry;
  Mutex.unlock registry_lock;
  s

(** Every record created since the last [take]. *)
let take () =
  Mutex.lock registry_lock;
  let l = !registry in
  registry := [];
  Mutex.unlock registry_lock;
  l

let close_pending s now =
  if s.pending <> 0 then begin
    let w = now - s.pend0 in
    if s.pending = 1 then s.block_ns <- s.block_ns + w else s.backoff_ns <- s.backoff_ns + w;
    s.cm_in_att <- s.cm_in_att + w;
    s.pending <- 0
  end

module Timed (M : Cm_intf.S) : Cm_intf.S = struct
  let name = M.name

  type t = { inner : M.t; s : span }

  let create () = { inner = M.create (); s = fresh () }

  let begin_attempt t txn =
    let s = t.s in
    let now = Clock.now_ns () in
    if s.last_end > 0 then s.gap_ns <- s.gap_ns + (now - s.last_end);
    s.attempts <- s.attempts + 1;
    s.att0 <- now;
    s.cm_in_att <- 0;
    s.pending <- 0;
    M.begin_attempt t.inner txn

  let opened t txn =
    let s = t.s in
    if s.pending <> 0 then close_pending s (Clock.now_ns ());
    s.opens <- s.opens + 1;
    M.opened t.inner txn

  let committed t txn =
    M.committed t.inner txn;
    let s = t.s in
    let now = Clock.now_ns () in
    close_pending s now;
    s.commits <- s.commits + 1;
    s.commit_self_ns <- s.commit_self_ns + (now - s.att0 - s.cm_in_att);
    s.commit_cm_ns <- s.commit_cm_ns + s.cm_in_att;
    s.last_end <- now

  let aborted t txn =
    M.aborted t.inner txn;
    let s = t.s in
    let now = Clock.now_ns () in
    close_pending s now;
    s.aborts <- s.aborts + 1;
    s.wasted_ns <- s.wasted_ns + (now - s.att0);
    s.last_end <- now

  let resolve t ~me ~other ~attempts =
    let s = t.s in
    let t0 = Clock.now_ns () in
    close_pending s t0;
    let v = M.resolve t.inner ~me ~other ~attempts in
    let t1 = Clock.now_ns () in
    s.resolves <- s.resolves + 1;
    s.resolve_ns <- s.resolve_ns + (t1 - t0);
    s.cm_in_att <- s.cm_in_att + (t1 - t0);
    (match v with
    | Decision.Abort_other -> s.abort_other <- s.abort_other + 1
    | Decision.Abort_self -> s.abort_self <- s.abort_self + 1
    | Decision.Block _ ->
        s.blocks <- s.blocks + 1;
        s.pending <- 1;
        s.pend0 <- t1
    | Decision.Backoff _ ->
        s.backoffs <- s.backoffs + 1;
        s.pending <- 2;
        s.pend0 <- t1);
    v
end

(** The manager every workload runs, timed. *)
let greedy : Cm_intf.factory = (module Timed (Tcm_core.Greedy))

(** Sums over records (a domain's records from several runtimes
    merge the same way). *)
let sum f l = List.fold_left (fun acc s -> acc + f s) 0 l
