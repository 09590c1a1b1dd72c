(** Transactional variables (the STM's shared objects).

    A [Tvar] follows the DSTM/SXM locator protocol.  The variable
    points atomically at a {e locator}: the owning transaction attempt,
    the last committed value [old_v] and the tentative value [new_v].
    The logical value of the variable is

    - [new_v]  if the owner committed,
    - [old_v]  if the owner is active or aborted.

    A writer acquires the variable by installing (with CAS) a locator
    that carries itself as owner; [new_v] is mutated exclusively by the
    owner while it is active, and becomes the committed value if the
    owner's commit CAS succeeds.  Publication of [new_v] happens
    through the owner's atomic status transition, which makes the plain
    field safe under the OCaml memory model (message-passing pattern).

    {1 Locator pooling}

    Locators are {e pooled}: instead of allocating a record (plus a
    value ref) on every [open_write], each domain keeps a small
    freelist of dead locators and refills one in place.  That makes
    the steady-state write path allocation-free, at the price of two
    hazards that the plain protocol did not have:

    - {e Seqlock generations.}  A pooled locator's fields are mutable,
      so a reader that loaded the locator pointer may observe fields
      from a {e later incarnation} if the locator is recycled
      mid-read.  Every locator therefore carries a two-phase
      generation counter [gen]: a refill bumps it to an {e odd} value
      before storing any field of the new incarnation and to the next
      {e even} value once the stores are done, so an odd generation
      means "refill in flight — fields unreliable".  Readers use the
      seqlock recipe: load the locator, load [gen] and {e retry if it
      is odd}, read the fields, re-check [gen].  An unchanged (hence
      even) generation proves the fields all belonged to one completed
      incarnation — a reader whose first [gen] load lands between the
      odd bump and the field stores sees the odd value and retries,
      which a single bump could not detect — so the read linearizes at
      the initial load, exactly like the unpooled protocol.

    - {e Hazard slots (the reclamation rule).}  A locator may be
      recycled only after its owner's status is decided {e and} it has
      been unlinked from the variable: recycling is therefore driven
      by displacement — the writer whose CAS replaces a dead locator
      pushes the displaced one onto its own domain's freelist.  A
      still-published locator is never recycled, since concurrent
      readers resolve values through it.  Unlinking alone is not
      enough, though: a reader (or the owner mutating [new_v]) may
      still hold a reference it is about to dereference.  Each domain
      owns one {e hazard slot}; publishing a locator there and then
      re-checking that it is still linked guarantees the locator
      cannot be refilled until the slot is cleared (any unlink ordered
      after the re-check happens before the freelist pop that would
      reuse it, and the pop scans every hazard slot, dropping — never
      reusing — a candidate that is held).  This also makes the
      acquire CAS ABA-free: a hazard-protected incumbent cannot be
      displaced, recycled and reinstalled behind the CAS's back.

    The pool is bounded ([pool_cap] per domain); beyond that, and for
    hazard-held candidates, locators are simply dropped for the GC —
    pooling is an optimisation, never a liveness requirement.  A
    pooled locator pins its last [owner]/[old_v]/[new_v] until reuse;
    the bound keeps that retention O(pool_cap) per domain.

    {1 Stamps and readers}

    [version] is a stamp drawn from a global clock, advanced by
    invisible-mode writers when they install a locator and again just
    before they publish a commit.  Invisible readers use it for
    incremental validation: a read set known valid at clock value [g]
    stays valid as long as no variable in it carries a stamp above
    [g], so the common-case read validates one variable instead of
    re-checking the whole set.

    Visible readers are not recorded in the variable.  Each domain
    keeps one {e read log} — the ids its current attempt [cur] has
    read, published by an SC store of [len] before the reader loads
    the locator — and a writer scans the other domains' logs after
    its SC install CAS (Dekker: one side sees the other).  [len] is
    reset only once [cur] is decided, and a scan re-checks [cur], so
    an entry is never pinned on an attempt that did not log it. *)

type 'a locator = {
  mutable owner : Txn.t;
  mutable old_v : 'a;
  mutable new_v : 'a;
  gen : int Atomic.t;
      (** Two-phase incarnation counter: odd while a refill's field
          stores are in flight, even once the incarnation is complete
          (see the seqlock rule above).  Never reset. *)
}

type 'a t = {
  id : int;
  loc : 'a locator Atomic.t;
  version : int Atomic.t;
}

(* ------------------------------------------------------------------ *)
(* Version stamps                                                      *)
(* ------------------------------------------------------------------ *)

(* Global stamp clock.  Advanced only by invisible-mode writers (once
   per locator install, once per commit publication), so the default
   visible mode never contends on it. *)
let clock = Atomic.make 1

let now () = Atomic.get clock
let next_stamp () = 1 + Atomic.fetch_and_add clock 1

let version t = Atomic.get t.version
let stamp_cell t = t.version

(* Stamp cells only move forward.  A plain store would let a lagging
   commit publication (an attempt that loses its status CAS after
   drawing a stamp) overwrite a newer stamp installed by the next
   owner, moving the variable's version backward past watermarks that
   were taken in between. *)
let rec advance_stamp cell s =
  let cur = Atomic.get cell in
  if s > cur && not (Atomic.compare_and_set cell cur s) then advance_stamp cell s

let bump_version t = advance_stamp t.version (next_stamp ())

(* ------------------------------------------------------------------ *)
(* Locator pool & hazard slots                                         *)
(* ------------------------------------------------------------------ *)

let locator_gen (loc : 'a locator) = Atomic.get loc.gen

(* Even = the incarnation's refill stores are complete; odd = a refill
   is in flight and the fields may mix incarnations. *)
let gen_stable g = g land 1 = 0

(* Pools hold locators type-erased to [Obj.t]: values of every ['a]
   share one uniform representation, and a refill overwrites both value
   fields before the locator is re-exposed, so the [Obj.magic] at
   [take_locator] never lets one incarnation's payload escape into
   another's type.  (The locator record also carries the non-value
   [owner]/[gen] fields, so it can never be subject to the flat-float
   representation — fields are always boxed uniformly.) *)
type erased = Obj.t locator

let dummy_locator : erased =
  { owner = Txn.committed_sentinel; old_v = Obj.repr 0; new_v = Obj.repr 0; gen = Atomic.make 0 }

(* A unique block that is never a locator, marking an idle hazard
   slot. *)
let no_hazard : Obj.t = Obj.repr (ref 0)

type pool = {
  mutable items : erased array;  (** Freelist stack, owner-domain only. *)
  mutable len : int;
  mutable last_hit : bool;
      (** Whether the most recent [take_locator] was a freelist refill
          (out-of-band so the hot path returns the locator unboxed,
          with no tuple). *)
  hazard : Obj.t Atomic.t;
      (** The locator this domain is currently dereferencing (or
          [no_hazard]).  Written only by the owning domain; read by
          every domain's freelist pop. *)
}

let pool_cap = 64

(* Process-wide registries of per-domain cells (hazard slots, read
   logs).  A cell is registered when its domain first uses it and
   dropped when the domain exits (it runs no transaction by then) —
   otherwise workloads that churn short-lived domains would grow the
   lists without bound, and every scan would walk the full history.
   Domains are few, so a list scan per use is cheap. *)
let rec unregister reg x =
  let l = Atomic.get reg in
  if not (Atomic.compare_and_set reg l (List.filter (fun y -> y != x) l)) then
    unregister reg x

let rec register_for_domain reg x =
  let l = Atomic.get reg in
  if Atomic.compare_and_set reg l (x :: l) then Domain.at_exit (fun () -> unregister reg x)
  else register_for_domain reg x

(* All live hazard slots, scanned by [take_locator]. *)
let hazard_registry : Obj.t Atomic.t list Atomic.t = Atomic.make []

let hazard_slot_count () = List.length (Atomic.get hazard_registry)

let pool_key =
  Domain.DLS.new_key (fun () ->
      let hazard = Atomic.make no_hazard in
      register_for_domain hazard_registry hazard;
      { items = Array.make pool_cap dummy_locator; len = 0; last_hit = false; hazard })

let domain_pool () = Domain.DLS.get pool_key

let pool_size p = p.len
let last_take_hit p = p.last_hit

let protect (p : pool) (loc : 'a locator) = Atomic.set p.hazard (Obj.repr loc)
let unprotect (p : pool) = Atomic.set p.hazard no_hazard

let rec hazard_held hs (o : Obj.t) =
  match hs with
  | [] -> false
  | h :: rest -> Atomic.get h == o || hazard_held rest o

(* Pop a freelist entry no hazard slot currently holds; [dummy_locator]
   signals an empty freelist (it is never pushed, so the sentinel is
   unambiguous — and returning it instead of an option keeps the pop
   allocation-free).  A held candidate is dropped for the GC — the
   holder may dereference it arbitrarily late, so it must never be
   refilled. *)
let rec pop_free (p : pool) : erased =
  if p.len = 0 then dummy_locator
  else begin
    let n = p.len - 1 in
    p.len <- n;
    let c = p.items.(n) in
    p.items.(n) <- dummy_locator;
    if hazard_held (Atomic.get hazard_registry) (Obj.repr c) then pop_free p
    else c
  end

(** Take a locator owned by [owner] carrying the given value slots
    (the tentative value is preset {e before} publication, so the
    writer needs no store into the locator after its install CAS),
    refilled from the domain freelist when possible.  [last_take_hit]
    reports whether this call was a refill.  A refill is bracketed by
    two generation bumps (even → odd → even): the first precedes every
    field store — as an SC RMW it also fences them — and marks the
    refill in flight, the second publishes the completed incarnation.
    A seqlock reader racing the refill either sees a changed
    generation or the odd in-flight value, and retries either way; it
    can never validate fields that mix incarnations. *)
let take_locator (type a) (p : pool) ~(owner : Txn.t) ~(old_v : a) ~(new_v : a) :
    a locator =
  let c = pop_free p in
  if c == dummy_locator then begin
    p.last_hit <- false;
    { owner; old_v; new_v; gen = Atomic.make 0 }
  end
  else begin
      p.last_hit <- true;
      Atomic.incr c.gen (* even -> odd: refill in flight *);
      let l : a locator = Obj.magic c in
      l.owner <- owner;
      l.old_v <- old_v;
      l.new_v <- new_v;
      Atomic.incr c.gen (* odd -> even: incarnation complete *);
      l
  end

(** Return a locator to the domain freelist.  {b Reclamation rule}
    (caller's obligation): the locator's [owner] status must be
    decided, and the locator must be unlinked from its variable — i.e.
    the caller displaced it with a successful CAS, or it was never
    published at all (a CAS-loser).  Returns [false] when the pool is
    full and the locator was dropped for the GC instead. *)
let recycle_locator (p : pool) (loc : 'a locator) =
  if p.len >= pool_cap then false
  else begin
    p.items.(p.len) <- (Obj.magic loc : erased);
    p.len <- p.len + 1;
    true
  end

(* ------------------------------------------------------------------ *)
(* Construction & inspection                                           *)
(* ------------------------------------------------------------------ *)

let make v =
  {
    id = Txid.next_tvar_id ();
    loc =
      Atomic.make
        { owner = Txn.committed_sentinel; old_v = v; new_v = v; gen = Atomic.make 0 };
    version = Atomic.make 0;
  }

let id t = t.id

(** Non-transactional store for bulk preloading, installing a fresh
    committed locator.  Only sound while the variable is {e
    unpublished} — no concurrent transaction (on either backend) may
    have seen it: the store bypasses conflict detection entirely, so a
    racing reader could validate against the displaced locator.  Both
    backends read the committed value as [new_v] of a
    committed-sentinel locator, which is exactly what this installs;
    the structure-level [unsafe_preload]s build million-entry stores
    through it without paying a commit per variable. *)
let unsafe_init t v =
  Atomic.set t.loc
    { owner = Txn.committed_sentinel; old_v = v; new_v = v; gen = Atomic.make 0 }

(** Value of a locator as seen by an outside observer, given the
    owner's status read {e after} the locator itself.  Only meaningful
    on a locator known stable: one the caller owns, holds under its
    hazard slot, or validates with the seqlock generation afterwards. *)
let value_of_locator (loc : 'a locator) : 'a =
  match Txn.status loc.owner with
  | Status.Committed -> loc.new_v
  | Status.Active | Status.Aborted -> loc.old_v

(** Latest committed value, for non-transactional inspection (tests,
    debugging).  Linearizes at the linked re-check below; the seqlock
    re-check guards against the locator being recycled mid-read.

    The linked re-check after the first generation sample is load-
    bearing: generation stability alone only proves the fields came
    from a {e single} incarnation, not that the incarnation belongs to
    {e this} variable.  Without it, a reader preempted between the
    locator load and the generation sample can find the record
    displaced, recycled and refilled for a different variable — with a
    new {e even} generation — and the seqlock happily validates the
    other variable's value.  Re-checking the link inside the stable-
    generation window pins the incarnation to this variable: the
    record is linked here at the re-check, and the unchanged
    generation across the window rules out any refill in between. *)
let rec peek t =
  let loc = Atomic.get t.loc in
  let g = Atomic.get loc.gen in
  if (not (gen_stable g)) || Atomic.get t.loc != loc then peek t
  else
    let owner = loc.owner in
    let v =
      match Txn.status owner with Status.Committed -> loc.new_v | _ -> loc.old_v
    in
    if Atomic.get loc.gen = g then v else peek t

(* ------------------------------------------------------------------ *)
(* Visible readers: per-domain read logs                               *)
(* ------------------------------------------------------------------ *)

type read_log = {
  mutable ids : int array;
      (** Ids read by the current attempt, in [[0, len)].  Written only
          by the owning domain. *)
  len : int Atomic.t;
  cur : Txn.t Atomic.t;
      (** The attempt the entries belong to; left in place (decided,
          hence never a reader) once it ends. *)
}

(* Arrays above this capacity are replaced when their attempt ends, so
   one huge transaction does not keep a huge log on the domain. *)
let ids_retain_cap = 1024

let new_ids () = Array.make 64 0

(* Every live domain's log, scanned by writers. *)
let log_registry : read_log list Atomic.t = Atomic.make []

let read_log_count () = List.length (Atomic.get log_registry)

let log_key =
  Domain.DLS.new_key (fun () ->
      let l =
        { ids = new_ids (); len = Atomic.make 0; cur = Atomic.make Txn.committed_sentinel }
      in
      register_for_domain log_registry l;
      l)

let domain_read_log () = Domain.DLS.get log_key

let end_reads l =
  if Atomic.get l.len <> 0 then begin
    Atomic.set l.len 0;
    if Array.length l.ids > ids_retain_cap then l.ids <- new_ids ()
  end

(* An active [cur] is another runtime's transaction we are nested in; a
   decided one may have left entries (it nested us before noticing its
   abort), dropped before they can be credited to [txn]. *)
let begin_reads l (txn : Txn.t) =
  if Txn.is_active (Atomic.get l.cur) then
    invalid_arg "Runtime.atomically: visible transaction nested in another runtime's";
  end_reads l;
  Atomic.set l.cur txn

(* A repeat of the newest entry (a read retried after a conflict) is
   already published.  A grown array is swapped in before the [len]
   store that publishes its new entry. *)
let log_read l id =
  let n = Atomic.get l.len in
  if n = 0 || l.ids.(n - 1) <> id then begin
    if n = Array.length l.ids then begin
      let a = Array.make (2 * n) 0 in
      Array.blit l.ids 0 a 0 n;
      l.ids <- a
    end;
    l.ids.(n) <- id;
    Atomic.set l.len (n + 1)
  end

let rec ids_mem (ids : int array) id i n =
  i < n && (ids.(i) = id || ids_mem ids id (i + 1) n)

(* [cur] is loaded before and after the scan.  Unchanged, every entry
   seen was logged by that attempt (the previous attempt's [len] reset
   precedes the [cur] store; the next attempt's entries follow it).
   Changed, the scanned attempt has ended, and a later one logged its
   reads after our install CAS, so its own locator load finds us:
   reporting nothing is safe.  [len] is loaded before [ids], so the
   array holds every published entry; the [min] covers a shrink. *)
let rec find_in ~mid logs own id =
  match logs with
  | [] -> Txn.committed_sentinel
  | l :: rest ->
      let c = Atomic.get l.cur in
      if l != own && Txn.is_active c then begin
        let n = Atomic.get l.len in
        let ids = l.ids in
        mid ();
        if ids_mem ids id 0 (min n (Array.length ids)) && Atomic.get l.cur == c then c
        else find_in ~mid rest own id
      end
      else find_in ~mid rest own id

let find_reader own t = find_in ~mid:ignore (Atomic.get log_registry) own t.id
let find_reader_racing ~mid own t = find_in ~mid (Atomic.get log_registry) own t.id
