(** Transactional variables — the STM's shared objects, following the
    DSTM/SXM locator protocol.

    The variable atomically points at a {e locator}: the owning
    attempt, the last committed value [old_v], and the tentative value
    [new_v].  The logical value is [new_v] if the owner committed,
    [old_v] otherwise.  Writers acquire by CAS-installing a locator
    they own; [new_v] is mutated exclusively by the active owner and is
    published through the owner's atomic status transition
    (message-passing pattern, safe under the OCaml memory model).

    Locators are {e pooled} per domain, so the steady-state write path
    allocates nothing.  Pooling makes locator fields mutable, guarded
    by two mechanisms (see the implementation for the full argument):

    - a {e two-phase seqlock generation} [gen]: a refill bumps it to
      an odd value before its field stores and to the next even value
      after.  Readers retry on an odd generation and re-check the
      generation after reading fields — unchanged (hence even) proves
      the fields belong to one completed incarnation, the one linked
      at the initial load;
    - one {e hazard slot} per domain: publish the locator you are
      about to dereference, re-check it is still linked, and it cannot
      be refilled until you clear the slot.  The freelist pop scans
      all hazard slots and {e drops} (never reuses) held candidates.

    {b Reclamation rule}: a locator may be recycled only once its
    owner's status is decided {e and} it is unlinked from the variable
    — in practice, by the writer whose CAS displaced it (or for a
    locator that lost its install CAS and was never published).  A
    still-published locator must never be recycled: concurrent readers
    resolve values through it.

    [version] carries a stamp from a global clock, advanced by
    invisible-mode writers on locator install and commit publication;
    invisible readers compare it against the clock value their read set
    is known valid at, turning the common-case revalidation into a
    single load (see [Runtime]).

    Visible readers are recorded in one read log per domain, not in
    the variable: a read appends the variable's id to its domain's log
    and publishes it before loading the locator, and a writer scans
    the other domains' logs after its install CAS, so writers resolve
    read-write conflicts through the contention manager, matching the
    paper's conflict definition. *)

type 'a locator = {
  mutable owner : Txn.t;
  mutable old_v : 'a;
  mutable new_v : 'a;
  gen : int Atomic.t;
      (** Two-phase incarnation counter; odd while a refill is in
          flight, even once the incarnation is complete. *)
}

type 'a t = {
  id : int;
  loc : 'a locator Atomic.t;
  version : int Atomic.t;  (** Stamp of the last invisible-writer event. *)
}

val make : 'a -> 'a t

val id : 'a t -> int

val value_of_locator : 'a locator -> 'a
(** Value as seen by an outside observer (owner status read after the
    locator itself).  Only meaningful on a locator known stable —
    owned, hazard-protected, or seqlock-validated by the caller. *)

val peek : 'a t -> 'a
(** Latest committed value, for non-transactional inspection (tests,
    debugging); linearizes at the atomic load of the locator
    (seqlock-guarded against concurrent recycling). *)

val unsafe_init : 'a t -> 'a -> unit
(** Non-transactional store (fresh committed locator), for bulk
    preloading {e before} the variable is published to any
    transaction.  Bypasses conflict detection on both backends: unsound
    the moment a concurrent transaction may have read the variable. *)

(** {2 Locator pool (per-domain freelist + hazard slot)} *)

type pool
(** A domain's locator freelist and hazard slot.  Only ever used by
    the owning domain, except that other domains' freelist pops read
    the hazard slot. *)

val domain_pool : unit -> pool
(** The calling domain's pool (created on first use; shared by every
    runtime on the domain). *)

val take_locator : pool -> owner:Txn.t -> old_v:'a -> new_v:'a -> 'a locator
(** A locator owned by [owner] with the given value slots (tentative
    value preset before publication); refilled from the freelist when
    possible, freshly allocated otherwise.  {!last_take_hit} reports
    which (out-of-band, so the hot path allocates no tuple). *)

val last_take_hit : pool -> bool
(** Whether the most recent {!take_locator} on this pool was a
    freelist refill. *)

val recycle_locator : pool -> 'a locator -> bool
(** Return a locator to the freelist.  Caller must uphold the
    reclamation rule: owner decided, and unlinked (displaced by the
    caller's CAS, or never published).  [false] when the pool was full
    and the locator was dropped for the GC. *)

val protect : pool -> 'a locator -> unit
(** Publish the locator in this domain's hazard slot.  After a
    subsequent check that it is still linked, its fields are frozen
    until {!unprotect}. *)

val unprotect : pool -> unit
(** Clear this domain's hazard slot. *)

val locator_gen : 'a locator -> int
(** Current incarnation of the locator (seqlock read protocol: load
    locator, load generation — retry if {!gen_stable} says it is odd —
    read fields, re-check generation). *)

val gen_stable : int -> bool
(** Whether a generation value is even, i.e. no refill was in flight
    when it was read.  Fields read under an odd generation may mix
    incarnations and must be discarded. *)

val pool_size : pool -> int
(** Number of locators currently on the freelist (tests). *)

val hazard_slot_count : unit -> int
(** Number of registered hazard slots — one per live domain that has
    used a pool; slots are unregistered at domain exit (tests). *)

(** {2 Version stamps (invisible-read validation)} *)

val now : unit -> int
(** Current value of the global stamp clock. *)

val next_stamp : unit -> int
(** Advance the global clock and return the new stamp. *)

val version : 'a t -> int
(** The variable's current stamp. *)

val stamp_cell : 'a t -> int Atomic.t
(** The stamp cell itself, for bulk publication at commit time. *)

val advance_stamp : int Atomic.t -> int -> unit
(** Monotone stamp store: moves the cell forward to the given stamp,
    never backward (a lagging publication must not undo a newer
    owner's bump). *)

val bump_version : 'a t -> unit
(** Move the variable's stamp past every watermark taken so far. *)

(** {2 Visible readers (per-domain read logs)} *)

type read_log
(** A domain's visible-read log: the variable ids its current attempt
    has read.  Written only by the owning domain; scanned by writers
    on other domains. *)

val domain_read_log : unit -> read_log
(** The calling domain's log (created and registered on first use;
    shared by every runtime on the domain, dropped from the registry
    when the domain exits). *)

val begin_reads : read_log -> Txn.t -> unit
(** Make the given attempt the log's owner, dropping entries a decided
    attempt left; call before its first read.
    @raise Invalid_argument while another attempt owning the log is
    still active: a visible transaction of one runtime nested in
    another runtime's on the same domain, whose entries it would clear
    or claim.  (Nesting on one runtime flattens and never gets here.) *)

val log_read : read_log -> int -> unit
(** Log a read of the variable with this id and publish it with one SC
    store of the log's length.  Load the variable's locator only after
    this returns: the store pairs with a writer's SC install CAS, so
    either the writer's scan finds the entry or the reader's load finds
    the writer (Dekker). *)

val end_reads : read_log -> unit
(** Empty the log; call only once the attempt's status is decided (a
    decided attempt is no reader, so its entries may vanish). *)

val find_reader : read_log -> 'a t -> Txn.t
(** An active attempt on another domain (not the owner of the given
    log) that logged a read of the variable, or
    [Txn.committed_sentinel], which is never active.  Call after the
    install CAS. *)

val find_reader_racing : mid:(unit -> unit) -> read_log -> 'a t -> Txn.t
(** {!find_reader} that runs [mid] in the middle of each scanned log's
    scan, after its [len] load and before its entries are compared —
    the window in which the scanned domain may switch attempts
    (tests). *)

val read_log_count : unit -> int
(** Number of registered read logs — one per live domain that has
    used one (tests). *)
