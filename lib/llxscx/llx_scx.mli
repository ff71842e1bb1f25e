(** The LLX / SCX / VLX primitives of Brown, Ellen and Ruppert ("Pragmatic
    primitives for non-blocking data structures", PODC 2013), implemented
    from scratch on simulated memory.

    This is the synchronization substrate of the baseline (a,b)-tree the
    paper compares against (its reference [8]). Data-records carry an
    [info] pointer (to the SCX-record of the last operation that froze
    them) and a [marked] bit (set when the record is finalized, i.e.
    removed from the data structure). An SCX atomically:

    - verifies that none of the records in [V] changed since the caller's
      LLX on them,
    - finalizes (marks) the records in [R],
    - writes [new_val] into one mutable field.

    It does so by {e freezing} each record in [V] with a CAS on its info
    word, helping or aborting on contention — the "collaborative
    operation-locking protocol" whose coherence cost MemTags eliminates. *)

type addr = Mt_core.Ctx.addr

(** {1 Data-records}

    A data-record has a fixed number of mutable word fields plus an
    arbitrary immutable payload managed by the client. Layout (word
    offsets): 0 [info], 1 [marked], 2 [nfields], 3.. mutable fields, then
    the client's immutable payload. *)

(** [alloc_record ctx ~mutable_fields ~extra_words] allocates a fresh
    data-record with [mutable_fields] mutable slots and [extra_words]
    immutable payload words; returns its address. The record starts
    unmarked with a quiescent info. *)
val alloc_record : Mt_core.Ctx.t -> mutable_fields:int -> extra_words:int -> addr

(** Address of mutable field [i] of record [r] (for SCX's [fld]). *)
val field_addr : addr -> int -> addr

(** Address of the first immutable payload word. *)
val payload_addr : addr -> mutable_fields:int -> addr

(** Write mutable field [i] directly — only valid during initialisation,
    before the record is published. *)
val init_field : Mt_core.Ctx.t -> addr -> int -> int -> unit

(** {1 LLX / SCX} *)

type snapshot = {
  record : addr;
  info : int;           (** info value observed (for the freezing CAS) *)
  fields : int array;   (** snapshot of the mutable fields *)
}

type llx_result = Snapshot of snapshot | Finalized | Fail

(** [llx ctx ?fields r] — [fields] (default: all) limits the snapshot to
    the first [fields] mutable fields, for clients whose records use a
    size-dependent prefix of their slots. *)
val llx : ?fields:int -> Mt_core.Ctx.t -> addr -> llx_result

(** Number of mutable fields of a record (one simulated read). *)
val nfields : Mt_core.Ctx.t -> addr -> int

(** [vlx ctx snapshot] — true iff the record has not changed since the
    LLX that produced [snapshot]. *)
val vlx : Mt_core.Ctx.t -> snapshot -> bool

(** [scx ctx ~v ~r ~fld ~old_val ~new_val] — [v] are snapshots from this
    operation's LLXs (every record whose state the operation depends on);
    [r] lists the record addresses to finalize (must be a subset of [v]);
    [fld] is the single mutable-field address to write, and [old_val] the
    value for it observed by the LLX of its record. Returns [false] if any
    record in [v] changed since its LLX. Lock-free: helps or aborts
    conflicting operations. *)
val scx :
  Mt_core.Ctx.t ->
  v:snapshot list ->
  r:addr list ->
  fld:addr ->
  old_val:int ->
  new_val:int ->
  bool

(** [is_marked_unsafe machine r] — timing-free read of the finalized bit
    (tests only). *)
val is_marked_unsafe : Mt_sim.Machine.t -> addr -> bool

(** Timing-free read of a record's mutable-field count (test oracles). *)
val nfields_unsafe : Mt_sim.Machine.t -> addr -> int

(** Timing-free read of mutable field [i] (test oracles). *)
val field_unsafe : Mt_sim.Machine.t -> addr -> int -> int
