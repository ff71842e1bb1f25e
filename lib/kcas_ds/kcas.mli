(** Multi-word compare-and-swap after Harris, Fraser and Pratt (DISC 2002),
    built on RDCSS descriptors in simulated memory, plus the tag-based
    accelerations the paper sketches in Section 1: cheap lock-free
    snapshots of a set of locations, and a fail-fast kCAS that detects a
    doomed operation locally before writing any descriptor.

    kCAS words hold {e encoded} client values (2 tag bits are reserved to
    distinguish descriptors), so cells managed by this module must be
    written through {!set}/{!kcas} and read through {!get}. Client values
    must fit in 60 bits and be non-negative. *)

type addr = Mt_core.Ctx.addr

(** An update of one word: [addr] from [expected] to [desired]. *)
type update = { addr : addr; expected : int; desired : int }

(** [init ctx addr v] initialises a kCAS-managed cell (unsynchronized;
    use before the cell is shared). *)
val init : Mt_core.Ctx.t -> addr -> int -> unit

(** [get ctx addr] reads a kCAS-managed cell, helping any operation in
    progress there. *)
val get : Mt_core.Ctx.t -> addr -> int

(** [cas ctx addr ~expected ~desired] — single-word CAS on a kCAS-managed
    cell (the degenerate 1-CAS, no descriptor): helps any operation in
    progress, then succeeds iff the cell holds [expected]. *)
val cas : Mt_core.Ctx.t -> addr -> expected:int -> desired:int -> bool

(** [kcas ctx updates] atomically applies all updates iff every cell holds
    its expected value. Lock-free (helps conflicting operations).
    Duplicate addresses are invalid. *)
val kcas : Mt_core.Ctx.t -> update list -> bool

(** [kcas_tagged ctx updates] — same semantics, with the MemTags fast
    path: all target cells are tagged and compared first; a mismatch or a
    broken tag fails/retries locally before any descriptor is installed,
    avoiding the coherence traffic of doomed install CASes. *)
val kcas_tagged : Mt_core.Ctx.t -> update list -> bool

(** [snapshot ctx addrs] — an atomic snapshot of the cells obtained by
    tagging, reading, and validating (retrying on conflict); the paper's
    "cheap lock-free snapshots". Returns [None] if [addrs] exceeds the
    tag capacity as the machine sets it when an attempt starts
    ({!Mt_sim.Machine.max_tags}, which the adversary may lower). *)
val snapshot : Mt_core.Ctx.t -> addr list -> int list option
