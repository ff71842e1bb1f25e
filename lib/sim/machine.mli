(** The simulated multi-core machine.

    Functional memory contents live in {!Memory}; this module layers the
    timing model on top: per-core private L1/L2 caches, a MESI directory,
    and the per-core MemTag units. Every operation records the latency it
    cost in cycles, readable as {!last_latency} immediately after the call
    (operations whose only interesting result {e is} the latency return it
    directly as well); the caller (normally {!Memtags.Ctx} in [lib/core])
    is responsible for stalling its fiber by that amount, which is what
    makes coherence traffic translate into lost throughput. Returning the
    value bare rather than as a [(value, latency)] pair keeps the per-access
    hot path allocation-free (DESIGN §12).

    All operations are atomic with respect to the fiber scheduler (fibers
    are only preempted when they stall), so [cas]/[vas]/[ias] need no
    further synchronization — exactly like single instructions in
    Graphite's interleaving. *)

type t

(** [create ?obs cfg] — [obs] (default {!Mt_obs.Obs.null}) is the machine's
    observability sink; every coherence, tag and validation action emits a
    structured event into it when recording is enabled, at zero cost
    otherwise (one branch per hook, no allocation). A recording sink must
    have been created for at least [cfg.num_cores] cores
    ([Invalid_argument] naming both counts otherwise). *)
val create : ?obs:Mt_obs.Obs.t -> Config.t -> t

val cfg : t -> Config.t
val memory : t -> Memory.t
val num_cores : t -> int

(** The sink passed at creation (or the null sink). *)
val obs : t -> Mt_obs.Obs.t

(** Latency in cycles of the most recent operation on this machine (any
    core). Read it before issuing the next operation. *)
val last_latency : t -> int

(** The cell {!last_latency} reads. A caller that charges every access
    ({!Memtags.Ctx}) keeps it and reads [last] directly, which is not a
    call. *)
type latency = { mutable last : int }

val latency : t -> latency

(** Per-core counters; [core] must be in [0 .. num_cores-1]. *)
val stats : t -> core:int -> Stats.t

(** Aggregate of all cores' counters (fresh copy). *)
val total_stats : t -> Stats.t

(** Zero all counters (used to discard warmup). *)
val reset_stats : t -> unit

(** [alloc ?label t ~words] allocates zeroed, line-aligned simulated
    memory. [label] attributes the lines to an owning structure in the
    hot-line contention profiler (recorded only when tracing is on). *)
val alloc : ?label:string -> t -> words:int -> Memory.addr

(** {1 Plain memory operations} — results are bare values; latency via
    {!last_latency}. *)

val read : t -> core:int -> Memory.addr -> int

(** Returns the charged (store-buffered) latency, which is also what
    {!last_latency} reports. *)
val write : t -> core:int -> Memory.addr -> int -> int

(** [cas t ~core addr ~expected ~desired] — a failed CAS still acquires the
    line exclusively (that is the coherence cost VAS avoids). *)
val cas : t -> core:int -> Memory.addr -> expected:int -> desired:int -> bool

(** Fetch-and-add; returns the previous value. *)
val faa : t -> core:int -> Memory.addr -> int -> int

(** {1 MemTags operations} (paper Section 3). *)

(** [add_tag t ~core addr ~words] tags every line overlapping the range,
    fetching each line (read rights) as a side effect. Returns the total
    latency. *)
val add_tag : t -> core:int -> Memory.addr -> words:int -> int

(** [add_tag_read t ~core addr ~words] tags the range and returns the word
    at [addr] in the same access — modelling a load that carries a tag
    annotation, the common pattern "AddTag(x); read x" fused into one
    memory operation. *)
val add_tag_read : t -> core:int -> Memory.addr -> words:int -> int

val remove_tag : t -> core:int -> Memory.addr -> words:int -> int

(** [validate t ~core] — succeeds iff no tagged line was invalidated or
    evicted since tagging and the tag set never overflowed. Purely local:
    generates no coherence traffic. Does not modify the tag set. *)
val validate : t -> core:int -> bool

val clear_tag_set : t -> core:int -> int

(** Validate-and-swap. On validation failure, fails locally without any
    coherence traffic. On success, acquires the target line exclusively
    (invalidating remote copies and their tags) and stores. *)
val vas : t -> core:int -> Memory.addr -> int -> bool

(** Invalidate-and-swap. On success, additionally acquires {e every}
    currently tagged line exclusively, invalidating remote copies — the
    "transient marking" that aborts concurrent tagged traversals — then
    stores to the target. Each remote tagger interrogated counts as a tag
    probe ({!Stats.t.tag_probes_sent}/[received]) whether or not it still
    held a cached copy; [invalidations_sent/received] count only the
    probes that killed one. *)
val ias : t -> core:int -> Memory.addr -> int -> bool

(** Number of lines currently tracked by the core's tag unit. *)
val tag_count : t -> core:int -> int

(** {1 Fault-injection hooks} (adversarial scenario engine, [lib/adversary]). *)

(** [set_max_tags t n] retargets every core's tag-capacity ceiling mid-run
    — the adversary's Max_Tags-shrink fault. A core whose tag set already
    exceeds [n] latches overflow and fails its next validation spuriously
    (it recovers at its next [clear_tag_set]). No coherence traffic, no
    latency, no events: architectural state only, so an injected run stays
    a pure function of its seed. *)
val set_max_tags : t -> int -> unit

(** The current (possibly injected) ceiling; cores always agree. *)
val max_tags : t -> int

(** Direct read of simulated memory without touching the timing model
    (for assertions, invariant checkers and tests only). *)
val peek : t -> Memory.addr -> int

(** Direct write bypassing the timing model (test setup only). *)
val poke : t -> Memory.addr -> int -> unit

(** [check_coherence t] walks every cache, the directory and the tag units
    and raises [Failure] with a description on the first violated MESI
    invariant: L1 ⊆ L2 inclusion (same state at both levels), every
    resident line known to the directory with matching rights (which gives
    at-most-one M/E owner), and no phantom directory holders. For tests
    and fuzzing — never on the hot path. *)
val check_coherence : t -> unit
