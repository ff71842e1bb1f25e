(** Per-thread handle to the simulated machine: the MemTags programming API.

    A [Ctx.t] binds a fiber to a simulated core. Every operation goes
    through the machine's timing model and stalls the calling fiber for the
    cycles it cost, so algorithmic synchronization choices translate
    directly into simulated throughput.

    Operations mirror the paper's Section 3 primitives: AddTag (as the
    tagged load [add_tag_read]), [remove_tag], [validate], [vas], [ias],
    [clear_tag_set], alongside the conventional [read]/[write]/[cas] that
    baseline data structures use. *)

type t

type addr = Mt_sim.Memory.addr

(** [make machine ~rt ~core ~prng] — normally done by {!Harness}, which
    threads the fiber runtime [rt] driving this simulation through every
    context (one runtime per machine per run; nothing is process-global,
    so independent simulations can run on different domains). [cm] is
    this core's contention-management policy instance; defaults to
    [immediate] (retry at once — the behavior before policies existed). *)
val make :
  ?cm:Mt_cm.Cm.t ->
  Mt_sim.Machine.t ->
  rt:Mt_sim.Runtime.t ->
  core:int ->
  prng:Mt_sim.Prng.t ->
  t

val machine : t -> Mt_sim.Machine.t

(** The fiber runtime this context's simulation runs on. *)
val runtime : t -> Mt_sim.Runtime.t

val core : t -> int
val prng : t -> Mt_sim.Prng.t

(** The machine's observability sink — hook sites above the simulator
    (STM, kCAS) emit their structured events through this; guard with
    [Mt_obs.Obs.enabled] before constructing an event. *)
val obs : t -> Mt_obs.Obs.t

(** Current simulated time of the calling fiber, in cycles. *)
val now : t -> int

(** [work t n] charges [n] cycles of local computation (instruction cost
    of non-memory work such as key comparisons or node construction). *)
val work : t -> int -> unit

(** [alloc ?label t ~words] allocates zeroed, line-aligned simulated memory
    and charges a small allocator cost. [label] names the owning structure
    for the hot-line contention profiler. *)
val alloc : ?label:string -> t -> words:int -> addr

(** {1 Plain shared-memory operations} *)

val read : t -> addr -> int
val write : t -> addr -> int -> unit
val cas : t -> addr -> expected:int -> desired:int -> bool
val faa : t -> addr -> int -> int

(** {1 MemTags operations} *)

(** [add_tag_read t addr ~words] tags the range and returns the word at
    [addr] in one access (a tagged load). *)
val add_tag_read : t -> addr -> words:int -> int

(** How a walk reads the first word of each line it visits: a plain
    {!read} ({!plain_load}) or a tagged load ({!add_tag_read}, whose
    [words] name the lines to tag). One walk written over a [load] serves
    both a plain pass and a tag-certified one. *)
type load = t -> addr -> words:int -> int

(** {!read} of [addr], ignoring [words]. *)
val plain_load : load

(** Raised by {!tagged_load} instead of tagging past the ceiling. *)
exception Tag_set_full

(** {!add_tag_read}, or {!Tag_set_full} when the tag set already holds
    the live ceiling's worth of lines ({!Mt_sim.Machine.max_tags}, which
    the adversary may lower mid-run). *)
val tagged_load : load

val remove_tag : t -> addr -> words:int -> unit
val validate : t -> bool
val clear_tag_set : t -> unit
val vas : t -> addr -> int -> bool
val ias : t -> addr -> int -> bool
val tag_count : t -> int

(** {1 Contention management}

    Optimistic retry sites consult the context's policy (DESIGN §14)
    instead of spinning. The default [immediate] policy computes no
    waits, draws no randomness and keeps no state, so runs under it are
    byte-identical to the pre-policy tree. *)

(** [cm_wait ?site t ~attempt] asks the policy for a wait before retry
    number [attempt] (0-based), then charges it through the ordinary
    stall path, counts it in {!Mt_sim.Stats} and emits
    {!Mt_obs.Obs.Cm_wait}, which names the contended location [site]. A
    zero wait (always, under [immediate]) does nothing at all. *)
val cm_wait : ?site:addr -> t -> attempt:int -> unit

(** [cm_wait_default ?site t ~attempt ~default] — for retry sites that
    already carried a hand-rolled backoff: under [immediate] charges
    [default ()] cycles (today's behavior exactly, including any PRNG
    draws the closure makes); under any other policy skips the default
    and waits per {!cm_wait}. *)
val cm_wait_default : ?site:addr -> t -> attempt:int -> default:(unit -> int) -> unit

(** Raised by optimistic bodies run under {!with_restarts} to abandon
    the attempt. *)
exception Restart

(** [restart t] aborts the current optimistic attempt. *)
val restart : t -> 'a

(** [with_restarts ?site t f] runs the optimistic body [f] until it
    returns without raising {!Restart}; each restart clears the tag set,
    consults the contention policy ({!cm_wait}) and retries. This is the
    shared form of the structures' former copy-pasted retry loops. *)
val with_restarts : ?site:addr -> t -> (unit -> 'a) -> 'a

(** [certified ?site t walk] is the paper's Section 3 certified read:
    it runs [walk tagged_load], so every line the walk reads is tagged,
    then validates once. [Some r] when the validate passes: no line
    read was written before it, so [r] is what the walk returns over
    memory as it stands at the validate. [None] when the walk outgrows
    the tag set. A failed validate restarts the walk through
    {!with_restarts}. The tag set is empty on return. [walk] may raise
    {!Restart} itself. *)
val certified : ?site:addr -> t -> (load -> 'a) -> 'a option
