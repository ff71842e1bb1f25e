(** Cooperative fiber runtime driven by simulated time.

    Each simulated thread runs as an OCaml 5 effect-handled fiber pinned to
    one simulated core. Whenever a fiber incurs simulated latency it
    performs {!stall}; the scheduler then resumes whichever fiber has the
    smallest local clock (ties broken by fiber id), giving a deterministic
    interleaving at memory-access granularity — the granularity at which
    coherence races occur on real hardware and in Graphite.

    {b Concurrency contract}: all scheduler state lives in the {!t} value,
    so independent runtimes (each driving its own machine) may run
    concurrently on different OCaml domains — one active [run] per domain,
    enforced. {!now} resolves against the domain's active run. Nothing
    may be shared between simulations running on different domains: one
    machine, one runtime, one domain. *)

type t

(** Raised {e inside} still-suspended fibers when a run is torn down
    because another fiber's exception escaped: each pending continuation
    is resumed with [Aborted] at its stall point so cleanup handlers run
    and nothing leaks. Fiber code normally lets it propagate. *)
exception Aborted

(** A scheduling policy decides how ready fibers are ordered. The default
    resumes the fiber with the smallest local clock, ties broken by fiber
    id — the "hardware-faithful" schedule. Alternative policies perturb
    that order to explore other coherence interleavings of the same
    program; every policy is deterministic given its construction
    parameters, so any schedule can be replayed exactly from its seed. *)
type policy

(** The historical schedule: no injected delay, ties broken by fiber id. *)
val default_policy : policy

(** [random_policy ?max_delay ~seed ()] builds a fresh seeded exploration
    policy: every stall is lengthened by a uniform random delay in
    [0, max_delay] cycles (modelling preemption/jitter) and readiness ties
    are broken by random priorities. Two policies built with the same
    arguments drive byte-identical schedules; a policy value is stateful
    and must not be reused across runs if replayability matters — build a
    fresh one per run. *)
val random_policy : ?max_delay:int -> seed:int -> unit -> policy

(** [make_policy ?extra_delay ?tie_of ()] builds a custom policy
    from raw hooks. [extra_delay ~tid ~now] is consulted at every stall of
    fiber [tid], where [now] is the fiber's local clock {e before} the
    stall is applied; the returned extra latency is added to the stall.
    [tie_of ~tid] breaks readiness ties (it must never return the same key
    for two distinct ready fibers; keep [tid] in the low bits). Hooks may
    carry state (e.g. a seeded PRNG, fault injectors): they are invoked in
    scheduler order, which is deterministic, so a policy whose hooks are a
    pure function of their construction seed drives replayable schedules.
    Defaults are the {!default_policy} hooks. *)
val make_policy :
  ?extra_delay:(tid:int -> now:int -> int) ->
  ?tie_of:(tid:int -> int) ->
  unit ->
  policy

(** [decorate_policy base ~extra_delay] wraps [base]: readiness ties
    are still broken by [base], and every stall first consults [base]'s
    delay (so [base]'s PRNG stream is consumed identically), then passes it
    to the decorator as [~base]. This is how fault injectors stack on top
    of {!random_policy} without disturbing its draw sequence. *)
val decorate_policy :
  policy ->
  extra_delay:(tid:int -> now:int -> base:int -> int) ->
  policy

val create : unit -> t

(** [spawn t body] registers a fiber. Fibers spawned before {!run} start
    at simulated time 0 in spawn order. Spawning while [t] is running —
    from a fiber or a tick callback of that same run — enqueues the new
    fiber into the live schedule: it gets the next fiber id and starts at
    the current simulated time (and, like any registered fiber, from time
    0 in subsequent runs of the same [t]). Raises [Invalid_argument] if
    [t] is running on a different domain. *)
val spawn : t -> (unit -> unit) -> unit

(** [run ?policy ?obs t] executes all fibers to completion under [policy]
    (default {!default_policy}). At most one run may be active per domain
    at a time, and a given [t] can only run on one domain at a time (both
    enforced). An exception escaping a fiber aborts the whole run: every
    still-suspended fiber is discontinued with {!Aborted} (so its cleanup
    handlers run and its continuation is not leaked), the ready queue is
    left empty, and the original exception is re-raised — the runtime and
    the domain remain usable for subsequent runs. When [obs] is a
    recording sink, every scheduling step emits fiber stall/resume events
    onto the stalling fiber's core track (simulated timestamps only —
    tracing never perturbs the schedule).

    [tick] is a periodic scheduler hook [(interval, f)]: [f ~now:(k *
    interval)] fires once for every boundary the simulated clock reaches
    or crosses, in boundary order, from scheduler context between fiber
    steps. The callback must only observe (snapshot counters, sample
    state) — it runs outside any fiber and must not stall or spawn.
    Boundaries beyond the final clock never fire; the window telemetry
    layer closes the tail explicitly. Ticking never perturbs the
    schedule. *)
val run :
  ?policy:policy ->
  ?obs:Mt_obs.Obs.t ->
  ?tick:int * (now:int -> unit) ->
  t ->
  unit

(** [stall n] suspends the calling fiber for [n >= 0] simulated cycles.
    Must be called from within a fiber. *)
val stall : int -> unit

(** [stall_on t n] is [stall n] resolving the runtime through [t] instead
    of domain-local state, for code that already holds the runtime it
    runs under; {!lane} says when a caller may skip it. The caller must
    be a fiber of [t]'s active run on the current domain; passing any
    other runtime is undefined. *)
val stall_on : t -> int -> unit

(** The running fiber's stall lane (DESIGN §12). [now] is the simulated
    clock ({!clock}). While a fiber runs under the default hooks
    ({!default_policy}, or {!make_policy} given none) with no recording
    sink, [limit] is the earliest clock at which another fiber would be
    scheduled first or a tick boundary crossed: if [now + n < limit],
    then [now <- now + n] is exactly what [stall_on t n] would do, and a
    caller may do it instead (Ctx does, without a call). Otherwise — or
    when [limit] is [min_int]: another policy, a recording sink, no
    fiber running — it must call {!stall_on}. The record is allocated
    once per runtime. *)
type lane = { mutable now : int; mutable limit : int }

val lane : t -> lane

(** [clock t] is [t]'s simulated clock: the current time while [t] is
    running, the final time of its last run otherwise. *)
val clock : t -> int

(** [now ()] is the calling fiber's local clock, resolved against the
    domain's active run. Outside any run it is the final time of the last
    run completed on this domain. *)
val now : unit -> int

