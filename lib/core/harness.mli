(** Running simulated thread groups.

    A typical experiment builds the machine once, populates the data
    structure in a single-fiber phase, resets the counters, then runs the
    measured multi-thread phase:

    {[
      let m = Machine.create cfg in
      let set = Harness.exec1 m (fun ctx -> My_set.create ctx) in
      Harness.exec m ~threads:1 (fun ctx -> populate ctx set);
      Machine.reset_stats m;
      let d = Harness.exec m ~threads:8 (fun ctx -> workload ctx set) in
      ...
    ]} *)

(** [exec machine ?seed ?policy ?series ?cm ~threads f] runs [threads]
    fibers, fiber [i] pinned to core [i] with its own PRNG stream derived
    from [seed]. [policy] (default {!Mt_sim.Runtime.default_policy})
    selects the scheduling policy; pass a fresh
    {!Mt_sim.Runtime.random_policy} to explore an alternative, fully
    reproducible interleaving of the same workload. Returns the simulated
    duration in cycles (the time the last fiber finished). Raises
    [Invalid_argument] if [threads] exceeds the machine's cores or is not
    positive. [cm] (default {!Mt_cm.Cm.immediate}) selects the
    contention-management policy; each core gets a private instance, with
    a jitter stream split off the master PRNG only for policies that draw
    randomness — so the default is byte-identical to a harness without
    policies.

    [series] makes windowed telemetry ({!Mt_obs.Series}) observe exactly
    this phase: {!Mt_obs.Series.attach} takes the machine's counters at
    entry as the baseline, {!Mt_obs.Series.feed} is the machine sink's
    tap for the phase and snapshots the counters as the event stream
    crosses each window boundary, and on return the tail window is
    closed at the final clock and the tap detached. Raises
    [Invalid_argument] unless the machine's sink records
    ([Obs.create ~retain:false] works — the series reads the live
    stream, not the rings). The series' tap replaces any
    tap already installed, so [policy] — built by the caller before this
    call — must not rely on a tap of its own while a series is attached.

    Thread safety: one [exec] per domain at a time, each on its own
    machine. Independent machines may execute concurrently on different
    OCaml domains (that is how {!Mt_par.Pool.map} parallelizes benchmark
    and fuzz sweeps); sharing one machine between domains is not
    supported. *)
val exec :
  Mt_sim.Machine.t ->
  ?seed:int ->
  ?policy:Mt_sim.Runtime.policy ->
  ?series:Mt_obs.Series.t ->
  ?cm:Mt_cm.Cm.spec ->
  threads:int ->
  (Ctx.t -> unit) ->
  int

(** [exec1 machine f] runs [f] as a single fiber on core 0 and returns its
    result (convenience for setup phases that produce a value). *)
val exec1 : Mt_sim.Machine.t -> ?seed:int -> (Ctx.t -> 'a) -> 'a
