(** Runs a {!Spec} against any {!Mt_list.Set_intf.SET} implementation and
    extracts the three metrics the paper's figures report — throughput, L1
    miss rate, energy — plus per-operation latency percentiles and the
    abort-cause breakdown. *)

type result = {
  impl : string;
  spec : Spec.t;
  ops : int;                   (** operations completed in the window *)
  duration : int;              (** actual simulated cycles of the window *)
  throughput : float;          (** operations per 1000 cycles *)
  l1_miss_rate : float;        (** misses / accesses, in [0,1] *)
  energy : float;              (** total energy of the window (model units) *)
  energy_per_op : float;
  latency : Mt_obs.Hist.t;     (** per-op latency of the measured window *)
  stats : Mt_sim.Stats.t;      (** full aggregated counters of the window *)
}

(** [run_set ?cfg ?obs ?make_policy ?series ?cm set spec] builds a fresh
    machine (default config sized to [spec.threads] cores unless [cfg] is
    given), populates the structure ({!Mt_list.Set_intf.prefilled}), runs
    a warmup window, resets counters, and measures. Deterministic in
    [spec.seed]. When [obs] is a recording sink it is attached to the
    machine (all simulator events) and each logical operation additionally
    appears as a span on its core's track.

    [make_policy] builds a custom scheduling policy from the machine
    (e.g. {!Mt_check.Inject.make_policy} applied via a closure) —
    it drives the {e measured} phase only, so one-shot fault pulses are
    not consumed by warmup. [series] attaches windowed telemetry
    ({!Mt_obs.Series}) to the measured phase through
    {!Mt_core.Harness.exec}, so window 0 starts after warmup/reset.
    Requires a recording [obs] (a [retain:false] sink works — the series
    reads the live stream, not the rings).

    [cm] selects the contention-management policy consulted on every
    CAS/VAS/IAS failure and restart (see {!Mt_cm.Cm}); it applies to both
    warmup and measurement so the two phases see the same dynamics. The
    default, {!Mt_cm.Cm.immediate}, reproduces the historical behavior
    byte-for-byte. *)
val run_set :
  ?cfg:Mt_sim.Config.t ->
  ?obs:Mt_obs.Obs.t ->
  ?make_policy:(Mt_sim.Machine.t -> Mt_sim.Runtime.policy) ->
  ?series:Mt_obs.Series.t ->
  ?cm:Mt_cm.Cm.spec ->
  (module Mt_list.Set_intf.SET) ->
  Spec.t ->
  result

(** [run_custom ?cfg ?obs ?make_policy ?series ?cm ~name ~setup ~op spec] is
    the generic form used by the STM/vacation benchmarks: [setup] builds
    the shared state on core 0; [op] performs one logical operation (given
    the per-thread PRNG-equipped ctx and the state). Options as in
    {!run_set}. *)
val run_custom :
  ?cfg:Mt_sim.Config.t ->
  ?obs:Mt_obs.Obs.t ->
  ?make_policy:(Mt_sim.Machine.t -> Mt_sim.Runtime.policy) ->
  ?series:Mt_obs.Series.t ->
  ?cm:Mt_cm.Cm.spec ->
  name:string ->
  setup:(Mt_core.Ctx.t -> 'a) ->
  op:(Mt_core.Ctx.t -> 'a -> unit) ->
  Spec.t ->
  result

(** One human-readable row: throughput, L1 miss rate, energy/op, latency
    p50/p99, and the abort-cause breakdown (real vs spurious validation
    failures, CAS failures). *)
val pp_result : Format.formatter -> result -> unit

(** Stable machine-readable form of one point (the [BENCH_*.json] per-point
    schema): metrics, latency summary, abort breakdown, raw counters, and a
    fully self-describing ["spec"] object (key range, fill, mix, threads,
    warmup/measure windows, seed — everything needed to replay the point;
    [bin/json_check.exe --bench] enforces its presence for schema
    version >= 2). *)
val result_to_json : result -> Mt_obs.Json.t
