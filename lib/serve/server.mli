(** Open-loop request service: arrivals, one shared queue, batching,
    drop-on-full admission.

    Closed-loop workloads ({!Mt_workload.Driver}) issue the next operation
    the instant the previous one completes, so queueing delay is invisible
    and throughput saturates gracefully. This module instead offers load to
    the structure at a configured rate, independent of how fast it is being
    served: one arrival fiber generates timestamped requests from an
    {!Arrival} process into one shared bounded FIFO, dropping a request
    for good when the queue is full; [workers] worker fibers dequeue (up
    to [batch] at a time), execute each request against the backend, and
    record queueing delay, service time and end-to-end latency
    separately. Past saturation the queue fills, goodput plateaus and the
    end-to-end tail explodes — the regime a structure serving real
    traffic actually lives in.

    Everything is driven by simulated time and seeded PRNGs: a run is a
    pure function of its [config], so sweeps are byte-identical for any
    [--jobs] value and with tracing on or off. *)

type config = {
  workers : int;  (** worker fibers (cores 0..workers-1; arrivals on core [workers]) *)
  batch : int;  (** max requests moved per dequeue (>= 1) *)
  queue_capacity : int;  (** bound of the shared queue *)
  process : Arrival.process;  (** always [Poisson]; see {!Arrival.process} *)
  rate_per_kcycle : float;  (** offered load: requests per 1000 cycles *)
  horizon : int;  (** arrivals stop at this simulated time; workers drain *)
  seed : int;
}

(** [config ~workers ~rate_per_kcycle ()] with defaults: batch 1, capacity
    64, Poisson arrivals, horizon 150_000, seed 1. Each dequeued batch
    costs a fixed 16-cycle dispatch. An idle worker sleeps until one cycle
    after the next arrival. Which worker takes a request is not part of
    the config: it is the [?dispatch] rule of {!run}, fixed priority
    unless the caller chooses otherwise. *)
val config :
  ?batch:int ->
  ?queue_capacity:int ->
  ?process:Arrival.process ->
  ?horizon:int ->
  ?seed:int ->
  workers:int ->
  rate_per_kcycle:float ->
  unit ->
  config

(** Which idle worker takes a queued request (see {!run}).
    - [Fixed_priority]: any worker takes requests while the queue is
      non-empty, so the lowest-numbered idle worker takes each one.
    - [Packed]: worker [w] takes requests only while more than [w] are
      queued, so worker 0 takes any request and worker [w > 0] joins
      only once the backlog exceeds [w]. *)
type dispatch = Fixed_priority | Packed

type result = {
  backend : string;
  config : config;
  generated : int;  (** requests created by the arrival process *)
  completed : int;
  dropped : int;  (** arrived to a full queue and dropped *)
  still_queued : int;  (** left in the queue at the end (0 after a drain) *)
  duration : int;  (** simulated time when the last fiber finished *)
  offered : float;  (** [config.rate_per_kcycle] *)
  goodput : float;
      (** completed requests per 1000 cycles of [duration] — the sustained
          completion rate including the post-horizon drain, so overload
          cannot credit queued backlog as capacity *)
  drop_rate : float;  (** dropped / generated *)
  queue_wait : Mt_obs.Hist.t;  (** arrival -> dequeue, cycles *)
  service : Mt_obs.Hist.t;  (** dequeue -> completion, cycles *)
  e2e : Mt_obs.Hist.t;  (** arrival -> completion, cycles *)
  batch_fill : Mt_obs.Hist.t;  (** requests actually moved per dequeue *)
  max_depth : int;  (** high-water occupancy of the queue *)
  class_names : string array;
      (** per-request-class breakdown labels ([[||]] unless [?classes]
          was passed to {!run}) *)
  class_counts : int array;  (** completions per class, same index *)
  class_service : Mt_obs.Hist.t array;  (** service time per class *)
  class_e2e : Mt_obs.Hist.t array;  (** end-to-end latency per class *)
}

(** [run ?cfg ?obs ?make_policy ?series ?classes ?dispatch ~name ~setup ~op
    config] — the open-loop analogue of {!Mt_workload.Driver.run_custom}:
    [setup] builds the backend on core 0;
    [op ctx state payload] executes one request ([payload] is 62 bits of
    seeded per-request randomness that determines the operation). The
    machine defaults to [workers + 1] cores (the extra core runs the
    arrival fiber). Deterministic in [config.seed].

    Requests are conserved: [generated = completed + dropped +
    still_queued] always holds, and [still_queued] is 0 because workers
    drain the queue after arrivals stop. Dequeues are globally FIFO.

    [dispatch] (default [Fixed_priority]) picks the worker; see
    {!dispatch}. Under the default policy a request that an idle worker
    may take is taken one cycle after it arrives. Under [Packed] low load
    stays on worker 0 even while it is busy; once arrivals are done a
    worker that finds [w] or fewer queued exits and worker 0 drains the
    rest. Packing keeps a warm cache serving at the price of queueing
    delay: it suits a backend whose cold service is much slower than its
    warm service ([Mt_store.Store_serve.run] uses it), and measured
    worse on the set backends, which keep the default (DESIGN §9). Idle
    workers do not poll under either rule; each sleeps until one cycle
    after the next arrival (only arrivals raise the depth), which gives
    exactly the schedule of polling every cycle with one wake per idle
    worker per arrival. Under a policy with random ties
    ({!Mt_sim.Runtime.random_policy}) any eligible idle worker may win.

    Every request is a causal chain in the event stream — [Req_arrive] at
    generation, [Req_enqueue] or [Req_drop] at admission,
    [Req_dequeue] at pickup, [Req_commit] at completion, all carrying the
    request id — which the trace exporter renders as Perfetto flow
    arrows. [make_policy] builds a custom scheduling policy from the
    machine (fault injection); [series] attaches windowed telemetry
    ({!Mt_obs.Series}) to the serving phase through
    {!Mt_core.Harness.exec} (requires a recording [obs]; a [retain:false]
    sink works). Both apply to the serving phase only, never setup.

    [classes = (names, classify)] buckets each completed request by
    [classify payload] (an index into [names]; out-of-range means
    unclassified) into the per-class counts and latency histograms of the
    result — host-level accounting, never perturbing the simulation. *)
val run :
  ?cfg:Mt_sim.Config.t ->
  ?obs:Mt_obs.Obs.t ->
  ?make_policy:(Mt_sim.Machine.t -> Mt_sim.Runtime.policy) ->
  ?series:Mt_obs.Series.t ->
  ?classes:string array * (int -> int) ->
  ?dispatch:dispatch ->
  name:string ->
  setup:(Mt_core.Ctx.t -> 'a) ->
  op:(Mt_core.Ctx.t -> 'a -> int -> unit) ->
  config ->
  result

(** [run_set ?obs ?make_policy ?series ?insert_pct ?delete_pct set
    ~key_range config] serves a {!Mt_list.Set_intf.SET} backend on the
    default machine: the structure is prefilled to half the key range
    ({!Mt_list.Set_intf.prefilled}) and each request performs an
    insert/delete/contains on a payload-derived key with the given mix
    (defaults 35/35/30, like the paper's write-heavy workload). Options as
    in {!run}. *)
val run_set :
  ?obs:Mt_obs.Obs.t ->
  ?make_policy:(Mt_sim.Machine.t -> Mt_sim.Runtime.policy) ->
  ?series:Mt_obs.Series.t ->
  ?insert_pct:int ->
  ?delete_pct:int ->
  (module Mt_list.Set_intf.SET) ->
  key_range:int ->
  config ->
  result

(** One human-readable row: offered vs goodput, drop rate, wait/e2e
    percentiles (p50/p99/p99.9), mean batch fill. *)
val pp_result : Format.formatter -> result -> unit

(** Stable machine-readable form of one service point (the latency-sweep
    schema): the full serve configuration, conservation counters, goodput,
    and the three latency histograms. Extend, don't reorder. *)
val result_to_json : result -> Mt_obs.Json.t
