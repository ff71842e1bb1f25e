(** Windowed time-series telemetry.

    A series partitions the simulated clock into fixed-width windows
    ([window] cycles, default 5000) and folds two deterministic inputs
    into per-window metrics:

    - the live Obs event stream, delivered through {!Obs.set_tap} — ops
      (span completions) and their latency histogram, abort causes,
      tag churn and occupancy, service-layer queue activity;
    - cumulative machine counters, read through the closure given to
      {!attach} each time the event stream crosses a window boundary and
      differenced into per-window deltas — L1 hits/misses, coherence
      messages, invalidations, writebacks, tag overflows, and the
      adversary's heat metric.

    {b Determinism contract}: the output is a pure function of the fed
    events and snapshots. A series never reads the sink's rings, so it is
    byte-identical with trace retention on or off ([Obs.create
    ~retain:false]), and — one series per sweep point, like one sink per
    point — for any [--jobs] value. Zero overhead when unused: no tap, no
    cost. *)

type t

(** Cumulative machine counters at a point in time (shape-independent of
    [Mt_sim.Stats] so the dependency points the right way). [c_heat] is
    the adversary's contention temperature. *)
type counters = {
  c_l1_hits : int;
  c_l1_misses : int;
  c_coherence_msgs : int;
  c_invalidations : int;
  c_writebacks : int;
  c_tag_overflows : int;
  c_heat : int;
}

(** [create ?window ()] — an empty series with [window]-cycle windows. *)
val create : ?window:int -> unit -> t

(** [attach t read] starts a measured phase whose clock begins at 0:
    [read ()] now is the counter baseline (so the first window's delta
    excludes warmup), and from here on {!feed} calls [read] once for
    every window boundary an event's time reaches or crosses, before
    folding that event, closing each window's counter delta. The phase's
    sink must emit an event at every clock advance before any other
    event at the new time ({!Mt_sim.Runtime.run} does on a recording
    sink), so each snapshot sees the counters exactly as the clock
    reached the boundary. *)
val attach : t -> (unit -> counters) -> unit

(** The Obs tap: fold one event into its window (window index =
    [time / window]). Ops are attributed to the window their span ends
    in; [Fault] events become timeline marks. *)
val feed : t -> Obs.event -> unit

(** [finish t ~time] closes the attached phase at its final clock
    [time]: any boundary not yet crossed up to [time] is closed, and the
    tail delta goes to the final (possibly partial) window. Safe when
    [time] lands exactly on a boundary. *)
val finish : t -> time:int -> unit

(** Fault-injection marks, oldest first: [(time, label)]. *)
val marks : t -> (int * string) list

(** All per-window latency histograms merged ({!Hist.merge}) into one
    run-level summary. *)
val latency_summary : t -> Hist.t

(** Deterministic JSON: window geometry, marks, one object per window
    (throughput, abort breakdown, tag churn/occupancy/overflows, memory
    traffic and L1 miss rate, heat, serve activity, latency histogram),
    and the merged latency summary. Contains no JSON nulls. *)
val to_json : t -> Json.t

(**/**)

(* Exposed for the unit tests. *)
type window = {
  w_t0 : int;
  mutable w_ops : int;
  mutable w_validate_real : int;
  mutable w_validate_spurious : int;
  mutable w_vas_fail : int;
  mutable w_ias_fail : int;
  mutable w_stm_aborts : int;
  mutable w_tag_adds : int;
  mutable w_tag_removes : int;
  mutable w_tag_evict_capacity : int;
  mutable w_tag_evict_conflict : int;
  mutable w_tag_occupancy_end : int;
  mutable w_occ_seen : bool;
  mutable w_enqueues : int;
  mutable w_dequeues : int;
  mutable w_drops : int;
  mutable w_commits : int;
  mutable w_max_depth : int;
  mutable w_store_ops : int;
  mutable w_txn_commits : int;
  mutable w_scan_ok : int;
  mutable w_scan_fail : int;
  mutable w_snap_attempts : int;
  mutable w_snap_invalid : int;
  mutable w_cm_waits : int;
      (** contention-policy waits ({!Obs.kind.Cm_wait} events) *)
  mutable w_cm_wait_cycles : int;
  w_shard_ops : (int, int) Hashtbl.t;
  w_lat : Hist.t;
  mutable w_snap : counters;
}

val windows : t -> window array
