(** Windowed time-series telemetry.

    A series partitions the simulated clock into fixed-width windows
    ([window] cycles, default 5000). Each window is one int array, and
    each quantity in it has one source:

    - {!counter} fields are deltas of cumulative machine counters, read
      through the closure given to {!attach} each time the event stream
      crosses a window boundary: real and spurious validation failures,
      VAS and IAS failures, tag adds, removes and overflows, L1
      hits/misses, coherence messages, invalidations, writebacks, the
      adversary's heat metric, and contention-policy waits and their
      cycles;
    - {!tally} fields count the live Obs event stream, delivered through
      {!Obs.set_tap}, for what no machine counter holds: ops (span
      completions) and their latency histogram, STM aborts, tag
      evictions and occupancy, service-layer queue activity and store
      activity. [Fault] events become timeline marks.

    One table of (JSON group, key, cell) defines the window's fields and
    its JSON: {!keys} lists it.

    {b Determinism contract}: the output is a pure function of the fed
    events and snapshots. A series never reads the sink's rings, so it is
    byte-identical with trace retention on or off ([Obs.create
    ~retain:false]), and — one series per sweep point, like one sink per
    point — for any [--jobs] value. Zero overhead when unused: no tap, no
    cost. *)

type t

(** Window fields read from cumulative machine counters. [Heat] is the
    adversary's contention temperature; [Validate_real] counts the
    validation failures that are not spurious. *)
type counter =
  | Validate_real
  | Validate_spurious
  | Vas_fail
  | Ias_fail
  | Tag_adds
  | Tag_removes
  | Tag_overflows
  | L1_hits
  | L1_misses
  | Coherence_msgs
  | Invalidations
  | Writebacks
  | Heat
  | Cm_waits
  | Cm_wait_cycles

(** Window fields tallied from events. [Occupancy] is the live-tag level
    at the window's end (carried through quiet windows); [Max_depth] is
    the queue's high-water depth; every other tally is a count. *)
type tally =
  | Ops
  | Stm_aborts
  | Evict_capacity
  | Evict_conflict
  | Occupancy
  | Enqueues
  | Dequeues
  | Drops
  | Commits
  | Max_depth
  | Store_ops
  | Txn_commits
  | Scan_ok
  | Scan_fail

type field = Counter of counter | Tally of tally

(** Cumulative machine counters at a point in time, one int per
    {!counter} (shape-independent of [Mt_sim.Stats] so the dependency
    points the right way). *)
type counters

(** [counters read] — the snapshot whose value for each counter is
    [read counter]. *)
val counters : (counter -> int) -> counters

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

(** Windows so far; window [i] covers cycles
    [[i * window, (i + 1) * window)]. *)
val n_windows : t -> int

(** [get t i field] — [field] in window [i]. *)
val get : t -> int -> field -> int

(** All per-window latency histograms merged ({!Hist.merge}) into one
    run-level summary. *)
val latency_summary : t -> Hist.t

(** Every member of a window's JSON as [(group, key)], in the order
    {!to_json} writes them; group [""] is a top-level member. *)
val keys : (string * string) list

(** Deterministic JSON: window geometry, marks, one object per window
    (the members {!keys} lists: throughput, abort breakdown, tag
    churn/occupancy/overflows, memory traffic and L1 miss rate, heat,
    serve and store activity, CM waits, latency histogram), and the
    merged latency summary. Contains no JSON nulls. *)
val to_json : t -> Json.t
