(** Simulator-wide event tracing: the sink.

    A sink is either {!null} — disabled, [enabled] is [false], and
    {!emit} is a no-op — or a recording sink created by {!create}: one
    bounded ring buffer per simulated core when it retains events, plus a
    per-cache-line contention aggregate (the hot-line profiler) and the
    allocation labels that name each line's owner.

    {b Zero-overhead-off contract}: every hook site in the simulator must
    guard event {e construction} behind [if Obs.enabled obs then ...], so
    that a disabled sink costs exactly one load and one branch per hook and
    never allocates.

    {b Determinism}: callers stamp events with the simulated clock; [emit]
    adds a per-sink sequence number in emission order. A sink belongs to
    one simulation run on one domain (sinks are not thread-safe — when
    sweeping points in parallel with {!Mt_par.Pool}, give each point its
    own sink), so for a fixed program and seed the recorded event stream
    is always byte-identical. No wall time is ever read. *)

type kind =
  | L1_miss of { line : int }
  | L2_miss of { line : int }
  | Inval_sent of { line : int; victim : int }
      (** Issuer-side: this core invalidated [victim]'s copy of [line]. *)
  | Inval_received of { line : int }
  | Downgrade of { line : int; victim : int }
  | Writeback of { line : int }
  | Tag_add of { line : int }
  | Tag_remove of { line : int }
  | Tag_evict of { line : int; conflict : bool }
      (** A live tag died: [conflict] distinguishes a real remote
          invalidation from a spurious capacity eviction. *)
  | Tag_clear of { count : int }
      (** A core dropped its whole tag set ([count] live tags) at once —
          the bulk release at the end of an optimistic attempt. *)
  | Validate of { ok : bool; spurious : bool }
  | Vas of { ok : bool }
  | Ias of { ok : bool }
  | Stm_abort of { impl : string; reason : string }
  | Stm_demote  (** Tagged NOrec fell off the tag fast path. *)
  | Kcas_help of { addr : int }
      (** No emitter: the multi-word CAS that raised it is gone. Kept, with
          {!Snap_attempt} and {!Snap_invalid}, only because perfbench's
          [kcas.*] per-layer metrics still match these kinds; the kinds
          and those metrics retire together (ROADMAP item 11a). *)
  | Fiber_stall of { cycles : int }
  | Fiber_resume
  | Span_begin of { name : string }
  | Span_end of { name : string }
  | Req_arrive of { id : int }
      (** Service layer: request [id] was generated by the arrival
          process (before any admission decision). *)
  | Req_enqueue of { id : int; depth : int }
      (** Request [id] entered the shared queue, which now holds [depth]
          requests. *)
  | Req_dequeue of { id : int; wait : int }
      (** A worker took request [id] out of the queue after it waited
          [wait] cycles (queueing delay, separate from service time). *)
  | Req_drop of { id : int }
      (** Request [id] arrived to a full queue and was dropped for good. *)
  | Req_commit of { id : int }
      (** Request [id] completed: its operation ran against the backend. *)
  | Batch of { size : int }  (** One worker dequeue moved [size] requests. *)
  | Fault of { label : string }
      (** The adversary injected a fault (e.g. a [Max_Tags] squeeze being
          applied or lifted) — a timeline landmark, not a workload event. *)
  | Store_op of { shard : int }
      (** Sharded store: one operation (point op or transaction sub-op) was
          routed to [shard] — the raw material of the per-shard imbalance
          counters in {!Series}. *)
  | Txn_commit of { shards : int; cycles : int }
      (** A cross-shard store transaction committed, having locked [shards]
          distinct shards, [cycles] after its first acquisition attempt. *)
  | Scan_validate of { shard : int; ok : bool }
      (** A store range scan validated [shard]'s window at its snapshot
          instant; [ok = false] means that shard (and only that shard) is
          re-scanned. *)
  | Snap_attempt of { cells : int }
      (** No emitter (see {!Kcas_help}): a tag-validated snapshot attempt
          over [cells] cells. *)
  | Snap_invalid of { cells : int }
      (** No emitter (see {!Kcas_help}): a snapshot attempt that failed
          validation and would retry. *)
  | Cm_wait of { site : int; cycles : int; attempt : int }
      (** A non-[immediate] contention-management policy imposed a wait of
          [cycles] before retry number [attempt] against location [site].
          Never emitted under the [immediate] baseline (which also never
          waits), so traced immediate runs stay byte-identical. *)

type event = { seq : int; time : int; core : int; kind : kind }

type t

(** The disabled sink. *)
val null : t

(** [create ?ring_capacity ?retain ~num_cores ()] — a recording sink. Each
    core's ring holds the last [ring_capacity] (default 65536) events;
    older events are overwritten and counted in {!dropped}.

    [retain:false] keeps the sink enabled (hooks fire, the tap and the
    hot-line aggregate see every event) but allocates no rings and stores
    no events — the shape used by streaming consumers such as {!Series}
    when no trace file is wanted. The emitted event stream is identical
    either way. *)
val create : ?ring_capacity:int -> ?retain:bool -> num_cores:int -> unit -> t

val enabled : t -> bool

(** The [num_cores] a recording sink was created for; [0] on {!null}.
    [Machine.create] rejects a recording sink with fewer cores than the
    machine. *)
val num_cores : t -> int

(** [set_tap t (Some f)] calls [f] synchronously on every emitted event,
    before (and regardless of) ring retention; [set_tap t None] removes
    it. One tap at a time; {!null} ignores both. The tap must not emit. *)
val set_tap : t -> (event -> unit) option -> unit

(** [emit t ~core ~time kind] records an event (no-op on {!null}). [time]
    is the simulated clock in cycles. Every emit advances the sequence
    number; the {!event} record itself is built only when a tap is set or
    the sink retains events, so a [retain:false] sink with no tap
    allocates nothing per emit (bar a hot-line chunk on first touch). *)
val emit : t -> core:int -> time:int -> kind -> unit

(** Events overwritten by ring wraparound, across all cores. *)
val dropped : t -> int

(** Per-core ring-wraparound drop counts (index = core); [[||]] on
    {!null}. *)
val dropped_per_core : t -> int array

(** All retained events in global emission order (ties impossible: the
    sequence number is unique). *)
val events : t -> event list

(** {1 Line ownership labels and the hot-line profiler} *)

(** [label_lines t ~line_lo ~line_hi label] attributes the lines
    [line_lo..line_hi] to an allocation site ("harris-node",
    "stm-seqlock", ...). Ranges must arrive in ascending order of
    [line_lo], as [Machine.alloc]'s bump allocator produces them; a range
    that starts below an earlier one raises [Invalid_argument]. Where a
    range overlaps lines that are already labelled, the first label wins.
    An empty range ([line_hi < line_lo]) does nothing.

    Labels are kept as an append-only run-length map: one run per
    maximal stretch of contiguous lines with the same label (or none),
    so the map grows with the number of runs, not the number of lines. *)
val label_lines : t -> line_lo:int -> line_hi:int -> string -> unit

(** The label of a line, by binary search over the runs; [None] for an
    unlabelled line and on {!null}. *)
val label_of : t -> int -> string option

type hot_line = {
  hl_line : int;
  hl_invals : int;
  hl_downgrades : int;
  hl_label : string option;
}

(** Most-contended lines, by invalidations+downgrades received, ties by
    line number. Aggregated over the whole recording (not bounded by the
    rings). The counts are one packed word per line — invalidations in
    the low 31 bits, downgrades above — in fixed 8192-line chunks that are
    allocated on the first event for one of their lines and never copied,
    so the aggregate costs one word per line of each touched chunk plus
    the chunk table. *)
val hot_lines : ?top:int -> t -> hot_line list

(** {1 Event rendering helpers} *)

val kind_name : kind -> string

(** Structured arguments of an event, for the trace exporter; [t] supplies
    ownership labels. *)
val kind_args : t -> kind -> (string * Json.t) list

(** The request id of a service-layer causal-chain event
    ([Req_arrive] ... [Req_commit]/[Req_drop]), if any. *)
val req_id : kind -> int option
