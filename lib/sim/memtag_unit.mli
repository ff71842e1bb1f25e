(** Per-core MemTags state (the paper's Section 3 mechanism at L1).

    The unit tracks a bounded set of {e tagged} cache lines. A tagged line
    moves to the {e evicted} set when the L1 loses it — either because a
    remote core invalidated it (a real [Conflict]) or because it fell out of
    the L1 by replacement ([Capacity], the source of spurious failures).
    [validate] succeeds iff no tagged line has been evicted and the tag set
    never exceeded [max_tags] since the last [clear]. *)

type cause = Conflict | Capacity

type t

val create : max_tags:int -> t

(** [add t line] tags [line]; re-tagging an evicted line leaves it evicted.
    Sets the (latched) overflow flag when capacity is exceeded. *)
val add : t -> int -> unit

(** [remove t line] drops the line's entry. Conflict evidence is {e
    sticky}: if the line was already conflict-evicted, the recorded
    conflict survives the removal and {!check} keeps returning
    [Fail_conflict] until {!clear} — the remote write hit the line while
    the tag was held, so reads made under it may be torn whether or not
    the tag is later withdrawn. A pending [Capacity] record is dropped
    with the entry (removing the tag withdraws the claim it protected,
    so no spurious failure needs reporting). No-op if untagged. *)
val remove : t -> int -> unit

(** [is_tagged t line] is true if the line is currently tracked (tagged or
    evicted). *)
val is_tagged : t -> int -> bool

(** [live t line] is true if the line is tagged and not yet evicted — the
    tags whose loss an eviction event should report. *)
val live : t -> int -> bool

(** Called by the cache model when the L1 loses a line. *)
val on_evict : t -> int -> cause -> unit

type verdict = Ok | Fail_conflict | Fail_spurious

(** [check t] classifies the current tag set: [Ok] if validation would
    succeed; [Fail_conflict] if a tagged line was invalidated remotely;
    [Fail_spurious] if the only failure causes are capacity evictions or
    overflow. Does not modify state. *)
val check : t -> verdict

val overflowed : t -> bool
val count : t -> int

(** Current capacity ceiling (initially the [max_tags] of {!create}). *)
val max_tags : t -> int

(** [set_max_tags t n] retargets the capacity ceiling mid-run (fault
    injection: tag-capacity pressure). If more than [n] lines are already
    tracked the overflow flag latches immediately, so the next validation
    fails spuriously; {!clear} resets the latch as usual. *)
val set_max_tags : t -> int -> unit
val clear : t -> unit

(** [fill_lines t a] writes the tracked lines (tagged or evicted) into
    [a] (which must have at least {!count} slots), in unspecified but
    deterministic order without allocating, and returns how many were
    written — the IAS hot path's view of the tag set. *)
val fill_lines : t -> int array -> int
