(** A set-associative cache array with LRU replacement.

    This is a pure state-tracking structure (which lines are resident and in
    which MESI state); data contents live in {!Memory}. One instance models
    one level (L1 or L2) of one core's private hierarchy. *)

type state = I | S | E | M

type t

val create : sets_log2:int -> ways:int -> t

(** [find t line] is the line's current state, [I] if not resident. *)
val find : t -> int -> state

(** Slot-addressed hot-path interface: [probe] locates a resident line's
    slot with one scan; the [_at] accessors then read or update it
    without scanning again. Slot indices are only valid until the next
    [insert]/[remove]/[set_state] on the same cache. *)

(** [probe t line] is the line's slot index, or -1 if not resident. *)
val probe : t -> int -> int

(** [state_at t slot] is the resident state at [slot] (never [I]). *)
val state_at : t -> int -> state

(** [touch_at t slot] refreshes the slot's LRU position. *)
val touch_at : t -> int -> unit

(** [set_state_at t slot st] updates the resident line at [slot] to
    [st <> I] and refreshes its LRU position. *)
val set_state_at : t -> int -> state -> unit

(** [touch t line] refreshes the line's LRU position (no-op if absent). *)
val touch : t -> int -> unit

(** [set_state t line st] updates a resident line's state. Setting [I]
    removes the line. No-op if the line is absent. *)
val set_state : t -> int -> state -> unit

(** [insert t line st] makes the line resident in state [st], evicting the
    set's LRU victim if the set is full. Returns the victim's line, whose
    state {!evicted_state} then reports, or -1 if nothing was evicted; it
    allocates nothing. The line must not already be resident (checked,
    and raising, only when {!Debug.on}). *)
val insert : t -> int -> state -> int

(** State of the line the last {!insert} evicted. *)
val evicted_state : t -> state

(** [remove t line] drops the line (external invalidation or inclusion
    victim). No-op if absent. *)
val remove : t -> int -> unit

(** [iter t f] calls [f line state] for every resident line, in set/way
    order (coherence invariant checker; not on the hot path). *)
val iter : t -> (int -> state -> unit) -> unit

(** Number of resident lines (diagnostics / tests). *)
val population : t -> int
