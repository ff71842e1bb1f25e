(** A binary min-heap keyed by [(time, tie)] used by the fiber scheduler.

    Ties on [time] are broken by the secondary integer key so that the
    scheduling order — and hence the whole simulation — is deterministic.

    Keys (and an optional caller-owned int side-channel, [aux]) live in
    unboxed int planes, so [add]/[pop] allocate nothing, and values sit in
    a slot table that sifts never touch, so reordering the heap runs no
    write barrier (DESIGN §12). The
    allocation-free reading protocol is: check {!is_empty}, read
    {!top_time}/{!top_aux}, then {!pop}. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool

val add : 'a t -> time:int -> tie:int -> 'a -> unit

(** [add_aux] additionally stores an int in the entry's side-channel
    ([add] stores 0). The aux value travels with the entry and is read
    back via {!top_aux}. *)
val add_aux : 'a t -> time:int -> tie:int -> aux:int -> 'a -> unit

(** Key/aux of the minimum entry. Unspecified (may raise) if the heap is
    empty — callers check {!is_empty} first. *)
val top_time : 'a t -> int

val top_aux : 'a t -> int

(** [first_not_before t ~tie] is the earliest time [x] at which the key
    [(x, tie)] no longer precedes the minimum: [top_time], or [top_time +
    1] when [tie] is below the minimum's tie; [max_int] when [t] is empty. A key [(x, tie)]
    precedes every entry iff [x < first_not_before t ~tie] — one call for
    the scheduler's "does this fiber still run first?" test. *)
val first_not_before : 'a t -> tie:int -> int

(** [pop t] removes the minimum entry and returns its value alone — read
    {!top_time}/{!top_aux} before popping. Raises
    [Invalid_argument] if empty. The popped value is no longer reachable
    from the queue (vacated slots are cleared, so fiber closures are not
    pinned for the heap's lifetime). *)
val pop : 'a t -> 'a

(** [pop_min t] is the minimum's [(time, tie, value)] as a tuple (allocates;
    tests and non-hot callers). *)
val pop_min : 'a t -> int * int * 'a

(** [exchange t ~time ~tie ~aux v] pops the minimum entry and adds the
    new one in a single sift, returning the popped value; the popped
    key's time and aux are readable via {!xchg_time}/{!xchg_aux} until
    the next [exchange]. The incoming key must compare ≥ the minimum's —
    the scheduler's suspension-path precondition — and keys must form a
    strict total order (equal keys would make the fused form's pop order
    unspecified). Raises [Invalid_argument] if empty. *)
val exchange : 'a t -> time:int -> tie:int -> aux:int -> 'a -> 'a

val xchg_time : 'a t -> int
val xchg_aux : 'a t -> int
