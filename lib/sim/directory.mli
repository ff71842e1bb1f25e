(** Global MESI directory.

    Tracks, for every cache line, which cores' private hierarchies hold it
    and whether one of them holds it exclusively ([E]/[M]). The directory is
    the serialization point for coherence transactions.

    Internally each line is one packed int: the sharer bits of cores 0–31
    and the exclusive owner + 1. The sharer bits of cores 32–63 live in a
    second plane that is allocated only once such a core holds a line.
    Both planes are tables of fixed chunks (one simulated-memory chunk's
    lines each), allocated on first write and never copied; an absent
    chunk reads as [Uncached]. The hot coherence path never allocates
    (DESIGN §12). The [sharing] variant view below is kept for tests and
    diagnostics. *)

type sharing =
  | Uncached
  | Shared of int list  (** core ids holding the line in S; non-empty, sorted *)
  | Excl of int         (** one core holds the line in E or M *)

type t

(** [create ~line_words_log2 ()] sizes chunks to cover one
    {!Memory} chunk of lines of [2^line_words_log2] words (default 3, the
    {!Config.default} line). *)
val create : ?line_words_log2:int -> unit -> t

val sharing : t -> int -> sharing

(** [set t line sharing] installs the new sharing state. [Shared []] is
    normalised to [Uncached]. *)
val set : t -> int -> sharing -> unit

(** [add_sharer t line core] transitions [Uncached -> Shared [core]] or adds
    [core] to an existing sharer set. Raises [Invalid_argument] if the line
    is currently [Excl] of another core. *)
val add_sharer : t -> int -> int -> unit

(** [drop t line core] removes [core] from the line's sharers/owner (used
    when a private cache silently evicts the line). *)
val drop : t -> int -> int -> unit

(** [others t line core] lists every core other than [core] currently
    holding the line, in ascending id order. Allocates; tests only — the
    hot path uses {!iter_others}/{!others_count}. *)
val others : t -> int -> int -> int list

(** {2 Allocation-free accessors (hot path)} *)

(** No core holds the line. *)
val is_uncached : t -> int -> bool

(** Owner core id if the line is held [E]/[M], else [-1]. *)
val excl_owner : t -> int -> int

val set_uncached : t -> int -> unit

(** [set_excl t line core] makes [core] the sole (exclusive) holder. *)
val set_excl : t -> int -> int -> unit

(** [set_shared_pair t line a b] makes exactly [a] and [b] the (shared)
    holders — the owner-downgrade transition on a read miss to an [Excl]
    line. *)
val set_shared_pair : t -> int -> int -> int -> unit

(** Number of holders other than [core]. *)
val others_count : t -> int -> int -> int

(** [iter_others t line core f] calls [f] on every holder other than
    [core], in ascending id order (the order [others] returns). *)
val iter_others : t -> int -> int -> (int -> unit) -> unit

(** [others_lo t line core] is the bitmask of holders other than [core]
    among cores 0–31 (bit [i] = core [i]); [others_hi] is the same for
    cores 32–63 (bit [i] = core [32 + i]) and is [0] without the second
    plane. Together they are the set {!iter_others} visits. *)
val others_lo : t -> int -> int -> int
val others_hi : t -> int -> int -> int

(** Index of the lowest set bit of a non-zero mask below [2^32]. *)
val lowest_core : int -> int

(** [iter_lines t f] calls [f line] for every line with at least one
    holder, in ascending order, walking only the allocated chunks
    (coherence invariant checker; not on the hot path). *)
val iter_lines : t -> (int -> unit) -> unit

(** {2 Footprint} *)

(** Lines per chunk. *)
val lines_per_chunk : t -> int

(** Whether the plane for cores 32–63 has been allocated. *)
val wide : t -> bool
