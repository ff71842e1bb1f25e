(** Simulated flat memory.

    The functional contents of memory live here; the caches and directory
    only model {e timing} and coherence state. Addresses are word indices;
    a word holds one OCaml [int] and reads back exactly over all 63 bits.
    Address [0] is reserved as the null pointer and is never handed out by
    the allocator. *)

type addr = int

(** A table of chunks of [2^chunk_log2] words, each an [int array]: word
    [a] lives in chunk [a lsr chunk_log2]. Chunks never move. The table
    holds exactly the chunks up to the one holding the last allocated
    word; {!alloc} adds each, zero-filled, when the frontier reaches it. *)
type t

val chunk_log2 : int

(** The null pointer. Dereferencing it raises [Invalid_argument]. *)
val null : addr

val create : Config.t -> t

(** [alloc t ~words] bump-allocates [words] zero-initialised words aligned
    to a cache-line boundary, so that distinct allocations never share a
    line (the paper maps each node to its own line to avoid false
    sharing). Raises [Invalid_argument] if [words <= 0]. *)
val alloc : t -> words:int -> addr

(** Words handed out by {!alloc} so far, each allocation rounded up to
    whole lines; the reserved null line is not counted (diagnostics). *)
val allocated_words : t -> int

(** Word read/write. Address validation (null, unallocated) is gated on
    {!Debug.on}: with checks enabled an out-of-bounds access raises
    [Invalid_argument]. With checks off (the default, for bench speed) a
    stray address inside an allocated chunk silently touches its
    zero-filled backing store, and one past the frontier's chunk still
    raises [Invalid_argument], from the bounds check of the chunk table. *)
val get : t -> addr -> int

val set : t -> addr -> int -> unit
