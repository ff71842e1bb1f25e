(** Simulated flat memory.

    The functional contents of memory live here; the caches and directory
    only model {e timing} and coherence state. Addresses are word indices
    (one word = one OCaml [int]). Address [0] is reserved as the null
    pointer and is never handed out by the allocator. *)

type addr = int

(** The representation is exposed for {!Machine}'s call-free L1-hit path
    (DESIGN §12): word [a] lives at
    [chunks.(a lsr chunk_log2).(a land chunk_mask)]. Chunks exist up to
    the chunk holding word [next_free - 1]; the table slots past it hold
    an empty array. Everything else goes through the functions below. *)
type t = {
  line_words : int;
  mutable chunks : int array array;
  mutable next_free : addr;  (** first unallocated word *)
}

val chunk_log2 : int
val chunk_mask : int

(** The null pointer. Dereferencing it raises [Invalid_argument]. *)
val null : addr

val create : Config.t -> t

(** [alloc t ~words] bump-allocates [words] zero-initialised words aligned
    to a cache-line boundary, so that distinct allocations never share a
    line (the paper maps each node to its own line to avoid false
    sharing). Raises [Invalid_argument] if [words <= 0]. *)
val alloc : t -> words:int -> addr

(** Number of words allocated so far (diagnostics). *)
val allocated_words : t -> int

(** Word read/write. Address validation (null, unallocated) is gated on
    {!Debug.on}: with checks enabled an out-of-bounds access raises
    [Invalid_argument]. With checks off (the default, for bench speed) a
    stray address inside an allocated chunk silently touches its
    zero-filled backing store, and one past the last allocated chunk
    raises [Invalid_argument] from the array bounds check. *)
val get : t -> addr -> int

val set : t -> addr -> int -> unit
