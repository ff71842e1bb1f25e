(** Simulated flat memory.

    The functional contents of memory live here; the caches and directory
    only model {e timing} and coherence state. Addresses are word indices
    (one word holds one OCaml [int]; {!t} says how it is stored). Address
    [0] is reserved as the null pointer and is never handed out by the
    allocator. *)

type addr = int

(** Memory is a table of chunks of [2^chunk_log2] words; word [a] lives
    in chunk [ci = a lsr chunk_log2]. Each chunk is in one of two forms:
    - {e narrow}: [narrow.(ci)] holds every word as a sign-extended
      32-bit integer, 4 bytes per word; [wide.(ci)] is empty;
    - {e wide}: [narrow.(ci)] is physically [Bytes.empty] and [wide.(ci)]
      holds every word as an OCaml [int].

    A chunk is born narrow. The first write into it of a value outside
    [[-2^31, 2^31 - 1]] switches it to wide: its words are copied into an
    [int array] and its bytes dropped. The switch happens at most once per
    chunk and never reverses, so reads and writes are exact over every
    OCaml [int]. Chunks never move. The two tables have the same length
    and hold exactly the chunks up to the one holding word
    [next_free - 1]. The record is visible so that tests can inspect a
    chunk's form; everything else goes through the functions below. *)
type t = {
  line_words : int;
  mutable narrow : Bytes.t array;
  mutable wide : int array array;
  mutable next_free : addr;  (** first unallocated word *)
}

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
    zero-filled backing store, and one past the last allocated chunk
    raises [Invalid_argument] from the bounds check of the chunk table. A
    [set] of a value outside the signed 32-bit range into a narrow chunk
    switches that chunk to wide (see {!t}). *)
val get : t -> addr -> int

val set : t -> addr -> int -> unit
