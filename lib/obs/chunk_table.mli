(** A growable table of [int]s kept in fixed-size chunks (DESIGN §12).

    Entry [i] lives at offset [i land (chunk_size - 1)] of chunk
    [i lsr chunk_log2]. A chunk is allocated by the first write of a
    non-zero value into it and is never copied or moved afterwards: only
    the table of chunk pointers grows. An absent chunk reads as 0, so a
    zero written into it allocates nothing. [get], [set] and [add] on an
    allocated chunk allocate nothing. Indices are non-negative; a write
    that would allocate for a negative one raises [Invalid_argument].

    The coherence directory's planes and the hot-line counts of {!Obs}
    are each one of these. *)

type t

(** [create ~chunk_log2] is an empty table of chunks of [2^chunk_log2]
    entries. *)
val create : chunk_log2:int -> t

val chunk_size : t -> int

val get : t -> int -> int
val set : t -> int -> int -> unit

(** [add t i d] adds [d] to entry [i] in place. *)
val add : t -> int -> int -> unit

(** [chunk t ci] is chunk [ci] itself, allocated all-zero if it was
    absent: a write into the array is a write into the table. *)
val chunk : t -> int -> int array

(** Number of allocated chunks. *)
val chunks : t -> int

(** [iter t f] calls [f i v] for every non-zero entry [v] at index [i],
    in ascending [i], walking only the allocated chunks. *)
val iter : t -> (int -> int -> unit) -> unit
