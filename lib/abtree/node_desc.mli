(** Pure (a,b)-tree node descriptions and rebalancing arithmetic.

    Both tree variants (LLX/SCX and HoH-tagged) share this module: they
    read nodes out of simulated memory into descriptions, transform them
    with these pure functions, and materialise the results as fresh nodes.
    Keeping the arithmetic pure makes it testable in isolation (see the
    qcheck properties in [test/test_abtree.ml]).

    Conventions: an internal node with [n] children has [n-1] separator
    keys; child [i] covers keys [k] with [keys.(i-1) <= k < keys.(i)]
    (with virtual sentinels at the ends). A leaf stores its keys sorted
    ascending and has [ptrs = [||]]. [weight] is 1 for a normal node and 0
    for a flagged node (a {e flag violation} in the paper's terminology). *)

type t = {
  weight : int;        (* 1 = normal, 0 = flagged *)
  leaf : bool;
  keys : int array;
  ptrs : int array;    (* child addresses; [||] for leaves *)
}

(** Number of children (internal) or keys (leaf). *)
val size : t -> int

(** [child_index d k] — which child of internal node [d] covers key [k]. *)
val child_index : t -> int -> int

val leaf_contains : t -> int -> bool

(** [leaf_insert d k] — [d] with [k] added (sorted). [k] must be absent. *)
val leaf_insert : t -> int -> t

(** [leaf_remove d k] — [d] without [k]. [k] must be present. *)
val leaf_remove : t -> int -> t

(** [set_weight d w] *)
val set_weight : t -> int -> t

(** [absorb ~parent ~ix ~child] — the combined node obtained by splicing
    internal [child] (at parent index [ix]) into [parent]; carries
    [parent]'s weight. Sizes may exceed [b]; split afterwards if needed. *)
val absorb : parent:t -> ix:int -> child:t -> t

(** [split d] — halve an oversized node into [(left, right, separator)];
    both halves have weight 1. For leaves the separator is the first key
    of [right] (and also remains in [right]); for internal nodes it is
    removed from the key list. *)
val split : t -> t * t * int

(** [distribute_pair ~sep l r] — rebalance two siblings evenly; returns
    [(l', r', sep')]. *)
val distribute_pair : sep:int -> t -> t -> t * t * int

(** {1 Rebalancing steps} — planned here once; each tree only reads the
    nodes involved and commits the result (one IAS in {!Abtree_hoh}, one
    SCX in {!Abtree_llx}). [write ctx d] is the tree's node writer: it
    allocates a node holding [d] and returns its address. It and the
    tree's [ctx] are separate arguments, so a call allocates no closure. *)

(** [write_fitted ~b write ctx d] writes [d] as one node when
    [size d <= b]; otherwise it writes the two {!split} halves, left first,
    then a weight-0 parent over them carrying the split's separator. The
    result is the address of the node that replaces the old one: the
    insert split (Figure 3(b)), AbsorbChild, and PropagateTag. *)
val write_fitted : b:int -> ('c -> t -> int) -> 'c -> t -> int

(** [rebalance_pair ~b write ctx p li l r] — [l] and [r] are [p]'s
    children [li] and [li+1]. AbsorbSibling when [size l + size r <= b]
    (the pair merges into one child), else Distribute (the pair's keys are
    evened out over two fresh children and a new separator). Writes the
    new children, then the new copy of [p], and returns that copy's
    address. *)
val rebalance_pair : b:int -> ('c -> t -> int) -> 'c -> t -> int -> t -> t -> int

val pp : Format.formatter -> t -> unit

(** {1 Memory layout} — one layout for both trees, in words counted from
    a node's first word. Every word holds two 31-bit halves
    ({!Mt_core.Half}), and slot [s] of a node is the low (even [s]) or
    high (odd [s]) half of word [s/2]. A leaf's slots are
    [\[meta, k0, k1, …\]], so its words are [\[meta|k0, k1|k2, …\]]; an
    internal node's are [\[meta, p0, k0, p1, k1, …, pn\]], so its word [i]
    holds child pointer [i] in its high half over meta ([i = 0]) or key
    [i-1], the key left of it. A node of [b] children or [b] keys fits
    [b] words: at [b = 8], one 8-word line. Keys, child pointers and the
    meta word must each fit a half ([\[0, 2^31)]).

    The functions below read and write through a word accessor
    [word ctx addr] (or writer [write ctx addr v]) that travels with its
    [ctx] as a separate argument, so a call allocates no closure. *)

(** [words ~leaf ~count] — how many words a node with [count] keys
    occupies. *)
val words : leaf:bool -> count:int -> int

(** [ptr_word i] — offset of the word whose high half is child pointer
    [i] of an internal node. *)
val ptr_word : int -> int

(** [meta w] — the meta word out of a node's first word. *)
val meta : int -> int

(** [child w] — the child pointer out of a {!ptr_word} word. *)
val child : int -> int

(** [with_child w c] — {!ptr_word} word [w] with its child pointer
    replaced by [c] and its low half (meta or key, immutable) kept: the
    whole word a child swing writes. Raises [Invalid_argument] when [c]
    does not fit a half. *)
val with_child : int -> int -> int

(** [store write ctx base d] writes [d]'s {!words} at [base]. Raises
    [Invalid_argument], writing nothing, when a key or child pointer does
    not fit a half. *)
val store : ('c -> int -> int -> unit) -> 'c -> int -> t -> unit

(** [load word ctx base w0] — the node at [base] whose first word reads
    [w0]: each of its other words read once with [word]. *)
val load : ('c -> int -> int) -> 'c -> int -> int -> t

(** [step word ctx base w0 k] — one descent step through the internal
    node at [base] whose first word reads [w0]: a key scan with early
    exit, one read per key, that carries the word before the one it
    reads, so the child covering [k] comes out of a word already read.
    Each word of the node is read at most once, [w0] not again. The
    result packs the child's index ({!slot}) and the child's address
    ({!child}) into one int, so a step allocates nothing. *)
val step : ('c -> int -> int) -> 'c -> int -> int -> int -> int

(** [slot s] — the child index out of a {!step} result. {!child} gives
    the child's address. *)
val slot : int -> int

(** [leaf_mem word ctx base w0 k] — is [k] among the keys of the leaf at
    [base] whose first word reads [w0]? A key scan with early exit, one
    read per two keys past the first. *)
val leaf_mem : ('c -> int -> int) -> 'c -> int -> int -> int -> bool

(** {1 Meta-word packing} *)

val pack_meta : leaf:bool -> weight:int -> count:int -> int
val meta_leaf : int -> bool
val meta_weight : int -> int
val meta_count : int -> int

(** [violates ~a ~root_child meta] — the balance predicate: does the node
    with meta word [meta] need a rebalancing step? True for a flagged
    (weight-0) node; for the root's child ([root_child]), only when it is
    internal with a single child; otherwise when it holds fewer than [a]
    keys (leaf) or children (internal). *)
val violates : a:int -> root_child:bool -> int -> bool
