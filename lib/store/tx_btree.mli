(** A B+-tree set in simulated memory, written once over an abstract
    read/write: the sharded store's [norec-tagged] shard runs it with
    plain [Ctx] accesses under the shard lock ({!Direct}), and the
    standalone tagged-NOrec set of the structure catalog runs it inside
    tagged-NOrec transactions ([Make (Mt_stm.Norec_tagged)]).

    Every node is one 8-word cache line of half-width fields, two 31-bit
    halves per word. A leaf is a header word (key count and leaf bit)
    and up to 14 sorted keys, two per word. An internal node packs its
    header with child 0 in word 0 and separator [i-1] with child [i] in
    word [i]: up to 7 separators and 8 children. Insert is one descent
    that splits bottom-up only when a node overflows; delete removes the
    key from its leaf and merges nothing, so leaves may go empty while
    the separators above them stay valid bounds. Mutations shift the
    packed words in place. Keys and node addresses must lie in
    [\[0, 2^31)].

    {b Plain walks.} [collect] over a plain load and [find] read
    with [Ctx.read] whatever the instance, and terminate against
    concurrent updates provided those become visible in first-write
    order: a node's header
    is its first write, so no pointer to a node is seen before its kind;
    a child half only ever holds null or a node address; and every count
    is clamped to its node's capacity. NOrec's in-order write-back gives
    that order, and so do {!Direct}'s writes, which are made in program
    order one word at a time. *)

(** Where a one-key descent ended: the leaf whose key range holds the
    key, and whether the key is in that leaf, packed in one immediate int
    (a descent that returns both allocates nothing). *)
type found = private int

(** Whether the key was in the leaf. *)
val present : found -> bool

(** What an update on a found leaf did: the key was already as asked
    ([Unchanged]: an insert of a present key, a delete of an absent one),
    the leaf was updated ([Changed]), or the update needs the descent from
    the root ([Full_path]: an insert into a full leaf, which splits it). *)
type at = Unchanged | Changed | Full_path

(** The memory accesses the tree is written over. *)
module type ACCESS = sig
  type tx

  val read : tx -> Mt_core.Ctx.addr -> int
  val write : tx -> Mt_core.Ctx.addr -> int -> unit

  (** The simulated thread behind [tx], which allocates new nodes. *)
  val ctx : tx -> Mt_core.Ctx.t
end

module type TREE = sig
  type tx
  type t

  (** Allocate an empty set (outside any transaction). Every node
      allocation, here and in [insert], raises [Invalid_argument] if its
      address does not fit the 31-bit pointer field. *)
  val create : Mt_core.Ctx.t -> t

  val contains : tx -> t -> int -> bool

  (** [insert tx t k] — false if [k] is already present. Raises
      [Invalid_argument] when [k] is outside [\[0, 2^31)]. *)
  val insert : tx -> t -> int -> bool

  (** [delete tx t k] — false if [k] is absent. *)
  val delete : tx -> t -> int -> bool

  (** [collect load ctx t ~lo ~hi ~budget] — walk collecting the keys in
      [\[lo, hi\]] in ascending order, visiting at most [budget] nodes.
      [load] reads the first word of every line the walk visits: the
      root cell, then each node's header (a node is one line); the rest
      of a node is read plainly. With {!Mt_core.Ctx.plain_load} it is a
      plain walk, safe to run against concurrent updates (see {e Plain
      walks} above) but {e not} atomic on its own: callers must prove
      quiescence externally (the sharded store's per-shard version
      protocol does). With a tagged load it tags exactly the lines it
      read, one tag per line. *)
  val collect :
    Mt_core.Ctx.load ->
    Mt_core.Ctx.t ->
    t ->
    lo:int ->
    hi:int ->
    budget:int ->
    int list

  (** [find ctx t k] — [contains] as one plain (untagged, unvalidated)
      descent, the same code over [Ctx.read], returning the leaf it ended
      at with the answer. It terminates against concurrent updates
      (counts are clamped and every step goes one level down) but is
      exact only when the caller proves the tree quiescent across it, as
      the sharded store's version protocol does. *)
  val find : Mt_core.Ctx.t -> t -> int -> found

  (** [insert_at tx f k] — [insert] on the leaf [f] found, without the
      descent: [Full_path] when that leaf is full. [delete_at tx f k] —
      [delete] on it; never [Full_path], because a delete merges nothing.
      [mem_at tx f k] searches it. Each re-searches the leaf, so a
      caller's own earlier updates through the same [f] are seen. They
      are exact only while the tree has changed since [f]'s descent by
      nothing but such updates: a split moves keys out of a leaf, and
      only [insert]'s full path splits. The store proves that with its
      shard version. *)
  val insert_at : tx -> found -> int -> at

  val delete_at : tx -> found -> int -> at
  val mem_at : tx -> found -> int -> bool

  (** Timing-free contents, ascending, for test oracles (quiescent
      machine only). *)
  val to_list_unsafe : Mt_sim.Machine.t -> t -> int list

  (** Number of levels, leaves included (quiescent machine only). *)
  val depth_unsafe : Mt_sim.Machine.t -> t -> int
end

module Make (S : ACCESS) : TREE with type tx = S.tx

(** The tree over plain [Ctx.read]/[Ctx.write]: no synchronization of
    its own. Updates are safe only while the caller excludes every other
    updater (the store holds the shard lock); plain walks may race
    them. *)
module Direct : TREE with type tx = Mt_core.Ctx.t
