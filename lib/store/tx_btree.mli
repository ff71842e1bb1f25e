(** A transactional B+-tree set in simulated memory, accessed through an
    STM's read/write primitives: the sharded store's [norec-tagged] shard.

    Every node is one 8-word cache line of half-width fields, two 31-bit
    halves per word. A leaf is a header word (key count and leaf bit)
    and up to 14 sorted keys, two per word. An internal node packs its
    header with child 0 in word 0 and separator [i-1] with child [i] in
    word [i]: up to 7 separators and 8 children. Insert is one descent
    that splits bottom-up only when a node overflows; delete removes the
    key from its leaf and merges nothing, so leaves may go empty while
    the separators above them stay valid bounds. Mutations shift the
    packed words in place. Keys and node addresses must lie in
    [\[0, 2^31)]. *)

module Make (S : Mt_stm.Stm_intf.S) : sig
  type t

  (** Allocate an empty set (outside any transaction). Every node
      allocation, here and inside transactions, raises [Invalid_argument]
      if its address does not fit the 31-bit pointer field. *)
  val create : Mt_core.Ctx.t -> t

  val contains : S.tx -> t -> int -> bool

  (** [insert tx t k] — false if [k] is already present. Raises
      [Invalid_argument] when [k] is outside [\[0, 2^31)]. *)
  val insert : S.tx -> t -> int -> bool

  (** [delete tx t k] — false if [k] is absent. *)
  val delete : S.tx -> t -> int -> bool

  (** [scan_plain ctx t ~lo ~hi ~budget] — plain (untagged, unvalidated)
      walk collecting the keys in [\[lo, hi\]] in ascending order,
      visiting at most [budget] nodes. Safe to run against concurrent
      commits (it never follows anything but null or a node address) but
      {e not} atomic on its own: callers must prove quiescence externally
      (the sharded store's per-shard version protocol does). Requires the
      STM to write a commit back in first-write order, as NOrec does. *)
  val scan_plain :
    Mt_core.Ctx.t -> t -> lo:int -> hi:int -> budget:int -> int list

  (** [mem_plain ctx t k] — [contains] as one plain (untagged,
      unvalidated) descent: the same code over [Ctx.read] instead of the
      STM's read. It terminates against concurrent commits (counts are
      clamped and every step goes one level down) but is exact only when
      the caller proves the tree quiescent across it, as the sharded
      store's version protocol does. *)
  val mem_plain : Mt_core.Ctx.t -> t -> int -> bool

  (** Timing-free contents, ascending, for test oracles (quiescent
      machine only). *)
  val to_list_unsafe : Mt_sim.Machine.t -> t -> int list

  (** Number of levels, leaves included (quiescent machine only). *)
  val depth_unsafe : Mt_sim.Machine.t -> t -> int
end
