(** A transactional B+-tree set in simulated memory, accessed through an
    STM's read/write primitives: the sharded store's [norec-tagged] shard.

    Every node is one 8-word cache line: a header word packing the key
    count and a leaf bit, then up to 7 sorted keys (leaf) or 3
    separators and 4 children (internal). Insert is one descent that
    splits bottom-up only when a node overflows; delete removes the key
    from its leaf and merges nothing, so leaves may go empty while the
    separators above them stay valid bounds. *)

module Make (S : Mt_stm.Stm_intf.S) : sig
  type t

  (** Allocate an empty set (outside any transaction). *)
  val create : Mt_core.Ctx.t -> t

  val contains : S.tx -> t -> int -> bool

  (** [insert tx t k] — false if [k] is already present. *)
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

  (** Timing-free contents, ascending, for test oracles (quiescent
      machine only). *)
  val to_list_unsafe : Mt_sim.Machine.t -> t -> int list

  (** Number of levels, leaves included (quiescent machine only). *)
  val depth_unsafe : Mt_sim.Machine.t -> t -> int
end
