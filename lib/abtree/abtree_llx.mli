(** The baseline relaxed (a,b)-tree built on LLX/SCX, after Brown's thesis
    chapter 8 — the implementation the paper's Figures 6 and 7 compare
    MemTags against.

    Same tree shape and rebalancing steps as {!Abtree_hoh}; both trees
    plan each step once, in {!Node_desc}, and differ only in how they read
    the nodes involved and commit the result. This one reads LLX snapshots
    and commits with the Brown–Ellen–Ruppert SCX: every update
    LLXes the involved nodes, allocates an SCX-record, freezes each node
    with a CAS on its info word, marks removed nodes, swings one child
    pointer and commits — the per-update overhead that a single IAS
    replaces in the tagged variant. As the published baseline, a failed
    update retries at once, without consulting the contention policy.

    {b Key domain.} Nodes hold keys and child addresses in 31-bit
    half-words ({!Node_desc}), so keys must lie in [\[0, 2^31)]: [insert]
    raises [Invalid_argument] on a key outside it. [contains] and
    [delete] of such a key return [false]. *)

module Make (_ : sig
  val a : int
  val b : int
end) : sig
  include Mt_list.Set_intf.SET

  (** Structural invariant check on a quiescent machine. *)
  val check : Mt_sim.Machine.t -> t -> Checker.report

  (** {1 Node layout} — hand-built nodes and trees, for the layout
      tests. *)

  (** [write_desc ctx d] allocates a fresh, unpublished node holding [d]
      in {!Node_desc}'s layout and returns its address: an internal node
      is a record of [b] field words, a leaf one of the [(b + 2) / 2]
      words of [b] keys. Raises [Invalid_argument] when [d] has more than
      [b] children or keys, or a key or child pointer that does not fit
      31 bits. *)
  val write_desc : Mt_core.Ctx.t -> Node_desc.t -> Mt_core.Ctx.addr

  (** [peek_desc machine node] — the node at [node], read timing-free. *)
  val peek_desc : Mt_sim.Machine.t -> Mt_core.Ctx.addr -> Node_desc.t

  (** [of_root ctx root] — a tree whose sentinel has [root] as its only
      child. *)
  val of_root : Mt_core.Ctx.t -> Mt_core.Ctx.addr -> t
end

(** The LLX/SCX baseline at the paper's (a,b) = (4,8) (DESIGN §4), the
    one instance the benchmarks run. *)
module Paper : Mt_list.Set_intf.SET
