(** The baseline relaxed (a,b)-tree built on LLX/SCX, after Brown's thesis
    chapter 8 — the implementation the paper's Figures 6 and 7 compare
    MemTags against.

    Same tree shape and rebalancing steps as {!Abtree_hoh}, but
    synchronized with the Brown–Ellen–Ruppert primitives: every update
    LLXes the involved nodes, allocates an SCX-record, freezes each node
    with a CAS on its info word, marks removed nodes, swings one child
    pointer and commits — the per-update overhead that a single IAS
    replaces in the tagged variant. *)

module Make (_ : sig
  val a : int
  val b : int
end) : sig
  include Mt_list.Set_intf.SET

  (** Structural invariant check on a quiescent machine. *)
  val check : Mt_sim.Machine.t -> t -> Checker.report
end

(** The LLX/SCX baseline at the paper's (a,b) = (4,8) (DESIGN §4), the
    one instance the benchmarks run. *)
module Paper : Mt_list.Set_intf.SET
