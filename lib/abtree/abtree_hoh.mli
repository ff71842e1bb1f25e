(** The HoH-tagged relaxed (a,b)-tree (paper Section 5.1, Algorithms 3-5).

    Leaf-oriented: all keys live in leaves; internal nodes route. Nodes are
    immutable except for internal child pointers, which are swung {e in
    place} by a single IAS per update — the paper's headline property:
    atomic node modification without validating the whole root-to-leaf
    path, with exactly one atomic pointer change, and minimal coherence
    traffic.

    Every operation that needs to modify the tree performs a hand-over-hand
    tagged descent keeping a window of three ancestors (grandparent,
    parent, current) tagged, per the paper's Observation that no operation
    removes a chain longer than two nodes. All node removals go through IAS
    (the Synchronization Rule), which transiently "marks" removed nodes by
    invalidating them at every core that has them tagged.

    Rebalancing repeatedly fixes the first violation on the search path:
    RootUntag, RootAbsorb, AbsorbChild, PropagateTag, AbsorbSibling,
    Distribute — until the path is violation-free. {!Node_desc} plans
    each step (as it does for {!Abtree_llx}); this tree reads the nodes
    involved with tagged loads plus validate and commits with one IAS. *)

(** What every HoH tree offers beyond {!Mt_list.Set_intf.SET}. *)
module type S = sig
  include Mt_list.Set_intf.SET

  (** Atomic range snapshot [\[lo, hi\]]: a range walk over tagged
      loads, which tag exactly the lines of each visited node that it
      reads, certified by one validate ({!Mt_core.Ctx.certified});
      [None] when the range spans more lines than [Max_Tags] (as the
      machine currently sets it) allows. *)
  val range : Mt_core.Ctx.t -> t -> lo:int -> hi:int -> int list option

  (** Structural invariant check on a quiescent machine. *)
  val check : Mt_sim.Machine.t -> t -> Checker.report
end

(** Generalized over the insert commit: [validated_insert = false] drops
    the IAS validation from insert's pointer swing (a plain store commits
    blindly over a possibly-replaced window). That configuration exists
    {e only} as a seeded bug for the checker battery
    ([Mt_check.Buggy_abtree]); every real tree goes through {!Make}. *)
module Make_gen (_ : sig
  val a : int
  val b : int
  val validated_insert : bool
end) : S

module Make (_ : sig
  val a : int
  (** minimum degree; [a >= 2] *)

  val b : int
  (** maximum degree; [b >= 2*a - 1] *)
end) : S

(** The paper's evaluation tree, (a,b) = (4,8) (DESIGN §4): the one
    instance the benchmarks and the examples run. *)
module Paper : S
