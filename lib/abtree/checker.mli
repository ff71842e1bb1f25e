(** Structural invariant checker for (a,b)-trees, run on a quiescent
    machine (no fibers active) through timing-free reads.

    After every update has completed its rebalancing, a relaxed (a,b)-tree
    must have contracted to a strict one: no flagged (weight-0) nodes, all
    leaves at the same depth, all arities within [a, b] (root exempted). *)

(** Timing-free node reader, variant-specific. *)
type reader = int -> Node_desc.t

type report = {
  ok : bool;
  errors : string list;  (** empty iff [ok] *)
  nodes : int;
  height : int;          (** leaf depth below the sentinel *)
  n_keys : int;
}

(** [check ~a ~b ~reader ~sentinel] walks the whole tree. *)
val check : a:int -> b:int -> reader:reader -> sentinel:int -> report

(** [keys ~reader ~sentinel] — every key in the leaves, in order: the
    trees' [to_list_unsafe]. *)
val keys : reader:reader -> sentinel:int -> int list
