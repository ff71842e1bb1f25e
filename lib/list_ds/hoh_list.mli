(** The hand-over-hand tagged linked list (paper Algorithm 2).

    No mark bits at all: traversals keep tags on a sliding window of
    [(pred, curr)] — readers never write — and deletes perform the pointer
    swing with invalidate-and-swap, which invalidates the deleted node at
    every core that has it tagged ("transient marking"). This aborts any
    concurrent traversal standing on the deleted node, which is exactly the
    Figure 1 counterexample that plain VAS cannot prevent. *)

include Set_intf.SET

(** [range ctx t ~lo ~hi] returns an atomic snapshot of the keys in
    [\[lo, hi\]] ({!Mt_core.Ctx.certified}): it locates [lo], tags every
    node of the range and validates once (the paper's "cheap lock-free
    snapshots"). Returns [None] if the range cannot fit in the tag set
    ([Max_Tags], as the machine currently sets it). *)
val range : Mt_core.Ctx.t -> t -> lo:int -> hi:int -> int list option

(** {2 The pieces {!Elided_list}'s fast path is built from} *)

(** [create_labelled ~label ctx] is {!create} with the nodes attributed to
    [label] in the hot-line profile ([create] uses ["hoh-node"]). *)
val create_labelled : label:string -> Mt_core.Ctx.t -> t

val head : t -> Mt_core.Ctx.addr

(** [(pred, pw, curr, cw)]: two adjacent nodes and the {!Node} words their
    tagged loads read. *)
type window = Mt_core.Ctx.addr * int * Mt_core.Ctx.addr * int

(** [walk ctx t k] is one attempt of LOCATE: it returns the window with
    [pred.key < k <= Node.key cw] and [pred] and [curr] left tagged, or
    raises {!Mt_core.Ctx.Restart} when a validation fails. The caller must
    eventually [clear_tag_set]. *)
val walk : Mt_core.Ctx.t -> t -> int -> window

(** [insert_at ctx t window k] and [delete_at ctx t window k] are the
    commit steps of INSERT (a VAS) and DELETE (an IAS) on a window from
    {!walk}, tags still held: [Some result] when the operation is decided,
    [None] when the swap lost a race. Each writes [pred]'s whole word,
    built from [pw]; [delete_at] takes curr's successor from [cw]. They
    leave the tag set as it is. *)
val insert_at : Mt_core.Ctx.t -> t -> window -> int -> bool option

val delete_at : Mt_core.Ctx.t -> t -> window -> int -> bool option

(** Internals exposed for white-box tests (e.g. reproducing Figure 1). *)
module For_testing : sig
  (** [locate ctx t k] returns {!walk}'s window and leaves [pred] and
      [curr] tagged; the caller must [clear_tag_set]. *)
  val locate : Mt_core.Ctx.t -> t -> int -> window
end
