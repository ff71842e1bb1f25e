(** Pluggable shard backends for the sharded store.

    A backend is a tagged set structure ({!Mt_list.Set_intf.SET}) plus
    two plain-read walks, a range collect and a one-key descent. The
    store's atomicity never leans on a backend op's tag set (every
    structure clears it internally); scans pair [scan_plain], and gets
    [mem_plain], with the store's per-shard version words, which prove
    the walked shard quiescent whenever the operation validates. *)

module type S = sig
  include Mt_list.Set_intf.SET

  (** Plain (untagged, unvalidated) walk collecting the keys in
      [\[lo, hi\]], visiting at most [budget] nodes. Only atomic under an
      external quiescence proof (the store's version protocol). It has
      two users: scans collect shards with it, and writes and
      transactions walk each key with the one-key walk [~lo:k ~hi:k]
      (which must return [\[k\]] when [k] is present and [\[\]]
      otherwise) before taking any shard lock: a write to prove itself a
      no-op or to warm its lines, a transaction only to warm them. *)
  val scan_plain :
    Mt_core.Ctx.t -> t -> lo:int -> hi:int -> budget:int -> int list

  (** Plain (untagged, unvalidated) one-key descent: [contains] without
      any synchronization of its own, terminating against concurrent
      updates but exact only under the same quiescence proof as
      [scan_plain]. Gets run it between two equal even reads of the
      shard version, and a transaction's [Get] sub-ops under the held
      shard locks. It must agree with [contains] on a quiescent
      structure. *)
  val mem_plain : Mt_core.Ctx.t -> t -> int -> bool
end

(** The hand-over-hand tagged list ({!Mt_list.Hoh_list}). *)
module Hoh_list : S

(** The HoH-tagged relaxed (a,b)-tree, (4,8). *)
module Hoh_abtree : S

(** A transactional B+-tree ({!Tx_btree}, one cache line per node,
    two 31-bit fields per word: fanout 8, 14-key leaves) on tagged NOrec;
    each shard owns a private STM instance so only the store coordinates
    across shards. *)
module Norec_map : S

(** Registry, keyed by the backend's [name]: ["hoh-list"],
    ["hoh-abtree"], ["norec-tagged"]. *)
val all : (string * (module S)) list

val by_name : string -> (module S) option
val name : (module S) -> string
