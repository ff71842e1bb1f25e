(** Pluggable shard backends for the sharded store.

    A backend is a tagged set structure ({!Mt_list.Set_intf.SET}) plus a
    plain-read range collect. The store's atomicity never leans on a
    backend op's tag set (every structure clears it internally); range
    scans pair [scan_plain] with the store's per-shard version words,
    which prove the walked shard quiescent whenever the scan validates. *)

module type S = sig
  include Mt_list.Set_intf.SET

  (** Plain (untagged, unvalidated) walk collecting the keys in
      [\[lo, hi\]], visiting at most [budget] nodes. Only atomic under an
      external quiescence proof (the store's version protocol). It has
      two users: scans collect shards with it, and transactions warm
      each sub-op's key with the one-key walk [~lo:k ~hi:k] (which must
      return [\[k\]] when [k] is present and [\[\]] otherwise) before
      taking any shard lock, discarding the result. *)
  val scan_plain :
    Mt_core.Ctx.t -> t -> lo:int -> hi:int -> budget:int -> int list
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
