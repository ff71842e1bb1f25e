open Mt_core

(* A store shard backend: a tagged set structure plus two plain-read
   walks, a range collect and a one-key descent. The store never relies
   on a backend op's own tag set surviving the call — every structure
   clears the tag set internally — which is why atomicity of scans and
   gets comes from the store's per-shard version words and the backend
   only has to provide unvalidated walks ([scan_plain], [mem_plain]) that
   the version protocol proves quiescent. *)
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
  val scan_plain : Ctx.t -> t -> lo:int -> hi:int -> budget:int -> int list

  (** Plain (untagged, unvalidated) one-key descent: [contains] without
      any synchronization of its own, terminating against concurrent
      updates but exact only under the same quiescence proof as
      [scan_plain]. Gets run it between two equal even reads of the
      shard version, and a transaction's [Get] sub-ops under the held
      shard locks. It must agree with [contains] on a quiescent
      structure. *)
  val mem_plain : Ctx.t -> t -> int -> bool
end

(* The two HoH structures' [contains] are already plain untagged walks. *)
module Hoh_list : S = struct
  include Mt_list.Hoh_list

  let mem_plain = contains
end

module Hoh_abtree : S = struct
  include Mt_abtree.Abtree_hoh.Paper

  let name = "hoh-abtree"
  let mem_plain = contains
end

(* A B+-tree with one cache line per node, two 31-bit fields per word
   (fanout 8, 14-key leaves), run on tagged NOrec. Each
   shard owns a private NOrec instance (its own sequence lock), so
   transactions on distinct shards never conflict at the STM layer —
   cross-shard atomicity is the store's job, not NOrec's. *)
module Norec_map : S = struct
  module Stm = Mt_stm.Norec_tagged
  module TB = Tx_btree.Make (Stm)

  type t = { stm : Stm.t; tree : TB.t }

  let name = "norec-tagged"
  let create ctx = { stm = Stm.create ctx; tree = TB.create ctx }

  let insert ctx t k =
    Stm.atomically ctx t.stm (fun tx -> TB.insert tx t.tree k)

  let delete ctx t k =
    Stm.atomically ctx t.stm (fun tx -> TB.delete tx t.tree k)

  let contains ctx t k =
    Stm.atomically ctx t.stm (fun tx -> TB.contains tx t.tree k)

  let scan_plain ctx t ~lo ~hi ~budget = TB.scan_plain ctx t.tree ~lo ~hi ~budget
  let mem_plain ctx t k = TB.mem_plain ctx t.tree k
  let to_list_unsafe machine t = TB.to_list_unsafe machine t.tree
end

let name (module B : S) = B.name
