open Mt_core

(* A store shard backend: a set structure that only the shard-lock
   holder updates, plus a range collect written over its load (plain, or
   tagged so that one validate certifies it), a plain one-key descent
   that reports the leaf it ended at, and updates on that leaf. The
   contract and the argument that it is enough are in backend.mli. *)
module type S = sig
  type t

  val name : string
  val create : Ctx.t -> t
  val insert : Ctx.t -> t -> int -> bool
  val delete : Ctx.t -> t -> int -> bool
  val collect :
    Ctx.load -> Ctx.t -> t -> lo:int -> hi:int -> budget:int -> int list
  val find : Ctx.t -> t -> int -> Tx_btree.found
  val insert_at : Ctx.t -> t -> Tx_btree.found -> int -> Tx_btree.at
  val delete_at : Ctx.t -> t -> Tx_btree.found -> int -> Tx_btree.at
  val mem_at : Ctx.t -> t -> Tx_btree.found -> int -> bool
  val to_list_unsafe : Mt_sim.Machine.t -> t -> int list
end

(* The HoH tree's [contains] is already a plain untagged walk. It commits
   through its own IAS, so it reports no leaf, and every update takes
   its full path. *)
module Hoh_abtree : S = struct
  include Mt_abtree.Abtree_hoh.Paper

  let name = "hoh-abtree"
  let find ctx t k = Tx_btree.membership (contains ctx t k)
  let insert_at _ _ _ _ = Tx_btree.Full_path
  let delete_at _ _ _ _ = Tx_btree.Full_path
  let mem_at ctx t _ k = contains ctx t k
end

(* The B+-tree written directly: the shard lock is its only
   synchronization. *)
module Norec_map : S = struct
  include Tx_btree.Direct

  let name = "norec-tagged"
  let insert_at ctx _ f k = insert_at ctx f k
  let delete_at ctx _ f k = delete_at ctx f k
  let mem_at ctx _ f k = mem_at ctx f k
end

let name (module B : S) = B.name
