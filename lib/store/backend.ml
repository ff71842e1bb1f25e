open Mt_core

(* A store shard backend: a set structure that only the shard-lock
   holder updates, plus two plain-read walks whose results the store's
   version words validate. The contract and the argument that it is
   enough are in backend.mli. *)
module type S = sig
  type t

  val name : string
  val create : Ctx.t -> t
  val insert : Ctx.t -> t -> int -> bool
  val delete : Ctx.t -> t -> int -> bool
  val scan_plain : Ctx.t -> t -> lo:int -> hi:int -> budget:int -> int list
  val mem_plain : Ctx.t -> t -> int -> bool
  val to_list_unsafe : Mt_sim.Machine.t -> t -> int list
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

(* The B+-tree written directly: the shard lock is its only
   synchronization. *)
module Norec_map : S = struct
  include Tx_btree.Direct

  let name = "norec-tagged"
end

let name (module B : S) = B.name
