(* The store's shard structure: the B+-tree written directly, the shard
   lock its only synchronization. The contract and the argument that it
   is enough are in backend.mli. *)
module type S = sig
  include Tx_btree.TREE with type tx = Mt_core.Ctx.t

  val name : string
end

module Norec_map : S = struct
  include Tx_btree.Direct

  let name = "norec-tagged"
end

let name (module B : S) = B.name
