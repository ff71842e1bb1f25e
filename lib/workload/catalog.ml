module type SET = Mt_list.Set_intf.SET

type entry = {
  name : string;
  aliases : string list;
  set : (module SET);
  fuzz : (module Mt_check.Explore.TARGET);
  backend : (module Mt_store.Backend.S) option;
  canary : bool;
}

let entry ?(aliases = []) ?fuzz ?backend ?(canary = false) name set =
  let fuzz = Option.value fuzz ~default:(Mt_check.Explore.plain set) in
  { name; aliases; set; fuzz; backend; canary }

(* The fuzzer's trees are (2,4), the smallest legal (a,b), so that its
   default 12-key range reaches every rebalancing step. At (4,8) a 12-key
   tree is one leaf or a root over at most three leaves: a split leaf is
   always the root's child (RootUntag) and no internal node ever
   overflows. Measured on the default fuzz workload (range 12, prefill 4,
   4 threads x 50 ops, seeds 0-59): (2,4) ran AbsorbChild 196 times and
   PropagateTag 2 times, (4,8) neither. Filling the 12 keys in order
   leaves a (2,4) root over four leaves, a (4,8) root over two (pinned by
   the "catalog" tests in test/test_abtree.ml). *)
module Fuzz_ab = struct
  let a = 2
  let b = 4
end

let harris_list = entry "harris_list" ~aliases:[ "harris" ] (module Mt_list.Harris_list)
let vas_list = entry "vas_list" ~aliases:[ "vas" ] (module Mt_list.Vas_list)

let hoh_list =
  entry "hoh_list" ~aliases:[ "hoh"; "hoh-list" ] (module Mt_list.Hoh_list)

let elided_list = entry "elided_list" (module Mt_list.Elided_list)

let abtree_hoh =
  entry "abtree_hoh" ~aliases:[ "abtree-hoh"; "hoh-abtree" ]
    (module Mt_abtree.Abtree_hoh.Paper)
    ~fuzz:(Mt_check.Explore.tree (module Mt_abtree.Abtree_hoh.Make (Fuzz_ab)))
    ~backend:(module Mt_store.Backend.Hoh_abtree)

let abtree_llx =
  entry "abtree_llx" ~aliases:[ "abtree-llx" ]
    (module Mt_abtree.Abtree_llx.Paper)
    ~fuzz:(Mt_check.Explore.tree (module Mt_abtree.Abtree_llx.Make (Fuzz_ab)))

(* The store's B+-tree as a standalone concurrent set: every operation
   is one transaction on the set's own tagged-NOrec instance. The store's
   shards run the same tree directly under their lock
   ([Mt_store.Backend.Norec_map]). *)
module Norec_btree : SET = struct
  module Stm = Mt_stm.Norec_tagged
  module TB = Mt_store.Tx_btree.Make (Stm)

  type t = { stm : Stm.t; tree : TB.t }

  let name = "norec-tagged"
  let create ctx = { stm = Stm.create ctx; tree = TB.create ctx }

  let insert ctx t k =
    Stm.atomically ctx t.stm (fun tx -> TB.insert tx t.tree k)

  let delete ctx t k =
    Stm.atomically ctx t.stm (fun tx -> TB.delete tx t.tree k)

  let contains ctx t k =
    Stm.atomically ctx t.stm (fun tx -> TB.contains tx t.tree k)

  let to_list_unsafe machine t = TB.to_list_unsafe machine t.tree
end

let norec_btree =
  entry "norec_btree" ~aliases:[ "norec-tagged" ]
    (module Norec_btree)
    ~backend:(module Mt_store.Backend.Norec_map)

let all =
  [
    harris_list;
    vas_list;
    hoh_list;
    elided_list;
    abtree_hoh;
    abtree_llx;
    norec_btree;
    entry "buggy_list" ~canary:true (module Mt_check.Buggy_list);
    entry "buggy_abtree" ~canary:true (module Mt_check.Buggy_abtree);
  ]

let runnable = List.filter (fun e -> not e.canary) all
let find among n = List.find_opt (fun e -> e.name = n || List.mem n e.aliases) among

let known among =
  String.concat ", " (List.map (fun e -> String.concat "|" (e.name :: e.aliases)) among)

let backends = List.filter_map (fun e -> e.backend) all
