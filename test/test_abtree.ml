(* Tests for both (a,b)-tree variants: the generic SET battery, structural
   invariants after quiescence (balance, arity, ordering), qcheck
   properties of the pure rebalancing arithmetic, and HoH range
   snapshots. *)

open Mt_sim
open Mt_core
module Node_desc = Mt_abtree.Node_desc

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

module Small = struct
  let a = 2
  let b = 4
end

module Mid = struct
  let a = 4
  let b = 8
end

module Hoh_small = Mt_abtree.Abtree_hoh.Make (Small)
module Hoh_mid = Mt_abtree.Abtree_hoh.Make (Mid)
module Llx_small = Mt_abtree.Abtree_llx.Make (Small)
module Llx_mid = Mt_abtree.Abtree_llx.Make (Mid)

module Hoh_battery = Set_battery.Make (Hoh_small)
module Llx_battery = Set_battery.Make (Llx_small)
module Hoh_mid_battery = Set_battery.Make (Hoh_mid)
module Llx_mid_battery = Set_battery.Make (Llx_mid)

let machine ?(cores = 8) () = Machine.create (Config.default ~num_cores:cores ())

(* ------------------------------------------------------------------ *)
(* Structural invariants after sequential and concurrent runs. *)

let assert_report name (r : Mt_abtree.Checker.report) =
  if not r.ok then
    Alcotest.failf "%s: invariant violations: %s" name (String.concat "; " r.errors)

let test_invariants_sequential_hoh () =
  let m = machine () in
  let t =
    Harness.exec1 m (fun ctx ->
        let t = Hoh_small.create ctx in
        let g = Prng.create ~seed:3 in
        for _ = 1 to 3000 do
          let k = Prng.int g 300 in
          if Prng.int g 3 = 0 then ignore (Hoh_small.delete ctx t k)
          else ignore (Hoh_small.insert ctx t k)
        done;
        t)
  in
  let r = Hoh_small.check m t in
  assert_report "hoh sequential" r;
  check_bool "grew some height" true (r.height >= 2)

let test_invariants_sequential_llx () =
  let m = machine () in
  let t =
    Harness.exec1 m (fun ctx ->
        let t = Llx_small.create ctx in
        let g = Prng.create ~seed:3 in
        for _ = 1 to 3000 do
          let k = Prng.int g 300 in
          if Prng.int g 3 = 0 then ignore (Llx_small.delete ctx t k)
          else ignore (Llx_small.insert ctx t k)
        done;
        t)
  in
  assert_report "llx sequential" (Llx_small.check m t)

let test_invariants_grow_then_shrink () =
  let m = machine () in
  let t =
    Harness.exec1 m (fun ctx ->
        let t = Hoh_small.create ctx in
        for k = 0 to 499 do
          ignore (Hoh_small.insert ctx t k)
        done;
        for k = 0 to 479 do
          ignore (Hoh_small.delete ctx t k)
        done;
        t)
  in
  let r = Hoh_small.check m t in
  assert_report "grow/shrink" r;
  check_int "remaining keys" 20 r.n_keys

module type CHECKED_SET = sig
  include Mt_list.Set_intf.SET

  val check : Machine.t -> t -> Mt_abtree.Checker.report
end

let concurrent_invariants name (module T : CHECKED_SET) () =
  let threads = 8 in
  let m = machine ~cores:threads () in
  let t = Harness.exec1 m (fun ctx -> T.create ctx) in
  let (_ : int) =
    Harness.exec m ~seed:11 ~threads (fun ctx ->
        let g = Ctx.prng ctx in
        for _ = 1 to 250 do
          let k = Prng.int g 200 in
          match Prng.int g 3 with
          | 0 -> ignore (T.delete ctx t k)
          | 1 -> ignore (T.insert ctx t k)
          | _ -> ignore (T.contains ctx t k)
        done)
  in
  assert_report name (T.check m t)

let test_concurrent_invariants_hoh =
  concurrent_invariants "hoh concurrent" (module Hoh_small)

let test_concurrent_invariants_llx =
  concurrent_invariants "llx concurrent" (module Llx_small)

let test_concurrent_invariants_hoh_mid =
  concurrent_invariants "hoh(4,8) concurrent" (module Hoh_mid)

let test_concurrent_invariants_llx_mid =
  concurrent_invariants "llx(4,8) concurrent" (module Llx_mid)

(* ------------------------------------------------------------------ *)
(* HoH range snapshots on trees. *)

let test_tree_range_basic () =
  let m = machine () in
  Harness.exec1 m (fun ctx ->
      let t = Hoh_small.create ctx in
      for k = 0 to 99 do
        ignore (Hoh_small.insert ctx t (2 * k))
      done;
      match Hoh_small.range ctx t ~lo:10 ~hi:20 with
      | Some keys -> Alcotest.(check (list int)) "range" [ 10; 12; 14; 16; 18; 20 ] keys
      | None -> Alcotest.fail "range overflow unexpectedly")

(* Writers toggle pairs; every atomic snapshot must see at least one
   element of each pair (same invariant as the list range test, but
   through subtree-tagged tree snapshots). *)
let test_tree_range_snapshot_consistency () =
  let pairs = 6 in
  let m = machine ~cores:4 () in
  let t =
    Harness.exec1 m (fun ctx ->
        let t = Hoh_small.create ctx in
        for p = 0 to pairs - 1 do
          ignore (Hoh_small.insert ctx t (2 * p))
        done;
        t)
  in
  let violations = ref 0 and snapshots = ref 0 in
  let (_ : int) =
    Harness.exec m ~seed:31 ~threads:3 (fun ctx ->
        if Ctx.core ctx < 2 then
          let g = Ctx.prng ctx in
          for _ = 1 to 120 do
            let p = Prng.int g pairs in
            if Hoh_small.insert ctx t ((2 * p) + 1) then
              ignore (Hoh_small.delete ctx t (2 * p))
            else if Hoh_small.insert ctx t (2 * p) then
              ignore (Hoh_small.delete ctx t ((2 * p) + 1))
          done
        else
          for _ = 1 to 60 do
            match Hoh_small.range ctx t ~lo:0 ~hi:(2 * pairs) with
            | None -> ()
            | Some keys ->
                incr snapshots;
                for p = 0 to pairs - 1 do
                  if
                    (not (List.mem (2 * p) keys))
                    && not (List.mem ((2 * p) + 1) keys)
                  then incr violations
                done
          done)
  in
  check_bool "snapshots happened" true (!snapshots > 0);
  check_int "no torn tree snapshots" 0 !violations

let test_tree_range_overflow () =
  (* Small enough that a whole-tree snapshot overflows, but large enough
     that the 3-node locate window of updates still fits. *)
  let cfg = { (Config.default ~num_cores:1 ()) with max_tags = 12 } in
  let m = Machine.create cfg in
  Harness.exec1 m (fun ctx ->
      let t = Hoh_small.create ctx in
      for k = 0 to 199 do
        ignore (Hoh_small.insert ctx t k)
      done;
      match Hoh_small.range ctx t ~lo:0 ~hi:199 with
      | None -> ()
      | Some _ -> Alcotest.fail "expected Max_Tags overflow")

(* ------------------------------------------------------------------ *)
(* qcheck properties of the pure node arithmetic. *)

let keys_gen =
  (* sort_uniq can collapse duplicate draws below split's 2-key minimum;
     pad with keys above the drawn range to keep the array well-formed. *)
  QCheck.Gen.(
    map
      (fun l ->
        let l = List.sort_uniq compare l in
        let l = if List.length l >= 2 then l else l @ [ 1001; 1002 ] in
        Array.of_list l)
      (list_size (int_range 2 9) (int_range 0 1000)))

let leaf_arb =
  QCheck.make
    ~print:(fun d -> Format.asprintf "%a" Node_desc.pp d)
    QCheck.Gen.(
      map
        (fun keys -> { Node_desc.weight = 1; leaf = true; keys; ptrs = [||] })
        keys_gen)

let prop_split_preserves_keys =
  QCheck.Test.make ~name:"split preserves key multiset" ~count:300 leaf_arb (fun d ->
      let l, r, sep = Node_desc.split d in
      let combined = Array.append l.Node_desc.keys r.Node_desc.keys in
      combined = d.Node_desc.keys
      && sep = r.Node_desc.keys.(0)
      && abs (Array.length l.Node_desc.keys - Array.length r.Node_desc.keys) <= 1)

let prop_merge_then_split_roundtrip =
  QCheck.Test.make ~name:"distribute balances leaves" ~count:300
    (QCheck.pair leaf_arb leaf_arb) (fun (l, r) ->
      (* Shift r's keys above l's to keep ordering. *)
      let offset = 2000 in
      let r = { r with Node_desc.keys = Array.map (fun k -> k + offset) r.Node_desc.keys } in
      let l', r', sep = Node_desc.distribute_pair ~sep:0 l r in
      let keys d = Array.to_list d.Node_desc.keys in
      List.sort compare (keys l' @ keys r') = List.sort compare (keys l @ keys r)
      && abs (Array.length l'.Node_desc.keys - Array.length r'.Node_desc.keys) <= 1
      && sep = l'.Node_desc.keys.(Array.length l'.Node_desc.keys - 1) + 1
         || sep = r'.Node_desc.keys.(0))

let prop_leaf_insert_remove_roundtrip =
  QCheck.Test.make ~name:"leaf insert/remove roundtrip" ~count:300
    (QCheck.pair leaf_arb (QCheck.int_range 1001 2000)) (fun (d, k) ->
      let d' = Node_desc.leaf_remove (Node_desc.leaf_insert d k) k in
      d'.Node_desc.keys = d.Node_desc.keys)

let prop_absorb_preserves_children =
  QCheck.Test.make ~name:"absorb preserves children and keys" ~count:300
    (QCheck.pair (QCheck.int_range 0 3) QCheck.unit) (fun (ix, ()) ->
      let parent =
        {
          Node_desc.weight = 1;
          leaf = false;
          keys = [| 100; 200; 300 |];
          ptrs = [| 1; 2; 3; 4 |];
        }
      in
      let child =
        {
          Node_desc.weight = 0;
          leaf = false;
          keys = [| 10; 20 |];
          ptrs = [| 11; 12; 13 |];
        }
      in
      let comb = Node_desc.absorb ~parent ~ix ~child in
      Array.length comb.Node_desc.ptrs = 6
      && Array.length comb.Node_desc.keys = 5
      && comb.Node_desc.weight = 1
      && Array.to_list comb.Node_desc.ptrs
         = (let l = [ 1; 2; 3; 4 ] in
            List.concat
              [
                List.filteri (fun i _ -> i < ix) l;
                [ 11; 12; 13 ];
                List.filteri (fun i _ -> i > ix) l;
              ]))

(* Randomized sequential oracle against stdlib Set, at both parameter
   choices, exercising deep splits and merges. *)
let test_deep_oracle (module T : Mt_list.Set_intf.SET) () =
  let m = machine () in
  Harness.exec1 m (fun ctx ->
      let t = T.create ctx in
      let g = Prng.create ~seed:99 in
      let module O = Set.Make (Int) in
      let oracle = ref O.empty in
      for _ = 1 to 4000 do
        let k = Prng.int g 1000 in
        match Prng.int g 5 with
        | 0 | 1 | 2 ->
            check_bool "ins" (not (O.mem k !oracle)) (T.insert ctx t k);
            oracle := O.add k !oracle
        | 3 ->
            check_bool "del" (O.mem k !oracle) (T.delete ctx t k);
            oracle := O.remove k !oracle
        | _ -> check_bool "mem" (O.mem k !oracle) (T.contains ctx t k)
      done;
      check_bool "final" true (T.to_list_unsafe (Ctx.machine ctx) t = O.elements !oracle))

(* ------------------------------------------------------------------ *)
(* The catalog, the one name table of every front-end. *)

module Catalog = Mt_workload.Catalog

let set_name (module S : Mt_list.Set_intf.SET) = S.name

(* Each name a front-end accepted before the catalog existed still
   resolves to a module of the same [name]: memtag_bench's at the paper's
   (4,8), memtag_fuzz's with the trees at (2,4), and the store's. *)
let test_catalog_names () =
  let resolves among instance =
    List.iter (fun (n, expected) ->
        match Catalog.find among n with
        | Some e -> Alcotest.(check string) n expected (instance e)
        | None -> Alcotest.failf "%s does not resolve" n)
  in
  resolves Catalog.runnable
    (fun e -> set_name e.set)
    [ ("harris", "harris-list"); ("vas", "vas-list"); ("hoh", "hoh-list");
      ("abtree-llx", "llx-abtree(4,8)"); ("abtree-hoh", "hoh-abtree(4,8)") ];
  resolves Catalog.all
    (fun e -> set_name e.fuzz)
    [ ("harris_list", "harris-list"); ("vas_list", "vas-list");
      ("hoh_list", "hoh-list"); ("elided_list", "elided-hoh-list");
      ("abtree_hoh", "hoh-abtree(2,4)"); ("abtree_llx", "llx-abtree(2,4)");
      ("norec_btree", "norec-tagged"); ("buggy_list", "buggy-list");
      ("buggy_abtree", "buggy-abtree") ];
  resolves Catalog.all
    (fun e -> Option.fold ~none:"" ~some:Mt_store.Backend.name e.backend)
    (List.map (fun n -> (n, n)) [ "hoh-list"; "hoh-abtree"; "norec-tagged" ])

let test_catalog_lists () =
  let names = List.concat_map (fun (e : Catalog.entry) -> e.name :: e.aliases) Catalog.all in
  check_int "no name or alias twice" (List.length names)
    (List.length (List.sort_uniq compare names));
  Alcotest.(check (list string))
    "--all: the non-canaries in fuzz order"
    [ "harris_list"; "vas_list"; "hoh_list"; "elided_list"; "abtree_hoh";
      "abtree_llx"; "norec_btree" ]
    (List.map (fun (e : Catalog.entry) -> e.name) Catalog.runnable);
  Alcotest.(check (list string))
    "store backends" [ "hoh-list"; "hoh-abtree"; "norec-tagged" ]
    (List.map Mt_store.Backend.name Catalog.backends)

(* Why the fuzzer's trees are (2,4): filling the fuzzer's default key
   range in order leaves a (2,4) root over four leaves (split leaves
   absorbed below the root), a (4,8) root over two (a single RootUntag). *)
let test_catalog_fuzz_trees () =
  let range = Mt_check.Explore.default_params.range in
  let nodes (module T : CHECKED_SET) =
    let m = machine ~cores:1 () in
    let t =
      Harness.exec1 m (fun ctx ->
          let t = T.create ctx in
          for k = 0 to range - 1 do
            ignore (T.insert ctx t k)
          done;
          t)
    in
    let r = T.check m t in
    assert_report T.name r;
    r.nodes
  in
  check_int "hoh(2,4) root + leaves" 5 (nodes (module Hoh_small));
  check_int "llx(2,4) root + leaves" 5 (nodes (module Llx_small));
  check_int "hoh(4,8) root + leaves" 3 (nodes (module Hoh_mid));
  check_int "llx(4,8) root + leaves" 3 (nodes (module Llx_mid))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "mt_abtree"
    [
      ("hoh(2,4) battery", Hoh_battery.cases);
      ("llx(2,4) battery", Llx_battery.cases);
      ("hoh(4,8) battery", Hoh_mid_battery.cases);
      ("llx(4,8) battery", Llx_mid_battery.cases);
      ( "invariants",
        [
          Alcotest.test_case "hoh sequential" `Quick test_invariants_sequential_hoh;
          Alcotest.test_case "llx sequential" `Quick test_invariants_sequential_llx;
          Alcotest.test_case "grow then shrink" `Quick test_invariants_grow_then_shrink;
          Alcotest.test_case "hoh concurrent" `Quick test_concurrent_invariants_hoh;
          Alcotest.test_case "llx concurrent" `Quick test_concurrent_invariants_llx;
          Alcotest.test_case "hoh(4,8) concurrent" `Quick
            test_concurrent_invariants_hoh_mid;
          Alcotest.test_case "llx(4,8) concurrent" `Quick
            test_concurrent_invariants_llx_mid;
          Alcotest.test_case "deep oracle hoh" `Slow (test_deep_oracle (module Hoh_mid));
          Alcotest.test_case "deep oracle llx" `Slow (test_deep_oracle (module Llx_mid));
        ] );
      ( "range",
        [
          Alcotest.test_case "basic" `Quick test_tree_range_basic;
          Alcotest.test_case "overflow" `Quick test_tree_range_overflow;
          Alcotest.test_case "snapshot consistency" `Quick
            test_tree_range_snapshot_consistency;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "front-end names resolve" `Quick test_catalog_names;
          Alcotest.test_case "names, --all and backends" `Quick test_catalog_lists;
          Alcotest.test_case "fuzz trees rebalance in range" `Quick
            test_catalog_fuzz_trees;
        ] );
      ( "node_desc",
        qsuite
          [
            prop_split_preserves_keys;
            prop_merge_then_split_roundtrip;
            prop_leaf_insert_remove_roundtrip;
            prop_absorb_preserves_children;
          ] );
    ]
