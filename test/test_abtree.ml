(* Tests for both (a,b)-tree variants: the generic SET battery, structural
   invariants after quiescence (balance, arity, ordering), qcheck
   properties of the pure rebalancing arithmetic, the node layout, and
   HoH range snapshots. *)

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

(* The live ceiling lowered below the range's lines, as the adversary's
   squeeze does: the range returns [None] instead of restarting. *)
let test_tree_range_lowered_ceiling () =
  let m = machine ~cores:1 () in
  Harness.exec1 m (fun ctx ->
      let t = Hoh_small.create ctx in
      for k = 0 to 199 do
        ignore (Hoh_small.insert ctx t k)
      done;
      Machine.set_max_tags m 3;
      match Hoh_small.range ctx t ~lo:0 ~hi:199 with
      | None -> ()
      | Some _ -> Alcotest.fail "range should outgrow a ceiling of 3")

(* Every live ceiling from 2 up gives a (4,8) range an answer: [None],
   or the exact keys. An internal node of 7 or 8 keys spans three
   lines, and its second tagged load tags two of them, so at some
   ceiling that load steps past the ceiling instead of stopping before
   it. When that node is the walk's last (an empty window [lo, lo - 1]
   between two of its children), the walk ends with the tag set
   overflowed, a validate that can never pass, and must still return. *)
let test_tree_range_every_ceiling () =
  let m = machine ~cores:1 () in
  Harness.exec1 m (fun ctx ->
      let t = Hoh_mid.create ctx in
      let g = Prng.create ~seed:1 in
      for _ = 1 to 200 do
        ignore (Hoh_mid.insert ctx t (Prng.int g 1000))
      done;
      let all = Hoh_mid.to_list_unsafe m t in
      let fits = ref 0 in
      for ceiling = 2 to 64 do
        Machine.set_max_tags m ceiling;
        (match Hoh_mid.range ctx t ~lo:0 ~hi:999 with
        | None -> ()
        | Some keys ->
            incr fits;
            Alcotest.(check (list int))
              (Printf.sprintf "ceiling %d" ceiling)
              all keys);
        for lo = 1 to 999 do
          match Hoh_mid.range ctx t ~lo ~hi:(lo - 1) with
          | None | Some [] -> ()
          | Some _ -> Alcotest.failf "ceiling %d: empty window has keys" ceiling
        done
      done;
      check_bool "the widest ceilings fit the range" true (!fits > 0))

module Hoh_race = Set_battery.Range_race (Hoh_small)

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

(* The shared rebalancing steps, driven by a recording writer: [ctx] is
   the log, and each write gets a fresh fake address. *)
let record log d =
  let addr = 10_000 + List.length !log in
  log := (addr, d) :: !log;
  addr

let ab_gen =
  QCheck.Gen.(
    int_range 2 4 >>= fun a ->
    map (fun b -> (a, b)) (int_range ((2 * a) - 1) ((2 * a) + 3)))

(* [n] strictly increasing keys starting above [lo]. *)
let ascending_gen ~lo n =
  QCheck.Gen.(
    map
      (fun gaps ->
        let k = ref lo in
        Array.of_list (List.map (fun g -> k := !k + g; !k) gaps))
      (list_repeat n (int_range 1 5)))

(* A weight-1 node holding [keys]; an internal one gets fake children. *)
let node ~leaf keys =
  let ptrs = if leaf then [||] else Array.init (Array.length keys + 1) (fun i -> i + 1) in
  { Node_desc.weight = 1; leaf; keys; ptrs }

let prop_write_fitted =
  let gen =
    QCheck.Gen.(
      pair ab_gen bool >>= fun ((_, b), leaf) ->
      int_range 0 (2 * b) >>= fun n ->
      map (fun keys -> (b, node ~leaf keys)) (ascending_gen ~lo:0 n))
  in
  QCheck.Test.make ~name:"write_fitted: one node, or two halves then a flagged parent"
    ~count:300
    (QCheck.make ~print:(fun (b, d) -> Format.asprintf "b=%d %a" b Node_desc.pp d) gen)
    (fun (b, d) ->
      let log = ref [] in
      let addr = Node_desc.write_fitted ~b record log d in
      match List.rev !log with
      | [ (x, d') ] -> Node_desc.size d <= b && x = addr && d' = d
      | [ (la, l); (ra, r); (pa, parent) ] ->
          let l', r', sep = Node_desc.split d in
          Node_desc.size d > b && l = l' && r = r' && pa = addr
          && parent = { weight = 0; leaf = false; keys = [| sep |]; ptrs = [| la; ra |] }
      | _ -> false)

(* Two same-kind siblings [l] and [r] at children [li] and [li+1] of a
   parent with [n] children, keys in routing order: the parent's keys
   left of the pair are negative, right of it above every pair key. *)
let pair_gen =
  QCheck.Gen.(
    triple ab_gen bool (int_range 2 6) >>= fun ((_, b), leaf, n) ->
    let lo = if leaf then 0 else 1 in
    triple (int_range lo b) (int_range lo b) (int_range 0 (n - 2))
    >>= fun (nl, nr, li) ->
    (* Leaves: l's keys, then r's; the separator is r's first key (or above
       l's when r is empty). Internal: l's keys, the separator, r's keys. *)
    let kl = if leaf then nl else nl - 1 and kr = if leaf then nr else nr - 1 in
    map
      (fun ks ->
        let l = node ~leaf (Array.sub ks 0 kl) in
        let sep = ks.(kl) in
        let r = node ~leaf (Array.sub ks (if leaf then kl else kl + 1) kr) in
        let top = ks.(Array.length ks - 1) in
        let keys =
          Array.init (n - 1) (fun i ->
              if i < li then -100 * (li - i) else if i = li then sep else top + (100 * i))
        in
        let ptrs = Array.init n (fun i -> i + 1) in
        (b, { Node_desc.weight = 1; leaf = false; keys; ptrs }, li, l, r))
      (ascending_gen ~lo:0 (kl + kr + 1)))

let prop_rebalance_pair =
  QCheck.Test.make ~name:"rebalance_pair: merges exactly when the pair fits, keys in order"
    ~count:500
    (QCheck.make
       ~print:(fun (b, p, li, l, r) ->
         Format.asprintf "b=%d li=%d p=%a l=%a r=%a" b li Node_desc.pp p Node_desc.pp l
           Node_desc.pp r)
       pair_gen)
    (fun (b, p, li, l, r) ->
      let log = ref [] in
      let pa = Node_desc.rebalance_pair ~b record log p li l r in
      let written = List.rev !log in
      let p' = List.assoc pa written in
      let merged = Node_desc.size l + Node_desc.size r <= b in
      let fresh = if merged then 1 else 2 in
      let kids = List.init fresh (fun i -> List.assoc p'.ptrs.(li + i) written) in
      (* The pair's keys in order: each leaf's keys, or each internal
         node's keys with the separators between them. *)
      let flat seps ds =
        List.concat
          (List.mapi
             (fun i (d : Node_desc.t) ->
               (if i > 0 && not d.leaf then [ seps.(i - 1) ] else []) @ Array.to_list d.keys)
             ds)
      in
      let sorted keys =
        let rec go = function x :: (y :: _ as tl) -> x < y && go tl | _ -> true in
        go (Array.to_list keys)
      in
      (* Every key of child i lies between the parent's keys i-1 and i. *)
      let routed (d : Node_desc.t) i =
        Array.for_all
          (fun k ->
            (i = 0 || p'.keys.(i - 1) <= k) && (i = Array.length p'.keys || k < p'.keys.(i)))
          d.keys
      in
      List.length written = fresh + 1
      && fst (List.nth written fresh) = pa
      && Array.length p'.ptrs = Array.length p.ptrs - (if merged then 1 else 0)
      && sorted p'.keys
      && List.for_all2 routed kids (List.init fresh (fun i -> li + i))
      && flat (Array.sub p'.keys li (fresh - 1)) kids = flat [| p.keys.(li) |] [ l; r ])

let prop_violates =
  let gen =
    QCheck.Gen.(
      triple ab_gen bool bool >>= fun ((a, b), root_child, leaf) ->
      (* The counts a strict (a,b)-tree allows: keys for a leaf, keys =
         children - 1 for an internal node; the root's child is exempt
         from [a], but an internal one has at least two children. *)
      let lo, hi =
        match (root_child, leaf) with
        | true, true -> (0, b)
        | true, false -> (1, b - 1)
        | false, true -> (a, b)
        | false, false -> (a - 1, b - 1)
      in
      map (fun count -> (a, root_child, leaf, count)) (int_range lo hi))
  in
  QCheck.Test.make ~name:"violates: never a strict node, always a flagged one" ~count:500
    (QCheck.make
       ~print:(fun (a, rc, leaf, count) ->
         Printf.sprintf "a=%d root_child=%b leaf=%b count=%d" a rc leaf count)
       gen)
    (fun (a, root_child, leaf, count) ->
      let meta weight = Node_desc.pack_meta ~leaf ~weight ~count in
      (not (Node_desc.violates ~a ~root_child (meta 1)))
      && Node_desc.violates ~a ~root_child (meta 0))

(* ------------------------------------------------------------------ *)
(* Node layout: both (4,8)-trees store a node as Node_desc lays it out,
   two 31-bit half slots per word: a leaf [meta|k0, k1|k2, ...], an
   internal node [meta|p0, k0|p1, ..., k(n-1)|pn], inside a fixed
   allocation per tree and node kind. *)

module type LAYOUT = sig
  include CHECKED_SET

  val write_desc : Ctx.t -> Node_desc.t -> Ctx.addr
  val peek_desc : Machine.t -> Ctx.addr -> Node_desc.t
  val of_root : Ctx.t -> Ctx.addr -> t
end

(* Each tree's node allocation, in words: b for every HoH node; for an
   LLX record 3 header words, then b field words (internal) or the
   (b + 2) / 2 words of b keys (leaf). *)
let hoh_alloc ~leaf:_ = Mid.b
let llx_header = 3
let llx_alloc ~leaf = llx_header + if leaf then (Mid.b + 2) / 2 else Mid.b

(* A leaf of 0 to b keys or an internal node of 1 to b children, with
   keys and child pointers distinct from each other and from 0. *)
let layout_arb =
  QCheck.make
    ~print:(fun d -> Format.asprintf "%a" Node_desc.pp d)
    QCheck.Gen.(
      bool >>= fun leaf ->
      triple (return leaf)
        (if leaf then int_range 0 Mid.b else int_range 0 (Mid.b - 1))
        (int_range 0 1)
      >>= fun (leaf, count, weight) ->
      map
        (fun keys ->
          let ptrs =
            if leaf then [||] else Array.init (count + 1) (fun i -> 100_000 + i)
          in
          { Node_desc.weight; leaf; keys; ptrs })
        (ascending_gen ~lo:0 count))

(* Written into a fresh machine, the node reads back the same, and every
   word past its allocation (through the line-rounding slack and the
   next lines) still holds 0: no key or pointer lies outside it. *)
let prop_layout_roundtrip name (module T : LAYOUT) ~alloc =
  QCheck.Test.make ~name:(name ^ ": write, peek back, inside the allocation")
    ~count:400 layout_arb (fun d ->
      let m = machine ~cores:1 () in
      let n = Harness.exec1 m (fun ctx -> T.write_desc ctx d) in
      let words = alloc ~leaf:d.leaf in
      T.peek_desc m n = d
      && List.for_all
           (fun w -> Machine.peek m (n + w) = 0)
           (List.init 64 (( + ) words)))

(* An internal root with [count] keys 100, 200, ..., over [count + 1]
   full leaves, leaf i holding 100 i .. 100 i + b - 1. *)
let full_leaves_root (module T : LAYOUT) ctx ~count =
  let leaf i = T.write_desc ctx (node ~leaf:true (Array.init Mid.b (fun j -> (100 * i) + j))) in
  T.write_desc ctx
    {
      Node_desc.weight = 1;
      leaf = false;
      keys = Array.init count (fun i -> 100 * (i + 1));
      ptrs = Array.init (count + 1) leaf;
    }

(* The mechanism of the half-width layout: a search for the last key of
   leaf [ix], on a core that has read nothing, scans the whole leaf and
   the root's keys up to the one that ends its scan. In the HoH tree
   every node is one line, so the search misses on exactly three lines:
   sentinel, root and leaf. In the LLX tree the leaf is one line too
   (3 header words and the 5 words of b keys); the root, 3 header words
   and then word i holding child i, misses on the lines up to the word
   of the key that ends the scan, or of the last child. *)
let test_descent_misses (module T : LAYOUT) ~header () =
  for count = 0 to Mid.b - 1 do
    for ix = 0 to count do
      let m = machine ~cores:2 () in
      let line_words = Config.line_words (Machine.cfg m) in
      let t =
        Harness.exec1 m (fun ctx -> T.of_root ctx (full_leaves_root (module T) ctx ~count))
      in
      let found = ref false in
      let (_ : int) =
        Harness.exec m ~threads:2 (fun ctx ->
            if Ctx.core ctx = 1 then found := T.contains ctx t ((100 * ix) + Mid.b - 1))
      in
      let last = header + min (ix + 1) count in
      check_bool "found" true !found;
      check_int
        (Printf.sprintf "%s: %d keys, child %d" T.name count ix)
        (1 + ((last / line_words) + 1) + 1)
        (Machine.stats m ~core:1).l1_misses
    done
  done

(* Hand-built trees for counting a descent's reads. Level [l] of
   [counts] is a row of internal nodes of [counts.(l)] keys each, and leaf
   [j] (in key order) holds the [leaf_count j] keys [stride j + 2 i]:
   every key of leaf [j] lies in [\[stride j, stride (j + 1))], and odd
   keys are absent. *)
let stride = (2 * Mid.b) + 2
let leaf_count j = 1 + (j mod Mid.b)
let span counts = List.fold_left (fun acc c -> acc * (c + 1)) 1 counts

(* The subtree over the leaves from [lo] whose levels are [counts]. *)
let rec build_levels (module T : LAYOUT) ctx counts lo =
  match counts with
  | [] ->
      T.write_desc ctx
        (node ~leaf:true (Array.init (leaf_count lo) (fun i -> (stride * lo) + (2 * i))))
  | c :: below ->
      let s = span below in
      T.write_desc ctx
        {
          Node_desc.weight = 1;
          leaf = false;
          keys = Array.init c (fun i -> stride * (lo + ((i + 1) * s)));
          ptrs = Array.init (c + 1) (fun i -> build_levels (module T) ctx below (lo + (i * s)));
        }

(* The reads a descent to leaf [j] makes in the internal nodes of
   [counts] over the leaves from [lo]: per node, [header] reads, its
   first word, and the words its key scan reads, [ix + 1] when the scan
   stops at key [ix] and all [c] when it passes the last key. The child
   comes out of a word already read. *)
let rec walk_reads ~header counts lo j =
  match counts with
  | [] -> 0
  | c :: below ->
      let s = span below in
      let ix = (j - lo) / s in
      header + 1 + (if ix < c then ix + 1 else c)
      + walk_reads ~header below (lo + (ix * s)) j

(* A descent reads each word of a node at most once. Over hand-built
   trees of 1 to 3 internal levels under the sentinel (a level of 0
   keys), with 1 to b children per internal node, a [contains] of key
   [i] of leaf [j] makes exactly {!walk_reads} loads on the way down,
   then [header] reads, the leaf's first word, and [(i + 1) / 2] more
   words up to the one holding the key. [header] is the LLX tree's
   field-count read ([Abtree_llx.node_info]), 0 in the HoH tree. A HoH
   [delete] of an absent key makes one tagged load, and no other load,
   per word of the same walk, then one per word of the leaf: its
   description is built from the first word the descent read. *)
let test_one_load_per_word () =
  List.iter
    (fun ((module T : LAYOUT), header, tagged_delete) ->
      for depth = 1 to 3 do
        for c = 0 to Mid.b - 1 do
          let counts = List.init depth (fun l -> (c + (3 * l)) mod Mid.b) in
          let m = machine ~cores:1 () in
          Harness.exec1 m (fun ctx ->
              let t = T.of_root ctx (build_levels (module T) ctx counts 0) in
              let st = Machine.stats m ~core:0 in
              for j = 0 to span counts - 1 do
                let label =
                  Printf.sprintf "%s: levels [%s], leaf %d" T.name
                    (String.concat ";" (List.map string_of_int counts))
                    j
                in
                let walk = walk_reads ~header (0 :: counts) 0 j in
                let i = j mod leaf_count j in
                let loads = st.loads in
                check_bool (label ^ ": found") true (T.contains ctx t ((stride * j) + (2 * i)));
                check_int (label ^ ": contains loads")
                  (walk + header + 1 + ((i + 1) / 2))
                  (st.loads - loads);
                if tagged_delete then begin
                  let loads = st.loads and tags = st.tag_adds in
                  check_bool (label ^ ": absent") false
                    (T.delete ctx t ((stride * j) + (2 * i) + 1));
                  let reads = walk + Node_desc.words ~leaf:true ~count:(leaf_count j) in
                  check_int (label ^ ": delete tagged loads") reads (st.tag_adds - tags);
                  check_int (label ^ ": delete loads") reads (st.loads - loads)
                end
              done)
        done
      done)
    [ ((module Hoh_mid : LAYOUT), 0, true); ((module Llx_mid : LAYOUT), 1, false) ]

(* [Abtree_hoh.collect] tags a node's first line, then any other lines
   its words use in one more load, and reads the words plainly. Over
   hand-built trees whose nodes have every count (internal roots of 0 to
   b - 1 keys, leaves of 0 to b keys), a [range] on a core that has read
   nothing misses only on tagged loads: each L1 miss is followed by the
   tag of the same line, so no word the walk reads lies in a line it did
   not tag. *)
let test_range_reads_tagged_lines () =
  let b = Mid.b in
  for count = 0 to b - 1 do
    let obs = Mt_obs.Obs.create ~num_cores:2 () in
    let m = Machine.create ~obs (Config.default ~num_cores:2 ()) in
    (* Leaf i holds (count + i) mod (b + 1) keys, all in its child's
       range: across the roots, every leaf count from 0 to b. *)
    let keys_of i =
      Array.init ((count + i) mod (b + 1)) (fun j -> (100 * i) + j + 1)
    in
    let t =
      Harness.exec1 m (fun ctx ->
          let leaf i = Hoh_mid.write_desc ctx (node ~leaf:true (keys_of i)) in
          Hoh_mid.of_root ctx
            (Hoh_mid.write_desc ctx
               {
                 Node_desc.weight = 1;
                 leaf = false;
                 keys = Array.init count (fun i -> 100 * (i + 1));
                 ptrs = Array.init (count + 1) leaf;
               }))
    in
    let got = ref None in
    let (_ : int) =
      Harness.exec m ~threads:2 (fun ctx ->
          if Ctx.core ctx = 1 then
            got := Hoh_mid.range ctx t ~lo:0 ~hi:(100 * (count + 1)))
    in
    let all =
      List.concat (List.init (count + 1) (fun i -> Array.to_list (keys_of i)))
    in
    Alcotest.(check (option (list int)))
      (Printf.sprintf "%d keys: range" count)
      (Some all) !got;
    let trail =
      List.filter_map
        (fun (e : Mt_obs.Obs.event) ->
          match e.kind with
          | (L1_miss { line } | Tag_add { line }) when e.core = 1 -> Some (e.kind, line)
          | Validate _ when e.core = 1 -> Some (e.kind, -1)
          | _ -> None)
        (Mt_obs.Obs.events obs)
    in
    let rec untagged = function
      | (Mt_obs.Obs.L1_miss _, l) :: (Tag_add _, l') :: tl when l = l' -> untagged tl
      | (L1_miss _, l) :: _ -> Some l
      | _ :: tl -> untagged tl
      | [] -> None
    in
    let validates =
      List.filter
        (fun (k, _) -> k = Mt_obs.Obs.Validate { ok = true; spurious = false })
        trail
    in
    check_int (Printf.sprintf "%d keys: one attempt" count) 1 (List.length validates);
    Alcotest.(check (option int))
      (Printf.sprintf "%d keys: a line read untagged" count)
      None (untagged trail)
  done

let check_invalid what f =
  match f () with
  | _ -> Alcotest.failf "%s: accepted" what
  | exception Invalid_argument _ -> ()

(* Every slot is a 31-bit half: [write_desc] rejects an internal node of
   b keys (b + 1 children, past its b words) and any key or child
   pointer past 31 bits, and [insert] rejects a key outside [0, 2^31),
   which [contains] and [delete] report absent. *)
let test_domain (module T : LAYOUT) () =
  let m = machine ~cores:1 () in
  Harness.exec1 m (fun ctx ->
      let t = T.create ctx in
      let wide = Mt_core.Half.limit in
      let write what d = check_invalid (T.name ^ ": " ^ what) (fun () -> T.write_desc ctx d) in
      write "internal node of b keys" (node ~leaf:false (Array.init Mid.b (fun i -> i + 1)));
      write "leaf key past 31 bits" (node ~leaf:true [| 1; wide |]);
      write "separator past 31 bits" (node ~leaf:false [| wide |]);
      write "negative key" (node ~leaf:true [| -1 |]);
      write "child past 31 bits"
        { (node ~leaf:false [| 5 |]) with ptrs = [| 1; wide |] };
      List.iter
        (fun k ->
          check_invalid
            (Printf.sprintf "%s: insert %d" T.name k)
            (fun () -> T.insert ctx t k))
        [ -1; wide; max_int ];
      check_bool "contains -1" false (T.contains ctx t (-1));
      check_bool "delete 2^31" false (T.delete ctx t wide);
      check_bool "largest key" true (T.insert ctx t (wide - 1));
      check_bool "largest key found" true (T.contains ctx t (wide - 1)));
  check_invalid "with_child past 31 bits" (fun () ->
      Node_desc.with_child 0 Mt_core.Half.limit)

(* A HoH node is exactly one line: consecutive [write_desc] calls, of
   either node kind, return addresses one line apart. A larger
   allocation would start every node's only line on an even line index,
   leaving half the L2 sets unused. *)
let test_hoh_nodes_one_line_apart () =
  let m = machine ~cores:1 () in
  let line_words = Config.line_words (Machine.cfg m) in
  Harness.exec1 m (fun ctx ->
      List.iter
        (fun leaf ->
          let d = node ~leaf (Array.init (Mid.b - 1) (fun i -> i + 1)) in
          let n1 = Hoh_mid.write_desc ctx d in
          let n2 = Hoh_mid.write_desc ctx d in
          check_int (if leaf then "leaves" else "internal nodes") line_words (n2 - n1))
        [ true; false ])

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
   (4,8), and memtag_fuzz's with the trees at (2,4). *)
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
    (fun e ->
      let (module F) = e.fuzz in
      F.name)
    [ ("harris_list", "harris-list"); ("vas_list", "vas-list");
      ("hoh_list", "hoh-list"); ("elided_list", "elided-hoh-list");
      ("abtree_hoh", "hoh-abtree(2,4)"); ("abtree_llx", "llx-abtree(2,4)");
      ("norec_btree", "norec-tagged"); ("buggy_list", "buggy-list");
      ("buggy_abtree", "buggy-abtree") ]

let test_catalog_lists () =
  let names = List.concat_map (fun (e : Catalog.entry) -> e.name :: e.aliases) Catalog.all in
  check_int "no name or alias twice" (List.length names)
    (List.length (List.sort_uniq compare names));
  Alcotest.(check (list string))
    "--all: the non-canaries in fuzz order"
    [ "harris_list"; "vas_list"; "hoh_list"; "elided_list"; "abtree_hoh";
      "abtree_llx"; "norec_btree" ]
    (List.map (fun (e : Catalog.entry) -> e.name) Catalog.runnable);
  (* The store's former shard backend names stay accepted. *)
  Alcotest.(check (list (option string)))
    "store backend names" [ Some "abtree_hoh"; Some "norec_btree" ]
    (List.map
       (fun n ->
         Option.map (fun (e : Catalog.entry) -> e.name)
           (Catalog.find Catalog.runnable n))
       [ "hoh-abtree"; "norec-tagged" ])

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
          Alcotest.test_case "lowered ceiling" `Quick
            test_tree_range_lowered_ceiling;
          Alcotest.test_case "every ceiling returns" `Quick
            test_tree_range_every_ceiling;
          Alcotest.test_case "token race" `Quick Hoh_race.test;
          Alcotest.test_case "snapshot consistency" `Quick
            test_tree_range_snapshot_consistency;
        ] );
      ( "layout",
        [
          Alcotest.test_case "hoh descent misses" `Quick
            (test_descent_misses (module Hoh_mid) ~header:0);
          Alcotest.test_case "llx descent misses" `Quick
            (test_descent_misses (module Llx_mid) ~header:llx_header);
          Alcotest.test_case "one load per word on a descent" `Quick
            test_one_load_per_word;
          Alcotest.test_case "range reads only tagged lines" `Quick
            test_range_reads_tagged_lines;
          Alcotest.test_case "hoh key and slot domain" `Quick
            (test_domain (module Hoh_mid));
          Alcotest.test_case "llx key and slot domain" `Quick
            (test_domain (module Llx_mid));
          Alcotest.test_case "hoh nodes one line apart" `Quick
            test_hoh_nodes_one_line_apart;
        ]
        @ qsuite
            [
              prop_layout_roundtrip "hoh" (module Hoh_mid) ~alloc:hoh_alloc;
              prop_layout_roundtrip "llx" (module Llx_mid) ~alloc:llx_alloc;
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
            prop_write_fitted;
            prop_rebalance_pair;
            prop_violates;
          ] );
    ]
