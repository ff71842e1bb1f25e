(* Correctness tests for the linked-list variants: the generic SET
   battery (sequential oracle, concurrent accounting, determinism), the
   one-word node layout and key domain, the Figure 1 counterexample, and
   HoH range snapshots. *)

open Mt_sim
open Mt_core

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let machine ?(cores = 8) () = Machine.create (Config.default ~num_cores:cores ())

module Harris_battery = Set_battery.Make (Mt_list.Harris_list)
module Vas_battery = Set_battery.Make (Mt_list.Vas_list)
module Hoh_battery = Set_battery.Make (Mt_list.Hoh_list)
module Elided_battery = Set_battery.Make (Mt_list.Elided_list)

(* ------------------------------------------------------------------ *)
(* The HLE-style fallback path (paper Section 3): with Max_Tags too small
   for even the HoH window, the fast path can never validate — operations
   must stay live and correct through the global-lock slow path. *)

let test_fallback_under_tiny_max_tags () =
  let cfg = { (Config.default ~num_cores:4 ()) with max_tags = 2 } in
  let m = Machine.create cfg in
  let s = Harness.exec1 m (fun ctx -> Mt_list.Elided_list.create ctx) in
  let ins = Array.make 32 0 and del = Array.make 32 0 in
  let (_ : int) =
    Harness.exec m ~seed:19 ~threads:4 (fun ctx ->
        let g = Ctx.prng ctx in
        for _ = 1 to 40 do
          let k = Prng.int g 32 in
          if Prng.bool g then begin
            if Mt_list.Elided_list.insert ctx s k then ins.(k) <- ins.(k) + 1
          end
          else if Mt_list.Elided_list.delete ctx s k then del.(k) <- del.(k) + 1
        done)
  in
  let final = Mt_list.Elided_list.to_list_unsafe m s in
  for k = 0 to 31 do
    let net = ins.(k) - del.(k) in
    check_bool "net in {0,1}" true (net = 0 || net = 1);
    check_bool "membership matches net" true (List.mem k final = (net = 1))
  done;
  check_bool "the slow path actually ran" true
    (Mt_list.Elided_list.slow_path_count m s > 0)

let test_fallback_rare_on_normal_config () =
  (* Moderate contention: the fast path should carry (almost) everything. *)
  let m = machine ~cores:4 () in
  let s = Harness.exec1 m (fun ctx -> Mt_list.Elided_list.create ctx) in
  let ops = 400 in
  let (_ : int) =
    Harness.exec m ~seed:23 ~threads:4 (fun ctx ->
        let g = Ctx.prng ctx in
        for _ = 1 to ops / 4 do
          let k = Prng.int g 256 in
          match Prng.int g 10 with
          | 0 | 1 -> ignore (Mt_list.Elided_list.insert ctx s k)
          | 2 -> ignore (Mt_list.Elided_list.delete ctx s k)
          | _ -> ignore (Mt_list.Elided_list.contains ctx s k)
        done)
  in
  let slow = Mt_list.Elided_list.slow_path_count m s in
  check_bool
    (Printf.sprintf "fast path carries a sane machine (%d/%d slow)" slow ops)
    true
    (slow * 100 <= ops)

(* ------------------------------------------------------------------ *)
(* The Figure 1 counterexample: a traversal parked on a node must be
   aborted when that node is deleted. With IAS deletes (HoH list), the
   parked traversal's validation fails. *)

let test_figure1_ias_aborts_parked_traversal () =
  let m = machine ~cores:2 () in
  let s =
    Harness.exec1 m (fun ctx ->
        let s = Mt_list.Hoh_list.create ctx in
        List.iter (fun k -> ignore (Mt_list.Hoh_list.insert ctx s k)) [ 10; 20; 30 ];
        s)
  in
  let parked_validation = ref None in
  let rt = Runtime.create () in
  (* Fiber 0: locate key 20 (leaves tags on its pred and curr = nodes 10 and
     20), park for a long time, then validate. *)
  Runtime.spawn rt (fun () ->
      let ctx = Ctx.make m ~rt ~core:0 ~prng:(Prng.create ~seed:1) in
      let _pred, _pw, _curr, cw = Mt_list.Hoh_list.For_testing.locate ctx s 20 in
      check_int "found 20" 20 (Mt_list.Node.key cw);
      Runtime.stall_on rt 100_000;
      parked_validation := Some (Ctx.validate ctx);
      Ctx.clear_tag_set ctx);
  (* Fiber 1: wait until fiber 0 is parked, then delete key 20. *)
  Runtime.spawn rt (fun () ->
      let ctx = Ctx.make m ~rt ~core:1 ~prng:(Prng.create ~seed:2) in
      Runtime.stall_on rt 50_000;
      check_bool "delete succeeded" true (Mt_list.Hoh_list.delete ctx s 20));
  Runtime.run rt;
  Alcotest.(check (option bool))
    "parked traversal aborted by IAS" (Some false) !parked_validation

let test_figure1_vas_would_miss_it () =
  (* Control experiment: a plain remote VAS to a *different* line (the
     predecessor) does not invalidate the parked thread's tag on the deleted
     node itself — demonstrating why Algorithm 2 needs IAS. *)
  let m = machine ~cores:2 () in
  let a = Machine.alloc m ~words:8 in
  let b = Machine.alloc m ~words:8 in
  (* Parked thread tags only b (the node being deleted). *)
  let _ = Machine.add_tag m ~core:0 b ~words:1 in
  (* Deleter swings the pointer in a (the predecessor) via VAS. *)
  let _ = Machine.add_tag m ~core:1 a ~words:1 in
  let ok = Machine.vas m ~core:1 a 42 in
  check_bool "vas ok" true ok;
  let still_valid = Machine.validate m ~core:0 in
  check_bool "parked tag NOT invalidated by remote VAS elsewhere" true still_valid

(* ------------------------------------------------------------------ *)
(* HoH range snapshots. *)

let test_range_basic () =
  let m = machine () in
  Harness.exec1 m (fun ctx ->
      let s = Mt_list.Hoh_list.create ctx in
      List.iter (fun k -> ignore (Mt_list.Hoh_list.insert ctx s k)) [ 1; 3; 5; 7; 9 ];
      (match Mt_list.Hoh_list.range ctx s ~lo:3 ~hi:7 with
      | Some keys -> Alcotest.(check (list int)) "range [3,7]" [ 3; 5; 7 ] keys
      | None -> Alcotest.fail "range failed");
      match Mt_list.Hoh_list.range ctx s ~lo:10 ~hi:20 with
      | Some keys -> Alcotest.(check (list int)) "empty range" [] keys
      | None -> Alcotest.fail "range failed")

let test_range_overflow_returns_none () =
  let cfg = { (Config.default ~num_cores:1 ()) with max_tags = 4 } in
  let m = Machine.create cfg in
  Harness.exec1 m (fun ctx ->
      let s = Mt_list.Hoh_list.create ctx in
      for k = 1 to 20 do
        ignore (Mt_list.Hoh_list.insert ctx s k)
      done;
      match Mt_list.Hoh_list.range ctx s ~lo:1 ~hi:20 with
      | None -> ()
      | Some _ -> Alcotest.fail "range should overflow Max_Tags")

(* The adversary's squeeze lowers the live ceiling below what the range
   needs: the range sees it and gives up, where a walk sized from the
   configured Max_Tags would fail every validate and restart forever. *)
let test_range_lowered_ceiling_returns_none () =
  let m = machine ~cores:1 () in
  Harness.exec1 m (fun ctx ->
      let s = Mt_list.Hoh_list.create ctx in
      for k = 1 to 10 do
        ignore (Mt_list.Hoh_list.insert ctx s k)
      done;
      Machine.set_max_tags m 3;
      match Mt_list.Hoh_list.range ctx s ~lo:1 ~hi:10 with
      | None -> ()
      | Some _ -> Alcotest.fail "range should outgrow a ceiling of 3")

module Hoh_race = Set_battery.Range_race (Mt_list.Hoh_list)

let test_range_snapshots_are_consistent_under_updates () =
  (* Writers toggle pairs (2k, 2k+1) by inserting the missing sibling
     before deleting the present one, so "at least one of each pair
     present" holds at every instant; each atomic snapshot must see it. *)
  let pairs = 8 in
  let m = machine ~cores:4 () in
  let s =
    Harness.exec1 m (fun ctx ->
        let s = Mt_list.Hoh_list.create ctx in
        for p = 0 to pairs - 1 do
          ignore (Mt_list.Hoh_list.insert ctx s (2 * p))
        done;
        s)
  in
  let violations = ref 0 and snapshots = ref 0 in
  let (_ : int) =
    Harness.exec m ~seed:5 ~threads:3 (fun ctx ->
        let id = Ctx.core ctx in
        if id < 2 then
          let g = Ctx.prng ctx in
          for _ = 1 to 150 do
            let p = Prng.int g pairs in
            if Mt_list.Hoh_list.insert ctx s ((2 * p) + 1) then
              ignore (Mt_list.Hoh_list.delete ctx s (2 * p))
            else if Mt_list.Hoh_list.insert ctx s (2 * p) then
              ignore (Mt_list.Hoh_list.delete ctx s ((2 * p) + 1))
          done
        else
          for _ = 1 to 60 do
            match Mt_list.Hoh_list.range ctx s ~lo:0 ~hi:(2 * pairs) with
            | None -> ()
            | Some keys ->
                incr snapshots;
                for p = 0 to pairs - 1 do
                  let has_even = List.mem (2 * p) keys in
                  let has_odd = List.mem ((2 * p) + 1) keys in
                  if not (has_even || has_odd) then incr violations
                done
          done)
  in
  check_bool "took snapshots" true (!snapshots > 0);
  check_int "no atomicity violations" 0 !violations

(* ------------------------------------------------------------------ *)
(* The one-word node layout ([Node]) and the key domain. *)

module Node = Mt_list.Node

let lists : (module Mt_list.Set_intf.SET) list =
  [
    (module Mt_list.Harris_list);
    (module Mt_list.Vas_list);
    (module Mt_list.Hoh_list);
    (module Mt_list.Elided_list);
  ]

let prop_word_roundtrip =
  QCheck.Test.make ~name:"node word roundtrip" ~count:1000
    QCheck.(
      triple (int_range 0 (Node.tail_key - 1)) (int_range 0 ((1 lsl 30) - 1))
        (int_range 0 ((1 lsl 30) - 1)))
    (fun (key, next, next') ->
      let w = Node.word ~key ~next in
      let w' = Node.with_next w next' in
      let m = Node.mark w in
      Node.key w = key && Node.next w = next && not (Node.is_marked w)
      && Node.key w' = key && Node.next w' = next' && not (Node.is_marked w')
      && Node.key m = key && Node.next m = next && Node.is_marked m
      && Node.mark m = m)

(* A node is one word on its own line: consecutive allocations are one
   line apart. *)
let test_nodes_one_line_apart () =
  let m = machine ~cores:1 () in
  let line_words = Config.line_words (Machine.cfg m) in
  Harness.exec1 m (fun ctx ->
      let n1 = Node.alloc ctx ~key:1 ~next:Memory.null in
      let n2 = Node.alloc ctx ~key:2 ~next:n1 in
      check_int "one line apart" line_words (n2 - n1))

let check_invalid what f =
  match f () with
  | _ -> Alcotest.failf "%s: accepted" what
  | exception Invalid_argument _ -> ()

(* Keys lie in [0, 2^31 - 1): [insert] rejects a key outside, which
   [contains] and [delete] report absent; the tail sentinel's key is not
   a member. *)
let test_key_domain () =
  List.iter
    (fun (module S : Mt_list.Set_intf.SET) ->
      let m = machine ~cores:1 () in
      Harness.exec1 m (fun ctx ->
          let s = S.create ctx in
          let largest = Node.tail_key - 1 in
          List.iter
            (fun k ->
              check_invalid
                (Printf.sprintf "%s: insert %d" S.name k)
                (fun () -> S.insert ctx s k))
            [ -1; Node.tail_key; Mt_core.Half.limit; max_int; min_int ];
          List.iter
            (fun k ->
              check_bool (Printf.sprintf "%s: contains %d" S.name k) false (S.contains ctx s k);
              check_bool (Printf.sprintf "%s: delete %d" S.name k) false (S.delete ctx s k))
            [ -1; Node.tail_key; Mt_core.Half.limit; max_int ];
          check_bool (S.name ^ ": insert 0") true (S.insert ctx s 0);
          check_bool (S.name ^ ": insert largest") true (S.insert ctx s largest);
          check_bool (S.name ^ ": largest found") true (S.contains ctx s largest);
          check_bool (S.name ^ ": tail key absent") false (S.contains ctx s Node.tail_key);
          Alcotest.(check (list int)) (S.name ^ ": contents") [ 0; largest ]
            (S.to_list_unsafe m s)))
    lists

(* On a core that has read nothing, a traversal loads each node it visits
   once, and that load is its only L1 miss there: the key, the successor
   and the mark come in one word. The list holds 0, 2, …, 2(n-1); a
   [contains] of key 2j visits the head and j + 1 nodes, a [delete] of the
   absent key 2j + 1 the head and j + 2 nodes (the elided list's fast path
   also tags its mode line). *)
let test_one_load_per_node () =
  let n = 12 in
  List.iter
    (fun (module S : Mt_list.Set_intf.SET) ->
      List.iter
        (fun j ->
          List.iter
            (fun (what, op, visits) ->
              let m = machine ~cores:2 () in
              let s =
                Harness.exec1 m (fun ctx ->
                    let s = S.create ctx in
                    for i = 0 to n - 1 do
                      ignore (S.insert ctx s (2 * i))
                    done;
                    s)
              in
              let (_ : int) =
                Harness.exec m ~threads:2 (fun ctx ->
                    if Ctx.core ctx = 1 then ignore (op ctx s))
              in
              let st = Machine.stats m ~core:1 in
              let label = Printf.sprintf "%s: %s, j = %d" S.name what j in
              check_int (label ^ ": loads") visits st.loads;
              check_int (label ^ ": L1 misses") visits st.l1_misses)
            [
              ("contains", (fun ctx s -> S.contains ctx s (2 * j)), j + 2);
              ( "delete of an absent key",
                (fun ctx s -> S.delete ctx s ((2 * j) + 1)),
                j + 3 + if S.name = Mt_list.Elided_list.name then 1 else 0 );
            ])
        [ 0; 1; n / 2; n - 1 ])
    lists

let () =
  Alcotest.run "mt_list"
    [
      ("harris", Harris_battery.cases);
      ("vas", Vas_battery.cases);
      ("hoh", Hoh_battery.cases);
      ("elided", Elided_battery.cases);
      ( "layout",
        [
          QCheck_alcotest.to_alcotest prop_word_roundtrip;
          Alcotest.test_case "list nodes one line apart" `Quick test_nodes_one_line_apart;
          Alcotest.test_case "key domain" `Quick test_key_domain;
          Alcotest.test_case "one load and L1 miss per node" `Quick test_one_load_per_node;
        ] );
      ( "fallback",
        [
          Alcotest.test_case "tiny Max_Tags stays live" `Quick
            test_fallback_under_tiny_max_tags;
          Alcotest.test_case "rare on normal config" `Quick
            test_fallback_rare_on_normal_config;
        ] );
      ( "figure1",
        [
          Alcotest.test_case "IAS aborts parked traversal" `Quick
            test_figure1_ias_aborts_parked_traversal;
          Alcotest.test_case "VAS alone would miss it" `Quick
            test_figure1_vas_would_miss_it;
        ] );
      ( "range",
        [
          Alcotest.test_case "basic" `Quick test_range_basic;
          Alcotest.test_case "overflow -> None" `Quick test_range_overflow_returns_none;
          Alcotest.test_case "lowered ceiling -> None" `Quick
            test_range_lowered_ceiling_returns_none;
          Alcotest.test_case "token race" `Quick Hoh_race.test;
          Alcotest.test_case "snapshot consistency" `Quick
            test_range_snapshots_are_consistent_under_updates;
        ] );
    ]
