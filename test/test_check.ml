(* Unit tests for the linearizability checker itself (hand-written
   histories with known verdicts), the schedule explorer's determinism,
   and the end-to-end fuzz loop: every real structure must survive a seed
   sweep, and the deliberately broken list must be caught. *)

open Mt_check

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ev ?(core = 0) op result t_inv t_res =
  { History.core; op; result; t_inv; t_res }

let accepts ?init ?final name events =
  match Linearize.check_set ?init ?final (Array.of_list events) with
  | Ok () -> ()
  | Error v -> Alcotest.failf "%s: expected accept, got %a" name Linearize.pp_violation v

let rejects ?init ?final ?key name events =
  match Linearize.check_set ?init ?final (Array.of_list events) with
  | Ok () -> Alcotest.failf "%s: expected reject, accepted" name
  | Error v -> (
      match key with
      | Some k -> check_int (name ^ ": violating key") k v.key
      | None -> ())

(* ------------------------------------------------------------------ *)
(* Known-linearizable histories. *)

let test_accept_sequential () =
  accepts "sequential"
    [
      ev (Insert 5) true 0 10;
      ev (Contains 5) true 20 30;
      ev (Delete 5) true 40 50;
      ev (Contains 5) false 60 70;
      ev (Delete 5) false 80 90;
    ]

let test_accept_needs_reorder () =
  (* contains(5)=true is invoked after insert(5) but responds inside its
     interval: the only legal order puts the insert's linearization point
     first even though the intervals overlap. *)
  accepts "reorder"
    [
      ev ~core:0 (Insert 5) true 0 100;
      ev ~core:1 (Contains 5) true 10 20;
    ]

let test_accept_concurrent_insert_delete () =
  (* Overlapping insert=true / delete=true from an initially-present key:
     only delete-then-insert is legal; the checker must find it. *)
  accepts ~init:[ 5 ] "ins/del overlap"
    [
      ev ~core:0 (Insert 5) true 0 100;
      ev ~core:1 (Delete 5) true 0 100;
    ]

let test_accept_init () =
  accepts ~init:[ 7 ] "init contents" [ ev (Delete 7) true 0 10 ]

let test_accept_keys_independent () =
  (* Interleaved ops on different keys check independently. *)
  accepts "independent keys"
    [
      ev ~core:0 (Insert 1) true 0 50;
      ev ~core:1 (Insert 2) true 10 60;
      ev ~core:0 (Delete 1) true 60 90;
      ev ~core:1 (Contains 2) true 70 95;
    ]

(* ------------------------------------------------------------------ *)
(* Known-non-linearizable histories. *)

let test_reject_double_insert () =
  rejects ~key:5 "double insert"
    [ ev (Insert 5) true 0 10; ev (Insert 5) true 20 30 ]

let test_reject_stale_contains () =
  rejects ~key:5 "stale contains"
    [ ev (Insert 5) true 0 10; ev (Contains 5) false 20 30 ]

let test_reject_contains_from_nowhere () =
  rejects ~key:9 "phantom contains" [ ev (Contains 9) true 0 10 ]

let test_reject_across_quiescent_gap () =
  (* Segments split at the gap must still thread oracle state: the second
     segment's duplicate insert is illegal given the first. *)
  rejects ~key:5 "state threads across gap"
    [
      ev (Insert 5) true 0 10;
      ev ~core:1 (Contains 5) true 5 12;
      ev (Insert 5) true 1_000 1_010;
    ]

let test_reject_final_mismatch () =
  rejects ~key:3 "lost update vs memory"
    ~final:[] [ ev (Insert 3) true 0 10 ]

let test_reject_phantom_final_key () =
  rejects ~key:4 "phantom final key" ~final:[ 4 ] []

let test_reject_reports_offending_key () =
  rejects ~key:7 "key attribution"
    [
      ev (Insert 1) true 0 10;
      ev (Contains 7) true 20 30;
      ev (Delete 1) true 40 50;
    ]

(* ------------------------------------------------------------------ *)
(* The generic core: reachable final states. *)

let test_final_states_forced_order () =
  let model = Linearize.{ apply = (fun present op ->
      match op with
      | `Ins -> (not present, true)
      | `Del -> (present, false)) }
  in
  let entries =
    [|
      Linearize.{ op = `Ins; result = true; t_inv = 0; t_res = 100 };
      Linearize.{ op = `Del; result = true; t_inv = 0; t_res = 100 };
    |]
  in
  (* From present: only delete-then-insert validates, so the final state
     is forced to [true]. *)
  Alcotest.(check (list bool))
    "forced final" [ true ]
    (Linearize.final_states model ~init:true entries);
  (* From absent: only insert-then-delete validates. *)
  Alcotest.(check (list bool))
    "forced final 2" [ false ]
    (Linearize.final_states model ~init:false entries)

(* ------------------------------------------------------------------ *)
(* Explorer: determinism and end-to-end sweeps. *)

let params ?(threads = 4) ?(ops = 40) () =
  { Explore.default_params with threads; ops }

let test_explorer_replay_identical () =
  let run () =
    Explore.run
      (Explore.plain (module Mt_list.Vas_list))
      ~params:(params ()) ~seed:3
  in
  let a = run () and b = run () in
  check_bool "byte-identical histories" true
    (History.to_string a.history = History.to_string b.history);
  check_bool "identical final contents" true (a.final = b.final);
  check_int "identical duration" a.duration b.duration

let test_explorer_seeds_differ () =
  (* Distinct seeds must actually explore distinct schedules. *)
  let h seed =
    History.to_string
      (Explore.run
         (Explore.plain (module Mt_list.Vas_list))
         ~params:(params ()) ~seed)
        .history
  in
  check_bool "seed 1 and 2 give different histories" true (h 1 <> h 2)

let sweep_clean name (module S : Mt_list.Set_intf.SET) =
  let _, failure =
    Explore.sweep (Explore.plain (module S)) ~params:(params ()) ~seeds:15
  in
  match failure with
  | None -> ()
  | Some o ->
      let f = match o.verdict with Error f -> f | Ok () -> assert false in
      Alcotest.failf "%s: seed %d failed: %a" name o.seed Explore.pp_failure f

let test_sweep_vas () = sweep_clean "vas" (module Mt_list.Vas_list)
let test_sweep_hoh () = sweep_clean "hoh" (module Mt_list.Hoh_list)
let test_sweep_elided () = sweep_clean "elided" (module Mt_list.Elided_list)

let test_buggy_list_caught () =
  (* The canary: the marking-disabled list must be caught within 100
     seeds (acceptance criterion; in practice the first few). *)
  let _, failure =
    Explore.sweep
      (Explore.plain (module Buggy_list))
      ~params:(params ()) ~seeds:100
  in
  match failure with
  | Some o ->
      check_bool "caught well within budget" true (o.seed < 100);
      (* and its failing seed replays identically *)
      let replay =
        Explore.run
          (Explore.plain (module Buggy_list))
          ~params:(params ()) ~seed:o.seed
      in
      check_bool "failure replays byte-identically" true
        (History.to_string replay.history = History.to_string o.history)
  | None -> Alcotest.fail "broken list survived 100 seeds"

let () =
  Alcotest.run "mt_check"
    [
      ( "accept",
        [
          Alcotest.test_case "sequential" `Quick test_accept_sequential;
          Alcotest.test_case "needs reorder" `Quick test_accept_needs_reorder;
          Alcotest.test_case "ins/del overlap" `Quick test_accept_concurrent_insert_delete;
          Alcotest.test_case "init contents" `Quick test_accept_init;
          Alcotest.test_case "independent keys" `Quick test_accept_keys_independent;
        ] );
      ( "reject",
        [
          Alcotest.test_case "double insert" `Quick test_reject_double_insert;
          Alcotest.test_case "stale contains" `Quick test_reject_stale_contains;
          Alcotest.test_case "phantom contains" `Quick test_reject_contains_from_nowhere;
          Alcotest.test_case "state threads across gap" `Quick test_reject_across_quiescent_gap;
          Alcotest.test_case "final mismatch" `Quick test_reject_final_mismatch;
          Alcotest.test_case "phantom final key" `Quick test_reject_phantom_final_key;
          Alcotest.test_case "offending key reported" `Quick test_reject_reports_offending_key;
        ] );
      ( "core",
        [ Alcotest.test_case "forced final states" `Quick test_final_states_forced_order ] );
      ( "explorer",
        [
          Alcotest.test_case "replay identical" `Quick test_explorer_replay_identical;
          Alcotest.test_case "seeds differ" `Quick test_explorer_seeds_differ;
          Alcotest.test_case "vas sweep clean" `Quick test_sweep_vas;
          Alcotest.test_case "hoh sweep clean" `Quick test_sweep_hoh;
          Alcotest.test_case "elided sweep clean" `Quick test_sweep_elided;
          Alcotest.test_case "buggy list caught" `Quick test_buggy_list_caught;
        ] );
    ]
