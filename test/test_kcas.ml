(* Tests for the HFP multi-word CAS and its tag-accelerated variants. *)

open Mt_sim
open Mt_core
module Kcas = Mt_kcas.Kcas

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let machine ?(cores = 8) () = Machine.create (Config.default ~num_cores:cores ())

let cells ctx n v0 =
  let base = Ctx.alloc ctx ~words:n in
  for i = 0 to n - 1 do
    Kcas.init ctx (base + i) v0
  done;
  base

let test_basic_success_failure kcas () =
  let m = machine () in
  Harness.exec1 m (fun ctx ->
      let base = cells ctx 3 10 in
      let up i e d = { Kcas.addr = base + i; expected = e; desired = d } in
      check_bool "3-cas succeeds" true (kcas ctx [ up 0 10 11; up 1 10 12; up 2 10 13 ]);
      check_int "cell0" 11 (Kcas.get ctx base);
      check_int "cell1" 12 (Kcas.get ctx (base + 1));
      check_int "cell2" 13 (Kcas.get ctx (base + 2));
      check_bool "stale expected fails" false
        (kcas ctx [ up 0 11 99; up 1 10 99 ]);
      check_int "cell0 untouched" 11 (Kcas.get ctx base);
      check_int "cell1 untouched" 12 (Kcas.get ctx (base + 1)))

let test_value_bounds () =
  let m = machine () in
  Harness.exec1 m (fun ctx ->
      let base = cells ctx 1 0 in
      Alcotest.check_raises "negative rejected"
        (Invalid_argument "Kcas: value out of range") (fun () ->
          ignore
            (Kcas.kcas ctx [ { Kcas.addr = base; expected = 0; desired = -1 } ])))

let test_wide_kcas () =
  (* An 8-word kcas straddling several cache lines. *)
  let m = machine () in
  Harness.exec1 m (fun ctx ->
      let base = cells ctx 8 3 in
      let ups = List.init 8 (fun i -> { Kcas.addr = base + i; expected = 3; desired = i }) in
      check_bool "8-cas" true (Kcas.kcas ctx ups);
      for i = 0 to 7 do
        check_int "slot" i (Kcas.get ctx (base + i))
      done)

let test_duplicate_addresses () =
  let m = machine () in
  Harness.exec1 m (fun ctx ->
      let base = cells ctx 1 0 in
      Alcotest.check_raises "duplicates rejected"
        (Invalid_argument "Kcas.kcas: duplicate addresses") (fun () ->
          ignore
            (Kcas.kcas ctx
               [
                 { Kcas.addr = base; expected = 0; desired = 1 };
                 { Kcas.addr = base; expected = 0; desired = 2 };
               ])))

(* Concurrent 2-word transfers between counters: the sum is conserved and
   every cell stays within the transferred bounds. *)
let concurrent_transfers kcas () =
  let threads = 6 in
  let n = 8 in
  let m = machine ~cores:threads () in
  let base = Harness.exec1 m (fun ctx -> cells ctx n 100) in
  let (_ : int) =
    Harness.exec m ~seed:3 ~threads (fun ctx ->
        let g = Ctx.prng ctx in
        for _ = 1 to 150 do
          let i = Prng.int g n in
          let j = Prng.int g n in
          if i <> j then begin
            let vi = Kcas.get ctx (base + i) in
            let vj = Kcas.get ctx (base + j) in
            if vi > 0 then
              ignore
                (kcas ctx
                   [
                     { Kcas.addr = base + i; expected = vi; desired = vi - 1 };
                     { Kcas.addr = base + j; expected = vj; desired = vj + 1 };
                   ])
          end
        done)
  in
  let total = ref 0 in
  Harness.exec1 m (fun ctx ->
      for i = 0 to n - 1 do
        total := !total + Kcas.get ctx (base + i)
      done);
  check_int "sum conserved" (100 * n) !total

(* All threads fight over the same 4 words with the same expected values:
   exactly one round can win each generation. *)
let test_contended_generations kcas () =
  let threads = 8 in
  let m = machine ~cores:threads () in
  let base = Harness.exec1 m (fun ctx -> cells ctx 4 0) in
  let wins = Array.make threads 0 in
  let (_ : int) =
    Harness.exec m ~seed:8 ~threads (fun ctx ->
        for g = 0 to 19 do
          let ups =
            List.init 4 (fun i ->
                { Kcas.addr = base + i; expected = g; desired = g + 1 })
          in
          if kcas ctx ups then wins.(Ctx.core ctx) <- wins.(Ctx.core ctx) + 1;
          (* Wait for the generation to advance before the next round. *)
          while Kcas.get ctx base < g + 1 do
            Ctx.work ctx 10
          done
        done)
  in
  check_int "one winner per generation" 20 (Array.fold_left ( + ) 0 wins);
  Harness.exec1 m (fun ctx ->
      check_int "final generation" 20 (Kcas.get ctx base))

let test_snapshot_consistency () =
  (* Writers move (a,b) together via kcas keeping a = b; snapshots must
     never observe a <> b. *)
  let threads = 4 in
  let m = machine ~cores:threads () in
  let base = Harness.exec1 m (fun ctx -> cells ctx 2 0) in
  let torn = ref 0 in
  let (_ : int) =
    Harness.exec m ~seed:11 ~threads (fun ctx ->
        if Ctx.core ctx < 2 then
          for _ = 1 to 100 do
            let a = Kcas.get ctx base in
            let b = Kcas.get ctx (base + 1) in
            if a = b then
              ignore
                (Kcas.kcas ctx
                   [
                     { Kcas.addr = base; expected = a; desired = a + 1 };
                     { Kcas.addr = base + 1; expected = b; desired = b + 1 };
                   ])
          done
        else
          for _ = 1 to 100 do
            match Kcas.snapshot ctx [ base; base + 1 ] with
            | Some [ a; b ] -> if a <> b then incr torn
            | Some _ -> Alcotest.fail "arity"
            | None -> Alcotest.fail "snapshot overflow"
          done)
  in
  check_int "no torn snapshots" 0 !torn

let test_snapshot_overflow () =
  let cfg = { (Config.default ~num_cores:1 ()) with max_tags = 4 } in
  let m = Machine.create cfg in
  Harness.exec1 m (fun ctx ->
      let base = cells ctx 8 0 in
      match Kcas.snapshot ctx (List.init 8 (fun i -> base + i)) with
      | None -> ()
      | Some _ -> Alcotest.fail "expected None on overflow")

(* The live ceiling lowered below the cell count, as the adversary's
   squeeze does: [None], not a snapshot that fails every validate. *)
let test_snapshot_lowered_ceiling () =
  let m = Machine.create (Config.default ~num_cores:1 ()) in
  Harness.exec1 m (fun ctx ->
      let base = cells ctx 3 0 in
      Machine.set_max_tags m 2;
      match Kcas.snapshot ctx [ base; base + 1; base + 2 ] with
      | None -> ()
      | Some _ -> Alcotest.fail "expected None under a ceiling of 2")

let count_kind obs pred =
  List.length
    (List.filter (fun (e : Mt_obs.Obs.event) -> pred e.kind) (Mt_obs.Obs.events obs))

let test_snapshot_events () =
  (* Every snapshot call announces each attempt through Obs, and each
     failed validation is reported before the retry — so, for any run,
     attempts = calls + invalidations. *)
  let open Mt_obs in
  let is_attempt = function Obs.Snap_attempt _ -> true | _ -> false in
  let is_invalid = function Obs.Snap_invalid _ -> true | _ -> false in
  (* Quiescent: exactly one attempt over 3 cells and no invalidation. *)
  let obs = Obs.create ~num_cores:1 () in
  let m = Machine.create ~obs (Config.default ~num_cores:1 ()) in
  Harness.exec1 m (fun ctx ->
      let base = cells ctx 3 7 in
      match Kcas.snapshot ctx [ base; base + 1; base + 2 ] with
      | Some [ 7; 7; 7 ] -> ()
      | _ -> Alcotest.fail "quiescent snapshot wrong");
  check_int "one attempt, cells=3" 1
    (count_kind obs (function Obs.Snap_attempt { cells } -> cells = 3 | _ -> false));
  check_int "no invalidation" 0 (count_kind obs is_invalid);
  (* Contended: writers keep flipping (a,b); snapshotters retry. *)
  let threads = 4 in
  let obs = Obs.create ~num_cores:threads () in
  let m = Machine.create ~obs (Config.default ~num_cores:threads ()) in
  let base = Harness.exec1 m (fun ctx -> cells ctx 2 0) in
  let calls = ref 0 in
  let (_ : int) =
    Harness.exec m ~seed:11 ~threads (fun ctx ->
        if Ctx.core ctx < 2 then
          for _ = 1 to 100 do
            let a = Kcas.get ctx base in
            let b = Kcas.get ctx (base + 1) in
            if a = b then
              ignore
                (Kcas.kcas ctx
                   [
                     { Kcas.addr = base; expected = a; desired = a + 1 };
                     { Kcas.addr = base + 1; expected = b; desired = b + 1 };
                   ])
          done
        else
          for _ = 1 to 100 do
            (match Kcas.snapshot ctx [ base; base + 1 ] with
            | Some [ a; b ] when a = b -> ()
            | _ -> Alcotest.fail "torn or overflowed snapshot");
            incr calls
          done)
  in
  let attempts = count_kind obs is_attempt in
  let invalids = count_kind obs is_invalid in
  check_int "attempts = calls + invalidations" (!calls + invalids) attempts;
  check_bool "contention produced validate-fail events" true (invalids > 0)

let test_get_helps () =
  (* A reader encountering a descriptor must complete it and return a
     consistent value. Orchestrated: writer parks mid-operation is not
     possible (ops are atomic per event), so we just hammer reads during
     heavy kcas traffic and check monotonic generations. *)
  let threads = 4 in
  let m = machine ~cores:threads () in
  let base = Harness.exec1 m (fun ctx -> cells ctx 2 0) in
  let non_monotonic = ref 0 in
  let (_ : int) =
    Harness.exec m ~seed:13 ~threads (fun ctx ->
        if Ctx.core ctx < 3 then
          for _ = 1 to 100 do
            let a = Kcas.get ctx base in
            ignore
              (Kcas.kcas ctx
                 [
                   { Kcas.addr = base; expected = a; desired = a + 1 };
                   { Kcas.addr = base + 1; expected = a; desired = a + 1 };
                 ])
          done
        else begin
          let last = ref 0 in
          for _ = 1 to 200 do
            let v = Kcas.get ctx base in
            if v < !last then incr non_monotonic;
            last := v
          done
        end)
  in
  check_int "reads monotonic" 0 !non_monotonic

(* Multi-seed schedule exploration: concurrent 2-word transfers must
   conserve the total under every explorer interleaving (for both kcas
   variants), and each seed must replay to the identical final cells. *)
let multi_seed_transfers kcas () =
  let threads = 4 and n = 6 in
  let run seed =
    let m = machine ~cores:threads () in
    let base = Harness.exec1 m (fun ctx -> cells ctx n 100) in
    let policy = Runtime.random_policy ~seed () in
    let (_ : int) =
      Harness.exec m ~seed ~policy ~threads (fun ctx ->
          let g = Ctx.prng ctx in
          for _ = 1 to 60 do
            let i = Prng.int g n in
            let j = Prng.int g n in
            if i <> j then begin
              let vi = Kcas.get ctx (base + i) in
              let vj = Kcas.get ctx (base + j) in
              if vi > 0 then
                ignore
                  (kcas ctx
                     [
                       { Kcas.addr = base + i; expected = vi; desired = vi - 1 };
                       { Kcas.addr = base + j; expected = vj; desired = vj + 1 };
                     ])
            end
          done)
    in
    Harness.exec1 m (fun ctx -> List.init n (fun i -> Kcas.get ctx (base + i)))
  in
  for seed = 1 to 10 do
    let final = run seed in
    check_int
      (Printf.sprintf "seed %d: sum conserved" seed)
      (100 * n)
      (List.fold_left ( + ) 0 final);
    check_bool
      (Printf.sprintf "seed %d: replay gives identical final state" seed)
      true
      (run seed = final)
  done

let suite kcas name =
  [
    Alcotest.test_case (name ^ " basic") `Quick (test_basic_success_failure kcas);
    Alcotest.test_case (name ^ " transfers") `Quick (concurrent_transfers kcas);
    Alcotest.test_case (name ^ " generations") `Quick (test_contended_generations kcas);
  ]

let () =
  Alcotest.run "mt_kcas"
    [
      ( "kcas",
        suite Kcas.kcas "plain"
        @ [
            Alcotest.test_case "duplicates" `Quick test_duplicate_addresses;
            Alcotest.test_case "value bounds" `Quick test_value_bounds;
            Alcotest.test_case "wide kcas" `Quick test_wide_kcas;
          ] );
      ("kcas-tagged", suite Kcas.kcas_tagged "tagged");
      ( "snapshot",
        [
          Alcotest.test_case "consistency" `Quick test_snapshot_consistency;
          Alcotest.test_case "overflow" `Quick test_snapshot_overflow;
          Alcotest.test_case "lowered ceiling" `Quick
            test_snapshot_lowered_ceiling;
          Alcotest.test_case "obs events" `Quick test_snapshot_events;
          Alcotest.test_case "reads help" `Quick test_get_helps;
        ] );
      ( "explorer",
        [
          Alcotest.test_case "plain transfers under 10 seeds" `Quick
            (multi_seed_transfers Kcas.kcas);
          Alcotest.test_case "tagged transfers under 10 seeds" `Quick
            (multi_seed_transfers Kcas.kcas_tagged);
        ] );
    ]
