(* Generic correctness battery applicable to any Set_intf.SET
   implementation (lists, trees, skip lists). Shared by all test
   executables in this directory. *)

open Mt_sim
open Mt_core

let check_bool = Alcotest.(check bool)

let machine ?(cores = 8) () = Machine.create (Config.default ~num_cores:cores ())

module Oracle = Set.Make (Int)

module Make (S : Mt_list.Set_intf.SET) = struct
  let test_empty () =
    let m = machine () in
    Harness.exec1 m (fun ctx ->
        let s = S.create ctx in
        check_bool "empty contains" false (S.contains ctx s 5);
        check_bool "empty delete" false (S.delete ctx s 5))

  let test_insert_delete_contains () =
    let m = machine () in
    Harness.exec1 m (fun ctx ->
        let s = S.create ctx in
        check_bool "insert new" true (S.insert ctx s 10);
        check_bool "insert dup" false (S.insert ctx s 10);
        check_bool "contains" true (S.contains ctx s 10);
        check_bool "contains absent" false (S.contains ctx s 11);
        check_bool "delete" true (S.delete ctx s 10);
        check_bool "delete again" false (S.delete ctx s 10);
        check_bool "gone" false (S.contains ctx s 10))

  let test_ordering () =
    let m = machine () in
    let s =
      Harness.exec1 m (fun ctx ->
          let s = S.create ctx in
          List.iter (fun k -> ignore (S.insert ctx s k)) [ 5; 1; 9; 3; 7; 2; 8; 4; 6; 0 ];
          ignore (S.delete ctx s 5);
          ignore (S.delete ctx s 0);
          s)
    in
    Alcotest.(check (list int))
      "sorted contents" [ 1; 2; 3; 4; 6; 7; 8; 9 ]
      (S.to_list_unsafe m s)

  (* Randomized single-thread run against the stdlib Set oracle: every
     operation's return value and the final contents must agree. *)
  let sequential_oracle ~ops ~range () =
    let m = machine () in
    Harness.exec1 m (fun ctx ->
        let s = S.create ctx in
        let g = Prng.create ~seed:2024 in
        let oracle = ref Oracle.empty in
        for _ = 1 to ops do
          let k = Prng.int g range in
          match Prng.int g 3 with
          | 0 ->
              let expected = not (Oracle.mem k !oracle) in
              check_bool "insert result" expected (S.insert ctx s k);
              oracle := Oracle.add k !oracle
          | 1 ->
              let expected = Oracle.mem k !oracle in
              check_bool "delete result" expected (S.delete ctx s k);
              oracle := Oracle.remove k !oracle
          | _ ->
              check_bool "contains result" (Oracle.mem k !oracle) (S.contains ctx s k)
        done;
        check_bool "final contents" true
          (S.to_list_unsafe (Ctx.machine ctx) s = Oracle.elements !oracle))

  let test_sequential_oracle () = sequential_oracle ~ops:2000 ~range:50 ()

  (* Concurrent accounting check. Because insert/delete return true exactly
     when they change membership, for every key the net count of successful
     inserts minus deletes must be 0 or 1 and equal final membership.
     Returns the machine and structure for variant-specific follow-ups. *)
  let concurrent_accounting ~threads ~range ~ops () =
    let m = machine ~cores:threads () in
    let s = Harness.exec1 m (fun ctx -> S.create ctx) in
    let ins = Array.make range 0 and del = Array.make range 0 in
    let (_ : int) =
      Harness.exec m ~seed:7 ~threads (fun ctx ->
          let g = Ctx.prng ctx in
          for _ = 1 to ops do
            let k = Prng.int g range in
            if Prng.bool g then begin
              if S.insert ctx s k then ins.(k) <- ins.(k) + 1
            end
            else if S.delete ctx s k then del.(k) <- del.(k) + 1
          done)
    in
    let final = S.to_list_unsafe m s in
    List.iter (fun k -> check_bool "final key in range" true (k >= 0 && k < range)) final;
    let sorted_unique l = List.sort_uniq compare l = l in
    check_bool "final sorted unique" true (sorted_unique final);
    for k = 0 to range - 1 do
      let net = ins.(k) - del.(k) in
      check_bool "net in {0,1}" true (net = 0 || net = 1);
      check_bool "membership matches net" true (List.mem k final = (net = 1))
    done;
    (m, s)

  let test_concurrent_small () =
    ignore (concurrent_accounting ~threads:4 ~range:16 ~ops:300 ())

  let test_concurrent_large () =
    ignore (concurrent_accounting ~threads:8 ~range:128 ~ops:400 ())

  let test_determinism () =
    let run () =
      let m = machine ~cores:4 () in
      let s = Harness.exec1 m (fun ctx -> S.create ctx) in
      let d =
        Harness.exec m ~seed:13 ~threads:4 (fun ctx ->
            let g = Ctx.prng ctx in
            for _ = 1 to 200 do
              let k = Prng.int g 32 in
              if Prng.bool g then ignore (S.insert ctx s k)
              else ignore (S.delete ctx s k)
            done)
      in
      (d, S.to_list_unsafe m s, (Machine.total_stats m).Stats.l1_misses)
    in
    check_bool "bit-identical reruns" true (run () = run ())

  (* qcheck model-based property: arbitrary op sequences over a small key
     space, every return value and the final contents cross-checked
     against Set.Make(Int). Complements [sequential_oracle] (one fixed
     seed) with shrinking counterexamples. *)
  let qcheck_model =
    QCheck.Test.make ~count:50 ~name:"qcheck model vs Set.Make(Int)"
      QCheck.(list (pair (int_bound 2) (int_bound 11)))
      (fun ops ->
        let m = machine () in
        Harness.exec1 m (fun ctx ->
            let s = S.create ctx in
            let oracle = ref Oracle.empty in
            let step (kind, k) =
              match kind with
              | 0 ->
                  let expected = not (Oracle.mem k !oracle) in
                  oracle := Oracle.add k !oracle;
                  S.insert ctx s k = expected
              | 1 ->
                  let expected = Oracle.mem k !oracle in
                  oracle := Oracle.remove k !oracle;
                  S.delete ctx s k = expected
              | _ -> S.contains ctx s k = Oracle.mem k !oracle
            in
            List.for_all step ops
            && S.to_list_unsafe (Ctx.machine ctx) s = Oracle.elements !oracle))

  let cases =
    [
      Alcotest.test_case "empty" `Quick test_empty;
      Alcotest.test_case "insert/delete/contains" `Quick test_insert_delete_contains;
      Alcotest.test_case "ordering" `Quick test_ordering;
      Alcotest.test_case "sequential oracle" `Quick test_sequential_oracle;
      Alcotest.test_case "concurrent 4x16" `Quick test_concurrent_small;
      Alcotest.test_case "concurrent 8x128" `Slow test_concurrent_large;
      Alcotest.test_case "determinism" `Quick test_determinism;
      QCheck_alcotest.to_alcotest qcheck_model;
    ]
end

(* ------------------------------------------------------------------ *)
(* Ranged structures: anything exposing point membership ops plus an
   atomic range query (the sharded store, its B+-tree). The sequential
   model cross-checks every point return value AND every range result
   against Set.Make(Int) restricted to [lo, hi]. *)

module type RANGED = sig
  type t

  val name : string
  val key_range : int
  (** keys are drawn from [0, key_range) *)

  val create : Ctx.t -> t
  val insert : Ctx.t -> t -> int -> bool
  val delete : Ctx.t -> t -> int -> bool
  val contains : Ctx.t -> t -> int -> bool
  val range : Ctx.t -> t -> lo:int -> hi:int -> int list
end

module Make_ranged (R : RANGED) = struct
  let oracle_range oracle ~lo ~hi =
    Oracle.elements (Oracle.filter (fun k -> k >= lo && k <= hi) oracle)

  (* One op against both the structure and the oracle; false on divergence. *)
  let step ctx s oracle (kind, k, k2) =
    match kind with
    | 0 ->
        let expected = not (Oracle.mem k !oracle) in
        oracle := Oracle.add k !oracle;
        R.insert ctx s k = expected
    | 1 ->
        let expected = Oracle.mem k !oracle in
        oracle := Oracle.remove k !oracle;
        R.delete ctx s k = expected
    | 2 -> R.contains ctx s k = Oracle.mem k !oracle
    | _ ->
        let lo = min k k2 and hi = max k k2 in
        R.range ctx s ~lo ~hi = oracle_range !oracle ~lo ~hi

  let test_sequential_ranged () =
    let m = machine () in
    Harness.exec1 m (fun ctx ->
        let s = R.create ctx in
        let g = Prng.create ~seed:4243 in
        let oracle = ref Oracle.empty in
        for i = 1 to 800 do
          let kind = Prng.int g 4 in
          let k = Prng.int g R.key_range in
          let k2 = Prng.int g R.key_range in
          check_bool
            (Printf.sprintf "%s op %d (kind %d)" R.name i kind)
            true
            (step ctx s oracle (kind, k, k2))
        done)

  let qcheck_ranged =
    QCheck.Test.make ~count:50
      ~name:(R.name ^ " qcheck ranged model vs Set.Make(Int)")
      QCheck.(
        list
          (triple (int_bound 3)
             (int_bound (R.key_range - 1))
             (int_bound (R.key_range - 1))))
      (fun ops ->
        let m = machine () in
        Harness.exec1 m (fun ctx ->
            let s = R.create ctx in
            let oracle = ref Oracle.empty in
            List.for_all (step ctx s oracle) ops))

  let cases =
    [
      Alcotest.test_case (R.name ^ " sequential ranged oracle") `Quick
        test_sequential_ranged;
      QCheck_alcotest.to_alcotest qcheck_ranged;
    ]
end

(* ------------------------------------------------------------------ *)
(* Atomicity race for a set's range snapshot. A token moves between the
   lowest key 0 and the highest key 13, over 12 keys that stay put: a
   move inserts the token's new key, then deletes its old one, so at
   every instant at least one of the two is present and every filler
   is. A writer makes 8 moves, pausing 1000 cycles after
   each; a scanner takes whole-range snapshots back to back until the
   writer is done. The scanner straggles (50 cycles added to each of its
   stalls) and its start is swept over one writer gap, so that some walk
   passes key 0 before a move to it and reaches the top after the delete
   behind it. A walk that is not certified then sees neither token (a
   mutant that skips the validate tears 49 of 171 list snapshots and 9
   of 206 tree snapshots); a certified one fails its validate and walks
   again. *)

module type RANGE = sig
  include Mt_list.Set_intf.SET

  val range : Ctx.t -> t -> lo:int -> hi:int -> int list option
end

module Range_race (S : RANGE) = struct
  let top = 13

  let run ~start =
    let m = machine ~cores:2 () in
    let s =
      Harness.exec1 m (fun ctx ->
          let s = S.create ctx in
          for k = 1 to top do
            ignore (S.insert ctx s k)
          done;
          s)
    in
    let writing = ref true and torn = ref 0 and snapshots = ref 0 in
    let (_ : int) =
      Harness.exec m ~threads:2
        ~policy:
          (Runtime.decorate_policy Runtime.default_policy
             ~extra_delay:(fun ~tid ~now:_ ~base ->
               if tid = 1 then base + 50 else base))
        (fun ctx ->
          if Ctx.core ctx = 0 then begin
            for i = 1 to 8 do
              let from, into = if i land 1 = 1 then (top, 0) else (0, top) in
              ignore (S.insert ctx s into);
              ignore (S.delete ctx s from);
              Ctx.work ctx 1000
            done;
            writing := false
          end
          else begin
            Ctx.work ctx start;
            while !writing do
              match S.range ctx s ~lo:0 ~hi:top with
              | None -> ()
              | Some keys ->
                  incr snapshots;
                  let fillers = List.init (top - 1) succ in
                  let token = List.mem 0 keys || List.mem top keys in
                  let kept = List.for_all (fun k -> List.mem k keys) fillers in
                  if not (token && kept) then incr torn
            done
          end)
    in
    (!snapshots, !torn)

  let test () =
    let snapshots = ref 0 and torn = ref 0 in
    for start = 0 to 39 do
      let n, t = run ~start:(25 * start) in
      snapshots := !snapshots + n;
      torn := !torn + t
    done;
    check_bool (Printf.sprintf "%s took snapshots (%d)" S.name !snapshots) true
      (!snapshots > 0);
    Alcotest.(check int) (S.name ^ " torn snapshots") 0 !torn
end
