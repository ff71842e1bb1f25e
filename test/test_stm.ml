(* Tests for the NOrec STMs (baseline and tagged): atomicity, isolation,
   opacity-style invariants, abort accounting, and the tagged variant's
   fallback under tag-set overflow. *)

open Mt_sim
open Mt_core

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let machine ?(cores = 8) ?cfg () =
  match cfg with Some c -> Machine.create c | None -> Machine.create (Config.default ~num_cores:cores ())

module Battery (S : sig
  include Mt_stm.Stm_intf.S

  (* Whether commit-time aborts are expected under the counter workload.
     The tagged variant detects conflicts at read time and repairs the
     read in place, so it can legitimately finish with zero aborts. *)
  val expect_aborts : bool
end) =
struct
  let test_read_write_roundtrip () =
    let m = machine () in
    Harness.exec1 m (fun ctx ->
        let stm = S.create ctx in
        let a = Ctx.alloc ctx ~words:4 in
        S.atomically ctx stm (fun tx ->
            S.write tx a 7;
            S.write tx (a + 1) 8);
        let x, y = S.atomically ctx stm (fun tx -> (S.read tx a, S.read tx (a + 1))) in
        check_int "x" 7 x;
        check_int "y" 8 y;
        check_int "committed twice" 2 (S.commits stm))

  let test_read_own_writes () =
    let m = machine () in
    Harness.exec1 m (fun ctx ->
        let stm = S.create ctx in
        let a = Ctx.alloc ctx ~words:1 in
        let v =
          S.atomically ctx stm (fun tx ->
              S.write tx a 41;
              S.read tx a + 1)
        in
        check_int "reads own write" 42 v)

  (* Classic bank test: concurrent transfers conserve the total. *)
  let test_bank_transfers () =
    let threads = 6 in
    let accounts = 10 in
    let m = machine ~cores:threads () in
    let stm, base =
      Harness.exec1 m (fun ctx ->
          let stm = S.create ctx in
          let base = Ctx.alloc ctx ~words:accounts in
          S.atomically ctx stm (fun tx ->
              for i = 0 to accounts - 1 do
                S.write tx (base + i) 100
              done);
          (stm, base))
    in
    let (_ : int) =
      Harness.exec m ~seed:3 ~threads (fun ctx ->
          let g = Ctx.prng ctx in
          for _ = 1 to 120 do
            let src = Prng.int g accounts in
            let dst = Prng.int g accounts in
            let amount = Prng.int g 20 in
            S.atomically ctx stm (fun tx ->
                let s = S.read tx (base + src) in
                let d = S.read tx (base + dst) in
                if s >= amount && src <> dst then begin
                  S.write tx (base + src) (s - amount);
                  S.write tx (base + dst) (d + amount)
                end)
          done)
    in
    let total = ref 0 in
    for i = 0 to accounts - 1 do
      total := !total + Machine.peek m (base + i)
    done;
    check_int "total conserved" (100 * accounts) !total

  (* Opacity-flavoured test: writers keep x = y; readers must never observe
     x <> y inside a transaction. *)
  let test_consistent_snapshots () =
    let threads = 6 in
    let m = machine ~cores:threads () in
    let stm, base =
      Harness.exec1 m (fun ctx ->
          let stm = S.create ctx in
          (stm, Ctx.alloc ctx ~words:2))
    in
    let violations = ref 0 in
    let (_ : int) =
      Harness.exec m ~seed:5 ~threads (fun ctx ->
          let g = Ctx.prng ctx in
          for _ = 1 to 100 do
            if Ctx.core ctx < 3 then
              S.atomically ctx stm (fun tx ->
                  let n = Prng.int g 1000 in
                  S.write tx base n;
                  S.write tx (base + 1) n)
            else
              S.atomically ctx stm (fun tx ->
                  let x = S.read tx base in
                  let y = S.read tx (base + 1) in
                  if x <> y then incr violations)
          done)
    in
    check_int "no torn snapshots" 0 !violations

  (* Concurrent counter: final value equals the number of committed
     increment transactions. *)
  let test_counter () =
    let threads = 8 in
    let m = machine ~cores:threads () in
    let stm, cell =
      Harness.exec1 m (fun ctx ->
          let stm = S.create ctx in
          (stm, Ctx.alloc ctx ~words:1))
    in
    S.reset_stats stm;
    let (_ : int) =
      Harness.exec m ~seed:2 ~threads (fun ctx ->
          for _ = 1 to 50 do
            S.atomically ctx stm (fun tx -> S.write tx cell (S.read tx cell + 1))
          done)
    in
    check_int "all increments applied" (threads * 50) (Machine.peek m cell);
    check_int "commit count" (threads * 50) (S.commits stm);
    if S.expect_aborts then
      check_bool "aborts happened under contention" true (S.aborts stm > 0)

  let test_user_abort_retries () =
    let m = machine () in
    Harness.exec1 m (fun ctx ->
        let stm = S.create ctx in
        let cell = Ctx.alloc ctx ~words:1 in
        let tries = ref 0 in
        S.atomically ctx stm (fun tx ->
            incr tries;
            S.write tx cell !tries;
            (* Force two retries through the Abort exception. *)
            if !tries < 3 then raise Mt_stm.Stm_intf.Abort);
        check_int "retried" 3 !tries;
        check_int "only final attempt committed" 3 (Machine.peek m cell))

  (* The counter on a recording sink: every abort event carries this STM's
     name, and the hottest line is this STM's sequence lock. At Max_Tags 1
     tagged NOrec cannot hold its read set, so it too validates by value
     and aborts under contention. *)
  let test_obs_named () =
    let threads = 8 in
    let obs = Mt_obs.Obs.create ~retain:false ~num_cores:threads () in
    let impls = ref [] in
    Mt_obs.Obs.set_tap obs
      (Some
         (fun e ->
           match e.Mt_obs.Obs.kind with
           | Mt_obs.Obs.Stm_abort { impl; _ } -> impls := impl :: !impls
           | _ -> ()));
    let cfg = { (Config.default ~num_cores:threads ()) with max_tags = 1 } in
    let m = Machine.create ~obs cfg in
    let stm, cell =
      Harness.exec1 m (fun ctx ->
          let stm = S.create ctx in
          (stm, Ctx.alloc ctx ~words:1))
    in
    let (_ : int) =
      Harness.exec m ~seed:2 ~threads (fun ctx ->
          for _ = 1 to 50 do
            S.atomically ctx stm (fun tx -> S.write tx cell (S.read tx cell + 1))
          done)
    in
    check_int "all increments applied" (threads * 50) (Machine.peek m cell);
    check_bool "aborts recorded" true (!impls <> []);
    List.iter (Alcotest.(check string) "abort names the STM" S.name) !impls;
    let owner =
      match Mt_obs.Trace.hot_lines_json ~top:1 obs with
      | Mt_obs.Json.List [ Mt_obs.Json.Obj fields ] -> List.assoc "owner" fields
      | _ -> Mt_obs.Json.Null
    in
    check_bool "hottest line is the sequence lock" true
      (owner = Mt_obs.Json.String (S.name ^ "-seqlock"))

  let cases =
    [
      Alcotest.test_case "roundtrip" `Quick test_read_write_roundtrip;
      Alcotest.test_case "read own writes" `Quick test_read_own_writes;
      Alcotest.test_case "bank transfers" `Quick test_bank_transfers;
      Alcotest.test_case "consistent snapshots" `Quick test_consistent_snapshots;
      Alcotest.test_case "counter" `Quick test_counter;
      Alcotest.test_case "user abort" `Quick test_user_abort_retries;
      Alcotest.test_case "events and hot line named" `Quick test_obs_named;
    ]
end

module Norec_battery = Battery (struct
  include Mt_stm.Norec

  let expect_aborts = true
end)

module Tagged_battery = Battery (struct
  include Mt_stm.Norec_tagged

  let expect_aborts = false
end)

(* Tag-set overflow: with a tiny Max_Tags, big-read-set transactions must
   fall back to value validation and still commit correctly. *)
let test_tagged_overflow_fallback () =
  let cfg = { (Config.default ~num_cores:4 ()) with max_tags = 8 } in
  let m = machine ~cfg () in
  let words = 64 in
  let stm, base =
    Harness.exec1 m (fun ctx ->
        let stm = Mt_stm.Norec_tagged.create ctx in
        let base = Ctx.alloc ctx ~words in
        Mt_stm.Norec_tagged.atomically ctx stm (fun tx ->
            for i = 0 to words - 1 do
              Mt_stm.Norec_tagged.write tx (base + i) 1
            done);
        (stm, base))
  in
  let (_ : int) =
    Harness.exec m ~seed:9 ~threads:4 (fun ctx ->
        for _ = 1 to 25 do
          (* Read all words (overflowing the tag set), then increment one. *)
          Mt_stm.Norec_tagged.atomically ctx stm (fun tx ->
              let sum = ref 0 in
              for i = 0 to words - 1 do
                sum := !sum + Mt_stm.Norec_tagged.read tx (base + i)
              done;
              let slot = base + Ctx.core ctx in
              Mt_stm.Norec_tagged.write tx slot (!sum mod 97))
        done)
  in
  check_bool "committed through fallback" true (Mt_stm.Norec_tagged.commits stm > 0)

(* A reader parked mid-transaction must abort (via failed validation) when
   a writer commits — detected locally through the tagged lock. *)
let test_tagged_reader_sees_writer () =
  let m = machine ~cores:2 () in
  let stm, cell =
    Harness.exec1 m (fun ctx ->
        let stm = Mt_stm.Norec_tagged.create ctx in
        (stm, Ctx.alloc ctx ~words:1))
  in
  let observed = ref [] in
  let rt = Runtime.create () in
  Runtime.spawn rt (fun () ->
      let ctx = Ctx.make m ~rt ~core:0 ~prng:(Prng.create ~seed:1) in
      Mt_stm.Norec_tagged.atomically ctx stm (fun tx ->
          let v1 = Mt_stm.Norec_tagged.read tx cell in
          Runtime.stall_on rt 50_000;
          let v2 = Mt_stm.Norec_tagged.read tx cell in
          observed := (v1, v2) :: !observed));
  Runtime.spawn rt (fun () ->
      let ctx = Ctx.make m ~rt ~core:1 ~prng:(Prng.create ~seed:2) in
      Runtime.stall_on rt 20_000;
      Mt_stm.Norec_tagged.atomically ctx stm (fun tx ->
          Mt_stm.Norec_tagged.write tx cell 99));
  Runtime.run rt;
  (* Whatever attempt finally committed must have seen consistent values. *)
  List.iter
    (fun (v1, v2) -> check_int "reader never saw a torn pair" v1 v2)
    !observed;
  check_bool "reader observed the final write eventually" true
    (match !observed with (99, 99) :: _ -> true | _ -> false)

(* Multi-seed schedule exploration: the same workloads must satisfy their
   oracles under every explorer interleaving, and each seed must replay to
   the identical final state. *)

let test_tagged_counter_multi_seed () =
  let threads = 4 and per_thread = 30 in
  for seed = 1 to 12 do
    let m = machine ~cores:threads () in
    let stm, cell =
      Harness.exec1 m (fun ctx ->
          let stm = Mt_stm.Norec_tagged.create ctx in
          (stm, Ctx.alloc ctx ~words:1))
    in
    let policy = Runtime.random_policy ~seed () in
    let (_ : int) =
      Harness.exec m ~seed ~policy ~threads (fun ctx ->
          for _ = 1 to per_thread do
            Mt_stm.Norec_tagged.atomically ctx stm (fun tx ->
                Mt_stm.Norec_tagged.write tx cell
                  (Mt_stm.Norec_tagged.read tx cell + 1))
          done)
    in
    check_int
      (Printf.sprintf "seed %d: every increment committed" seed)
      (threads * per_thread)
      (Machine.peek m cell)
  done

let test_tagged_bank_multi_seed () =
  let threads = 4 and accounts = 6 in
  let run seed =
    let m = machine ~cores:threads () in
    let stm, base =
      Harness.exec1 m (fun ctx ->
          let stm = Mt_stm.Norec_tagged.create ctx in
          let base = Ctx.alloc ctx ~words:accounts in
          Mt_stm.Norec_tagged.atomically ctx stm (fun tx ->
              for i = 0 to accounts - 1 do
                Mt_stm.Norec_tagged.write tx (base + i) 100
              done);
          (stm, base))
    in
    let policy = Runtime.random_policy ~seed () in
    let (_ : int) =
      Harness.exec m ~seed ~policy ~threads (fun ctx ->
          let g = Ctx.prng ctx in
          for _ = 1 to 40 do
            let src = Prng.int g accounts and dst = Prng.int g accounts in
            let amount = Prng.int g 20 in
            Mt_stm.Norec_tagged.atomically ctx stm (fun tx ->
                let s = Mt_stm.Norec_tagged.read tx (base + src) in
                let d = Mt_stm.Norec_tagged.read tx (base + dst) in
                if s >= amount && src <> dst then begin
                  Mt_stm.Norec_tagged.write tx (base + src) (s - amount);
                  Mt_stm.Norec_tagged.write tx (base + dst) (d + amount)
                end)
          done)
    in
    List.init accounts (fun i -> Machine.peek m (base + i))
  in
  for seed = 1 to 10 do
    let balances = run seed in
    check_int
      (Printf.sprintf "seed %d: total conserved" seed)
      (100 * accounts)
      (List.fold_left ( + ) 0 balances);
    check_bool
      (Printf.sprintf "seed %d: replay gives identical final state" seed)
      true
      (run seed = balances)
  done

let () =
  Alcotest.run "mt_stm"
    [
      ("norec", Norec_battery.cases);
      ("norec-tagged", Tagged_battery.cases);
      ( "tagged-specific",
        [
          Alcotest.test_case "overflow fallback" `Quick test_tagged_overflow_fallback;
          Alcotest.test_case "parked reader aborts" `Quick test_tagged_reader_sees_writer;
        ] );
      ( "explorer",
        [
          Alcotest.test_case "counter exact under 12 seeds" `Quick
            test_tagged_counter_multi_seed;
          Alcotest.test_case "bank conserved + deterministic under 10 seeds"
            `Quick test_tagged_bank_multi_seed;
        ] );
    ]
