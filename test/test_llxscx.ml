(* Tests for the LLX/SCX primitives: snapshot semantics, conflict
   detection, finalizing, helping under concurrency, and lock-freedom-ish
   accounting on a shared record. *)

open Mt_sim
open Mt_core
module Llx_scx = Mt_llxscx.Llx_scx

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let machine ?(cores = 4) () = Machine.create (Config.default ~num_cores:cores ())

let snapshot_exn = function
  | Llx_scx.Snapshot s -> s
  | Llx_scx.Finalized -> Alcotest.fail "unexpected FINALIZED"
  | Llx_scx.Fail -> Alcotest.fail "unexpected FAIL"

let test_llx_snapshot () =
  let m = machine () in
  Harness.exec1 m (fun ctx ->
      let r = Llx_scx.alloc_record ctx ~mutable_fields:2 ~extra_words:2 in
      Llx_scx.init_field ctx r 0 11;
      Llx_scx.init_field ctx r 1 22;
      let s = snapshot_exn (Llx_scx.llx ctx r) in
      check_int "field 0" 11 s.fields.(0);
      check_int "field 1" 22 s.fields.(1);
      check_bool "vlx holds" true (Llx_scx.vlx ctx s))

let test_scx_updates_field () =
  let m = machine () in
  Harness.exec1 m (fun ctx ->
      let r = Llx_scx.alloc_record ctx ~mutable_fields:1 ~extra_words:1 in
      Llx_scx.init_field ctx r 0 5;
      let s = snapshot_exn (Llx_scx.llx ctx r) in
      let ok =
        Llx_scx.scx ctx ~v:[ s ] ~r:[] ~fld:(Llx_scx.field_addr r 0) ~old_val:5
          ~new_val:9
      in
      check_bool "scx succeeds" true ok;
      let s2 = snapshot_exn (Llx_scx.llx ctx r) in
      check_int "updated" 9 s2.fields.(0);
      check_bool "old snapshot invalid" false (Llx_scx.vlx ctx s))

let test_scx_fails_on_stale_snapshot () =
  let m = machine () in
  Harness.exec1 m (fun ctx ->
      let r = Llx_scx.alloc_record ctx ~mutable_fields:1 ~extra_words:1 in
      Llx_scx.init_field ctx r 0 5;
      let s_stale = snapshot_exn (Llx_scx.llx ctx r) in
      let s_fresh = snapshot_exn (Llx_scx.llx ctx r) in
      let ok =
        Llx_scx.scx ctx ~v:[ s_fresh ] ~r:[] ~fld:(Llx_scx.field_addr r 0) ~old_val:5
          ~new_val:6
      in
      check_bool "first scx ok" true ok;
      let ok2 =
        Llx_scx.scx ctx ~v:[ s_stale ] ~r:[] ~fld:(Llx_scx.field_addr r 0) ~old_val:5
          ~new_val:7
      in
      check_bool "stale scx fails" false ok2;
      check_int "value from first scx" 6 (Machine.peek m (Llx_scx.field_addr r 0)))

let test_finalize_marks () =
  let m = machine () in
  Harness.exec1 m (fun ctx ->
      let r = Llx_scx.alloc_record ctx ~mutable_fields:1 ~extra_words:1 in
      let holder = Llx_scx.alloc_record ctx ~mutable_fields:1 ~extra_words:1 in
      Llx_scx.init_field ctx holder 0 r;
      let hs = snapshot_exn (Llx_scx.llx ctx holder) in
      let rs = snapshot_exn (Llx_scx.llx ctx r) in
      (* Remove r from holder and finalize it. *)
      let ok =
        Llx_scx.scx ctx ~v:[ hs; rs ] ~r:[ r ] ~fld:(Llx_scx.field_addr holder 0)
          ~old_val:r ~new_val:0
      in
      check_bool "scx ok" true ok;
      check_bool "marked" true (Llx_scx.is_marked_unsafe m r);
      match Llx_scx.llx ctx r with
      | Llx_scx.Finalized -> ()
      | _ -> Alcotest.fail "llx on finalized record must return FINALIZED")

let test_scx_on_finalized_fails () =
  let m = machine () in
  Harness.exec1 m (fun ctx ->
      let r = Llx_scx.alloc_record ctx ~mutable_fields:1 ~extra_words:1 in
      let holder = Llx_scx.alloc_record ctx ~mutable_fields:1 ~extra_words:1 in
      Llx_scx.init_field ctx holder 0 r;
      let hs = snapshot_exn (Llx_scx.llx ctx holder) in
      let rs = snapshot_exn (Llx_scx.llx ctx r) in
      (* A competing operation takes a snapshot of r before finalization. *)
      let rs_stale = snapshot_exn (Llx_scx.llx ctx r) in
      let ok =
        Llx_scx.scx ctx ~v:[ hs; rs ] ~r:[ r ] ~fld:(Llx_scx.field_addr holder 0)
          ~old_val:r ~new_val:0
      in
      check_bool "finalizing scx ok" true ok;
      let ok2 =
        Llx_scx.scx ctx ~v:[ rs_stale ] ~r:[] ~fld:(Llx_scx.field_addr r 0) ~old_val:0
          ~new_val:42
      in
      check_bool "scx on finalized fails" false ok2;
      ignore m)

let test_r_subset_check () =
  let m = machine () in
  Harness.exec1 m (fun ctx ->
      let r = Llx_scx.alloc_record ctx ~mutable_fields:1 ~extra_words:1 in
      let other = Llx_scx.alloc_record ctx ~mutable_fields:1 ~extra_words:1 in
      let s = snapshot_exn (Llx_scx.llx ctx r) in
      Alcotest.check_raises "R must be subset of V"
        (Invalid_argument "Llx_scx.scx: R not a subset of V") (fun () ->
          ignore
            (Llx_scx.scx ctx ~v:[ s ] ~r:[ other ] ~fld:(Llx_scx.field_addr r 0)
               ~old_val:0 ~new_val:1)))

(* Concurrent SCXs on one shared record implementing a counter: each
   increment LLXes, then SCXes field0 <- field0 + 1. Successful increments
   must be exactly reflected in the final value (atomicity), and at least
   one operation must succeed per round system-wide (lock-freedom). *)
let test_concurrent_counter () =
  let threads = 4 in
  let m = machine ~cores:threads () in
  let r =
    Harness.exec1 m (fun ctx ->
        let r = Llx_scx.alloc_record ctx ~mutable_fields:1 ~extra_words:1 in
        Llx_scx.init_field ctx r 0 0;
        r)
  in
  let successes = Array.make threads 0 in
  let (_ : int) =
    Harness.exec m ~threads (fun ctx ->
        for _ = 1 to 200 do
          match Llx_scx.llx ctx r with
          | Llx_scx.Snapshot s ->
              let cur = s.fields.(0) in
              if
                Llx_scx.scx ctx ~v:[ s ] ~r:[] ~fld:(Llx_scx.field_addr r 0)
                  ~old_val:cur ~new_val:(cur + 1)
              then successes.(Ctx.core ctx) <- successes.(Ctx.core ctx) + 1
          | Llx_scx.Finalized | Llx_scx.Fail -> ()
        done)
  in
  let total = Array.fold_left ( + ) 0 successes in
  check_bool "some increments succeeded" true (total > 0);
  check_int "final value equals successful increments" total
    (Machine.peek m (Llx_scx.field_addr r 0))

(* Two records, two fibers performing conflicting multi-record SCXs;
   outcomes must be consistent with atomic freezing: never both succeed
   writing interleaved state. *)
let test_concurrent_two_record_swap () =
  let m = machine ~cores:2 () in
  let ra, rb =
    Harness.exec1 m (fun ctx ->
        let ra = Llx_scx.alloc_record ctx ~mutable_fields:1 ~extra_words:1 in
        let rb = Llx_scx.alloc_record ctx ~mutable_fields:1 ~extra_words:1 in
        Llx_scx.init_field ctx ra 0 1;
        Llx_scx.init_field ctx rb 0 2;
        (ra, rb))
  in
  let outcomes = Array.make 2 0 in
  let (_ : int) =
    Harness.exec m ~threads:2 (fun ctx ->
        let id = Ctx.core ctx in
        let target = if id = 0 then ra else rb in
        for _ = 1 to 100 do
          match (Llx_scx.llx ctx ra, Llx_scx.llx ctx rb) with
          | Llx_scx.Snapshot sa, Llx_scx.Snapshot sb ->
              (* Write (a+b) into one's own target conditioned on both. *)
              let sum = sa.fields.(0) + sb.fields.(0) in
              if
                Llx_scx.scx ctx ~v:[ sa; sb ] ~r:[]
                  ~fld:(Llx_scx.field_addr target 0)
                  ~old_val:(if id = 0 then sa.fields.(0) else sb.fields.(0))
                  ~new_val:sum
              then outcomes.(id) <- outcomes.(id) + 1
          | _ -> ()
        done)
  in
  check_bool "progress was made" true (outcomes.(0) + outcomes.(1) > 0)

let () =
  Alcotest.run "mt_llxscx"
    [
      ( "llxscx",
        [
          Alcotest.test_case "llx snapshot" `Quick test_llx_snapshot;
          Alcotest.test_case "scx updates" `Quick test_scx_updates_field;
          Alcotest.test_case "stale snapshot fails" `Quick test_scx_fails_on_stale_snapshot;
          Alcotest.test_case "finalize marks" `Quick test_finalize_marks;
          Alcotest.test_case "scx on finalized fails" `Quick test_scx_on_finalized_fails;
          Alcotest.test_case "R subset of V" `Quick test_r_subset_check;
          Alcotest.test_case "concurrent counter" `Quick test_concurrent_counter;
          Alcotest.test_case "two-record swap" `Quick test_concurrent_two_record_swap;
        ] );
    ]
