(* Tests for the contention-management layer (lib/cm) and its Ctx/Harness
   threading: capped-backoff overflow arithmetic (the old Server clamp's
   replacement), per-policy wait semantics (backoff jitter only from the
   supplied stream, politeness as a pure function of core and time),
   the Immediate-is-a-no-op contract (qcheck + a full-run equality
   against a policy that never fires), and the house invariants
   (bit-identical reruns per policy, tracing non-perturbing, policy
   waits visible in Stats). *)

open Mt_sim
open Mt_core
module Cm = Mt_cm.Cm
module Obs = Mt_obs.Obs
module Spec = Mt_workload.Spec
module Driver = Mt_workload.Driver

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let machine ?(cores = 8) () =
  Machine.create (Config.default ~num_cores:cores ())

(* ------------------------------------------------------------------ *)
(* capped_backoff: exact min cap (base * 2^attempt) without overflow. *)

let test_capped_backoff () =
  let cb = Cm.capped_backoff in
  check_int "attempt 0" 32 (cb ~base:32 ~cap:4096 ~attempt:0);
  check_int "attempt 3" 256 (cb ~base:32 ~cap:4096 ~attempt:3);
  check_int "cap hit" 4096 (cb ~base:32 ~cap:4096 ~attempt:7);
  check_int "cap exact" 4096 (cb ~base:32 ~cap:4096 ~attempt:100);
  (* Float oracle for a sweep that crosses the overflow boundary: the
     old Server clamp (saturate the attempt at 20) got these wrong for
     large bases; the shift-free comparison must stay exact. *)
  for a = 0 to 200 do
    let expected =
      if 3.0 *. (2.0 ** float_of_int a) >= 1_000_000.0 then 1_000_000
      else 3 lsl a
    in
    check_int
      (Printf.sprintf "base 3 attempt %d" a)
      expected
      (cb ~base:3 ~cap:1_000_000 ~attempt:a)
  done;
  (* Overflow edges: a base past the cap saturates instantly; a shift
     that would wrap the native int saturates instead of going
     negative. *)
  check_int "huge base" 1000 (cb ~base:(max_int / 2) ~cap:1000 ~attempt:0);
  check_int "huge base, huge attempt" 1000
    (cb ~base:(max_int / 2) ~cap:1000 ~attempt:1000);
  check_int "attempt 61 exact" (1 lsl 61)
    (cb ~base:1 ~cap:max_int ~attempt:61);
  check_int "attempt 62 saturates" max_int
    (cb ~base:1 ~cap:max_int ~attempt:62);
  check_bool "never negative" true
    (List.for_all
       (fun (b, c, a) -> cb ~base:b ~cap:c ~attempt:a >= 0)
       [ (max_int, max_int, 63); (1, max_int, 1000); (max_int / 3, 7, 2) ])

let prop_capped_backoff =
  QCheck.Test.make ~name:"capped_backoff in (0, cap], monotone" ~count:500
    QCheck.(
      triple (int_range 1 (1 lsl 40)) (int_range 0 (1 lsl 50))
        (int_range 0 10_000))
    (fun (base, extra, attempt) ->
      let cap = base + extra in
      let w = Cm.capped_backoff ~base ~cap ~attempt in
      let w' = Cm.capped_backoff ~base ~cap ~attempt:(attempt + 1) in
      w > 0 && w <= cap && w' >= w)

(* ------------------------------------------------------------------ *)
(* Immediate: no waits, ever. *)

let prop_immediate_noop =
  QCheck.Test.make ~name:"immediate waits 0 for any site/attempt/now"
    ~count:500
    QCheck.(triple (int_bound (1 lsl 30)) (int_bound 10_000) (int_bound (1 lsl 40)))
    (fun (site, attempt, now) ->
      let t = Cm.make Cm.immediate ~core:(site land 7) in
      Cm.wait t ~attempt ~now = 0)

(* ------------------------------------------------------------------ *)
(* Backoff: jitter comes only from the supplied stream; no stream means
   the deterministic upper bound. *)

let test_backoff_jitter () =
  let spec = Cm.backoff ~base:32 ~cap:4096 () in
  let waits seed =
    let t = Cm.make ~prng:(Prng.create ~seed) spec ~core:0 in
    List.init 11 (fun a -> Cm.wait t ~attempt:a ~now:0)
  in
  check_bool "same seed, same waits" true (waits 7 = waits 7);
  check_bool "different seed, different waits" true (waits 7 <> waits 8);
  List.iteri
    (fun a w ->
      let b = Cm.capped_backoff ~base:32 ~cap:4096 ~attempt:a in
      check_bool (Printf.sprintf "attempt %d in [b/2, b]" a) true
        (w >= b / 2 && w <= b))
    (waits 7);
  (* No stream: the exact upper bound, every time. *)
  let t = Cm.make spec ~core:0 in
  List.iteri
    (fun a _ ->
      check_int
        (Printf.sprintf "no-prng attempt %d" a)
        (Cm.capped_backoff ~base:32 ~cap:4096 ~attempt:a)
        (Cm.wait t ~attempt:a ~now:0))
    (List.init 11 Fun.id)

(* ------------------------------------------------------------------ *)
(* Politeness: pure function of (core, now) — wait lands exactly at the
   start of the core's next slot, zero inside its own slot. *)

let test_politeness_slots () =
  let spec = Cm.politeness ~slot:10 ~slots:4 () in
  let w ~core ~now =
    Cm.wait (Cm.make spec ~core) ~attempt:0 ~now
  in
  (* core 0 owns [0,10) of every 40-cycle round. *)
  check_int "in own slot" 0 (w ~core:0 ~now:5);
  check_int "round start" 0 (w ~core:0 ~now:0);
  check_int "wait to next round" 25 (w ~core:0 ~now:15);
  check_int "just before round" 1 (w ~core:0 ~now:39);
  (* core 1 owns [10,20). *)
  check_int "core 1 waits to its slot" 10 (w ~core:1 ~now:0);
  check_int "core 1 in slot" 0 (w ~core:1 ~now:13);
  check_int "core 1 next round" 25 (w ~core:1 ~now:25);
  (* Core ids fold mod slots; the wait always lands inside the slot. *)
  for core = 0 to 7 do
    for now = 0 to 80 do
      let wait = w ~core ~now in
      let slot_start = core mod 4 * 10 in
      let pos = (now + wait) mod 40 in
      check_bool "lands in own slot" true
        (wait >= 0 && wait < 40 && pos >= slot_start && pos < slot_start + 10)
    done
  done

(* ------------------------------------------------------------------ *)
(* Ctx threading: with_restarts consults the policy once per restart and
   the waits land in Stats; cm_wait_default runs the site default only
   under Immediate. *)

let test_with_restarts_stats () =
  let run cm =
    let m = machine ~cores:2 () in
    let (_ : int) =
      Harness.exec m ~cm ~threads:1 (fun ctx ->
          let tries = ref 0 in
          let r =
            Ctx.with_restarts ctx (fun () ->
                incr tries;
                if !tries <= 3 then Ctx.restart ctx else 42)
          in
          check_int "result" 42 r)
    in
    Machine.total_stats m
  in
  let st = run (Cm.backoff ~base:32 ~cap:4096 ()) in
  check_int "three policy waits" 3 st.Stats.cm_waits;
  check_bool "wait cycles charged" true (st.Stats.cm_wait_cycles >= 3 * 16);
  let st = run Cm.immediate in
  check_int "immediate: no waits" 0 st.Stats.cm_waits;
  check_int "immediate: no cycles" 0 st.Stats.cm_wait_cycles

let test_cm_wait_default () =
  (* Under Immediate the default closure runs (and its cost is charged
     as plain work, not as a policy wait). *)
  let m = machine ~cores:2 () in
  let (_ : int) =
    Harness.exec m ~cm:Cm.immediate ~threads:1 (fun ctx ->
        let t0 = Ctx.now ctx in
        Ctx.cm_wait_default ctx ~attempt:0 ~default:(fun () -> 100);
        check_bool "default charged as work" true (Ctx.now ctx - t0 >= 100))
  in
  check_int "not counted as a policy wait" 0
    (Machine.total_stats m).Stats.cm_waits;
  (* Under any other policy the default must not even be evaluated. *)
  let m = machine ~cores:2 () in
  let (_ : int) =
    Harness.exec m ~cm:(Cm.politeness ()) ~threads:1 (fun ctx ->
        Ctx.cm_wait_default ctx ~attempt:0 ~default:(fun () ->
            Alcotest.fail "site default ran under a non-immediate policy"))
  in
  ()

(* ------------------------------------------------------------------ *)
(* House invariants on a small contended workload, per policy. *)

let spec_small =
  Spec.make ~key_range:64 ~insert_pct:40 ~delete_pct:40 ~threads:4
    ~warmup_cycles:2_000 ~measure_cycles:8_000 ()

let fingerprint (r : Driver.result) =
  (r.ops, r.duration, r.throughput, r.stats)

let all_policies =
  [ Cm.immediate; Cm.backoff (); Cm.politeness () ]

let test_policy_rerun_identity () =
  List.iter
    (fun cm ->
      let run () =
        fingerprint (Driver.run_set ~cm (module Mt_list.Hoh_list) spec_small)
      in
      check_bool (Cm.spec_name cm ^ " bit-identical reruns") true
        (run () = run ()))
    all_policies

let test_policy_tracing_identity () =
  List.iter
    (fun cm ->
      let bare = Driver.run_set ~cm (module Mt_list.Hoh_list) spec_small in
      let obs = Obs.create ~num_cores:4 () in
      let traced =
        Driver.run_set ~cm ~obs (module Mt_list.Hoh_list) spec_small
      in
      check_bool (Cm.spec_name cm ^ " tracing non-perturbing") true
        (fingerprint bare = fingerprint traced))
    all_policies

(* A policy that can never fire must reproduce the Immediate run
   exactly: the per-core operation streams are independent of the
   policy's private jitter streams, so any difference would mean the
   harness let the policy perturb the workload itself. Politeness with a
   single slot waits 0 by construction: every instant is inside the
   core's own slot. *)
let test_never_firing_policy_is_immediate () =
  let asleep = Cm.politeness ~slots:1 () in
  let base =
    fingerprint (Driver.run_set ~cm:Cm.immediate (module Mt_list.Hoh_list) spec_small)
  in
  let quiet =
    fingerprint (Driver.run_set ~cm:asleep (module Mt_list.Hoh_list) spec_small)
  in
  check_bool "never-firing politeness == immediate" true (base = quiet)

let () =
  Alcotest.run "cm"
    [
      ( "backoff-arith",
        [
          Alcotest.test_case "capped_backoff overflow edges" `Quick
            test_capped_backoff;
          QCheck_alcotest.to_alcotest prop_capped_backoff;
        ] );
      ( "policies",
        [
          QCheck_alcotest.to_alcotest prop_immediate_noop;
          Alcotest.test_case "backoff jitter from supplied stream" `Quick
            test_backoff_jitter;
          Alcotest.test_case "politeness slot arithmetic" `Quick
            test_politeness_slots;
        ] );
      ( "ctx",
        [
          Alcotest.test_case "with_restarts counts waits" `Quick
            test_with_restarts_stats;
          Alcotest.test_case "cm_wait_default gating" `Quick
            test_cm_wait_default;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "bit-identical reruns per policy" `Quick
            test_policy_rerun_identity;
          Alcotest.test_case "tracing non-perturbing per policy" `Quick
            test_policy_tracing_identity;
          Alcotest.test_case "never-firing policy reproduces immediate" `Quick
            test_never_firing_policy_is_immediate;
        ] );
    ]
