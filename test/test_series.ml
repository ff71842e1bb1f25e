(* Tests for the time-series telemetry layer and the regression
   sentinel: window partition identities (the series is a partition of
   the run, not a resample: ops, latency and every counter-backed field
   sum to the run's totals), the determinism contract (byte-identical
   with trace retention on or off, for any --jobs value, across repeated
   runs), boundary attribution (windows close from the event stream,
   one counter snapshot per boundary crossed), squeeze-pulse visibility
   (an injected Max_Tags squeeze shows up as an overflow/abort spike
   exactly in the windows overlapping the pulse, with quiet windows on
   both sides) and the squeeze point's pinned JSON, request conservation
   between the serve layer's result counters and the per-window series,
   Perfetto flow events for per-request causal chains, hot-line profiler
   determinism, and the Bench_compare tolerance-band engine. *)

module Obs = Mt_obs.Obs
module Series = Mt_obs.Series
module Json = Mt_obs.Json
module Hist = Mt_obs.Hist
module Trace = Mt_obs.Trace
module Spec = Mt_workload.Spec
module Driver = Mt_workload.Driver
module BC = Mt_workload.Bench_compare
module Serve = Mt_serve.Server
module Inject = Mt_check.Inject
module Pool = Mt_par.Pool

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let window = 5_000
let threads = 4

let spec () =
  Spec.make ~key_range:128 ~insert_pct:35 ~delete_pct:35 ~threads
    ~measure_cycles:30_000 ()

(* One closed-loop HoH-list point with a series attached; returns the
   series and the driver result. *)
let run_point ?make_policy ?cm ?(retain = false) () =
  let obs = Obs.create ~retain ~num_cores:threads () in
  let series = Series.create ~window () in
  let r =
    Driver.run_set ~obs ?make_policy ?cm ~series (module Mt_list.Hoh_list)
      (spec ())
  in
  (series, r)

(* Squeeze Max_Tags to 1 over [10000, 22000): a hand-over-hand locate
   needs two live tags, so every traversal in the pulse overflows. *)
let squeeze_at = 10_000
let squeeze_hold = 12_000

let squeeze_point () =
  let inj =
    match
      Inject.of_string
        (Printf.sprintf "squeeze=%d,1,%d" squeeze_at squeeze_hold)
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let make_policy m =
    Inject.make_policy inj ~machine:m ~seed:7 ~max_delay:0
  in
  run_point ~make_policy ()

let series_str s = Json.to_string (Series.to_json s)

(* ------------------------------------------------------------------ *)
(* The phase seam: Harness.exec ~series owns the telemetry wiring. *)

let machine ?obs () =
  Mt_sim.Machine.create ?obs (Mt_sim.Config.default ~num_cores:2 ())

(* A series reads the live event stream, so a non-recording sink is a
   configuration error, rejected before the phase runs. *)
let test_exec_series_needs_sink () =
  let series = Series.create ~window () in
  match Mt_core.Harness.exec (machine ()) ~series ~threads:1 (fun _ -> ()) with
  | _ -> Alcotest.fail "a series on Obs.null was accepted"
  | exception Invalid_argument _ -> ()

(* The series observes exactly one phase: once exec returns, its tap is
   gone and later events leave the series untouched. The events emitted
   afterwards are ones [feed] tallies (an op and an STM abort in window
   0), so a tap left attached would change the JSON. *)
let test_exec_detaches_tap () =
  let obs = Obs.create ~retain:false ~num_cores:2 () in
  let series = Series.create ~window () in
  let (_ : int) =
    Mt_core.Harness.exec (machine ~obs ()) ~series ~threads:2 (fun ctx ->
        Mt_core.Ctx.work ctx (2 * window))
  in
  let before = series_str series in
  Obs.emit obs ~core:0 ~time:1 (Obs.Span_begin { name = "op" });
  Obs.emit obs ~core:0 ~time:2 (Obs.Span_end { name = "op" });
  Obs.emit obs ~core:0 ~time:2
    (Obs.Stm_abort { impl = "norec"; reason = "x" });
  check_string "series unchanged after exec" before (series_str series)

(* ------------------------------------------------------------------ *)
(* Boundary attribution. Two fibers on 1000-cycle windows. Fiber 1
   parks until exactly t = 5000. Fiber 0 meanwhile takes one stall
   that jumps over the 1000 and 2000 boundaries at once, then a second
   one past 5000; fiber 1 is dispatched at 5000, which closes the 3000,
   4000 and 5000 boundaries at one clock step. Every window's counter
   delta is pinned to the values the series produced when a scheduler
   tick took these snapshots, so closing windows from the event stream
   must attribute each delta to the same window. *)

let boundary_window = 1_000

let test_series_boundary_attribution () =
  let module M = Mt_sim.Machine in
  let module Ctx = Mt_core.Ctx in
  let obs = Obs.create ~retain:false ~num_cores:2 () in
  let m = machine ~obs () in
  let a = M.alloc m ~words:1 and b = M.alloc m ~words:1 in
  let c = M.alloc m ~words:1 in
  let series = Series.create ~window:boundary_window () in
  let stall ctx n = Mt_sim.Runtime.stall_on (Ctx.runtime ctx) n in
  let jump = ref (0, 0) and landed = ref 0 in
  let duration =
    Mt_core.Harness.exec m ~series ~threads:2 (fun ctx ->
        if Ctx.core ctx = 0 then begin
          Ctx.write ctx a 1;
          ignore (Ctx.read ctx b);
          let t0 = Ctx.now ctx in
          stall ctx 2_500;
          jump := (t0, Ctx.now ctx);
          Ctx.write ctx b 2;
          ignore (Ctx.read ctx c);
          stall ctx (6_500 - Ctx.now ctx);
          ignore (Ctx.read ctx a)
        end
        else begin
          ignore (Ctx.read ctx a);
          Ctx.write ctx c 3;
          stall ctx (5_000 - Ctx.now ctx);
          landed := Ctx.now ctx;
          Ctx.write ctx a 4;
          ignore (Ctx.read ctx b)
        end)
  in
  let t0, t1 = !jump in
  check_bool "one stall jumps two boundaries" true
    (t0 < boundary_window && t1 > 2 * boundary_window
    && t1 < 3 * boundary_window);
  check_int "a stall lands on a boundary" 5_000 !landed;
  let deltas =
    List.init (Series.n_windows series) (fun i ->
        (i * boundary_window)
        :: List.map
             (fun c -> Series.get series i (Counter c))
             Series.
               [
                 L1_hits; L1_misses; Coherence_msgs; Invalidations; Writebacks;
                 Tag_overflows; Heat;
               ])
  in
  check_int "final clock" 6_605 duration;
  (* t0, L1 hits, L1 misses, coherence msgs, invalidations, writebacks,
     tag overflows, heat *)
  Alcotest.(check (list (list int)))
    "per-window counter deltas"
    [
      [ 0; 0; 4; 4; 0; 1; 0; 0 ];
      [ 1000; 0; 0; 0; 0; 0; 0; 0 ];
      [ 2000; 1; 1; 1; 0; 1; 0; 0 ];
      [ 3000; 0; 0; 0; 0; 0; 0; 0 ];
      [ 4000; 0; 0; 0; 0; 0; 0; 0 ];
      [ 5000; 1; 1; 2; 1; 1; 0; 1 ];
      [ 6000; 0; 1; 1; 0; 1; 0; 0 ];
    ]
    deltas

(* ------------------------------------------------------------------ *)
(* Partition identities. *)

(* Every window field backed by a machine counter, with the run's total
   of that counter. *)
let counter_totals (st : Mt_sim.Stats.t) =
  Series.
    [
      ( "aborts.validate_real",
        Validate_real,
        st.validate_failures - st.validate_failures_spurious );
      ( "aborts.validate_spurious",
        Validate_spurious,
        st.validate_failures_spurious );
      ("aborts.vas", Vas_fail, st.vas_failures);
      ("aborts.ias", Ias_fail, st.ias_failures);
      ("tags.adds", Tag_adds, st.tag_adds);
      ("tags.removes", Tag_removes, st.tag_removes);
      ("tags.overflows", Tag_overflows, st.tag_overflows);
      ("mem.l1_hits", L1_hits, st.l1_hits);
      ("mem.l1_misses", L1_misses, st.l1_misses);
      ("mem.coherence_msgs", Coherence_msgs, st.coherence_msgs);
      ("mem.invalidations", Invalidations, st.invalidations_received);
      ("mem.writebacks", Writebacks, st.writebacks);
      ("heat", Heat, Mt_sim.Stats.heat st);
      ("cm.waits", Cm_waits, st.cm_waits);
      ("cm.wait_cycles", Cm_wait_cycles, st.cm_wait_cycles);
    ]

let sum_windows series field =
  let a = ref 0 in
  for i = 0 to Series.n_windows series - 1 do
    a := !a + Series.get series i field
  done;
  !a

(* The windows partition the run: ops, latency and every counter-backed
   field sum to the run's totals, under the default policy and under
   backoff (whose CM waits the default never takes). *)
let test_series_partitions_ops () =
  List.iter
    (fun (policy, cm) ->
      let series, r = run_point ?cm () in
      let name s = policy ^ ": " ^ s in
      check_bool (name "several windows") true (Series.n_windows series > 3);
      check_int (name "window ops sum to run ops") r.Driver.ops
        (sum_windows series (Tally Ops));
      List.iter
        (fun (key, c, total) ->
          check_int (name (key ^ " sums to the run's total")) total
            (sum_windows series (Counter c)))
        (counter_totals r.Driver.stats);
      if cm <> None then
        check_bool (name "the policy waited") true
          (r.Driver.stats.Mt_sim.Stats.cm_waits > 0);
      (* The merged per-window latency histogram is the run's histogram. *)
      check_int (name "latency summary count") (Hist.count r.Driver.latency)
        (Hist.count (Series.latency_summary series));
      check_string (name "latency summary percentiles")
        (Json.to_string (Hist.to_json r.Driver.latency))
        (Json.to_string (Hist.to_json (Series.latency_summary series))))
    [ ("immediate", None); ("backoff", Some (Mt_cm.Cm.backoff ())) ]

(* ------------------------------------------------------------------ *)
(* Determinism contract. *)

let test_series_deterministic () =
  let s1, _ = run_point () and s2, _ = run_point () in
  check_string "byte-identical across runs" (series_str s1) (series_str s2)

let test_series_retain_invariant () =
  (* The series reads the live stream, not the rings: retaining a full
     trace alongside must not change a byte of the series. *)
  let s_off, r_off = run_point ~retain:false () in
  let s_on, r_on = run_point ~retain:true () in
  check_string "retain on/off identical" (series_str s_off) (series_str s_on);
  check_int "ops unchanged" r_off.Driver.ops r_on.Driver.ops

let test_series_jobs_invariant () =
  let thunk () = series_str (fst (run_point ())) in
  let seq = Pool.map ~jobs:1 (fun f -> f ()) [ thunk; thunk ] in
  let par = Pool.map ~jobs:2 (fun f -> f ()) [ thunk; thunk ] in
  List.iter2 (check_string "jobs 1 vs 2") seq par

(* ------------------------------------------------------------------ *)
(* Squeeze-pulse visibility. *)

let test_series_squeeze_spike () =
  let at = squeeze_at and hold = squeeze_hold in
  let series, r = squeeze_point () in
  (match Series.marks series with
  | [ (t1, l1); (t2, l2) ] ->
      check_string "apply mark" "squeeze(max_tags=1)" l1;
      check_string "restore mark" "squeeze-restore" l2;
      check_bool "marks ordered" true (at <= t1 && t1 < t2)
  | ms -> Alcotest.failf "expected 2 marks, got %d" (List.length ms));
  let overflows i = Series.get series i (Counter Tag_overflows) in
  let spurious i = Series.get series i (Counter Validate_spurious) in
  (* Window 0 and 1 precede the pulse: clean. *)
  check_int "no overflows before pulse" 0 (overflows 0 + overflows 1);
  check_int "no spurious aborts before pulse" 0 (spurious 0 + spurious 1);
  (* Windows overlapping [at, at+hold) carry the spike. *)
  let in_pulse = ref 0 in
  for i = 0 to Series.n_windows series - 1 do
    if i * window < at + hold && (i + 1) * window > at then
      in_pulse := !in_pulse + overflows i
  done;
  check_bool "overflow spike inside pulse" true (!in_pulse > 0);
  (* The run recovers: the squeeze is spurious pressure, not damage, and
     ops still complete overall. *)
  check_bool "run still completes ops" true (r.Driver.ops > 0);
  check_bool "spurious aborts recorded" true
    (r.Driver.stats.Mt_sim.Stats.validate_failures_spurious > 0)

(* The squeeze point's whole [Series.to_json], pinned byte for byte: a
   digest of the document, and the first window the pulse reaches
   verbatim so that a failure shows which fields moved. *)
let squeeze_json_digest = "404d4fdba476b52c52b1eab9b4666960"
let squeeze_first_pulse_window =
  {|{"t0":10000,"t1":15000,"ops":5|}
  ^ {|,"aborts":{"validate_real":0,"validate_spurious":9663,"vas":0,"ias":0,"stm":0}|}
  ^ {|,"tags":{"adds":19331,"removes":0,"evict_capacity":0,"evict_conflict":0,"occupancy_end":6,"overflows":9663}|}
  ^ {|,"mem":{"l1_hits":19403,"l1_misses":3,"l1_miss_rate":0.00015459136349582603,"coherence_msgs":3,"invalidations":0,"writebacks":1}|}
  ^ {|,"heat":9663|}
  ^ {|,"serve":{"enqueues":0,"dequeues":0,"drops":0,"commits":0,"max_depth":0}|}
  ^ {|,"store":{"ops":0,"txn_commits":0,"scan_validate_ok":0,"scan_validate_fail":0,"shard_ops":[],"imbalance":1.0}|}
  ^ {|,"cm":{"waits":0,"wait_cycles":0}|}
  ^ {|,"latency":{"count":5,"min":119,"p50":144,"p90":512,"p99":512,"p999":512,"max":520,"mean":238.6,"sum":1193}}|}

let test_series_squeeze_json_pinned () =
  let series, _ = squeeze_point () in
  let doc = Series.to_json series in
  let first_pulse =
    match (Series.marks series, Json.member "windows" doc) with
    | (applied, _) :: _, Some (Json.List ws) -> List.nth ws (applied / window)
    | _ -> Alcotest.fail "no squeeze mark or no windows"
  in
  check_string "first in-pulse window" squeeze_first_pulse_window
    (Json.to_string first_pulse);
  check_string "document digest" squeeze_json_digest
    (Digest.to_hex (Digest.string (Json.to_string doc)))

(* ------------------------------------------------------------------ *)
(* Serve-layer conservation: result counters vs series sums. *)

let test_serve_series_conservation () =
  let obs = Obs.create ~retain:false ~num_cores:3 () in
  let series = Series.create ~window () in
  let c =
    Serve.config ~workers:2 ~batch:2 ~queue_capacity:8 ~rate_per_kcycle:40.0
      ~horizon:30_000 ()
  in
  let r =
    Serve.run_set ~obs ~series (module Mt_list.Hoh_list) ~key_range:128 c
  in
  let sum tally = sum_windows series (Tally tally) in
  check_int "commits = completed" r.Serve.completed (sum Commits);
  check_int "dequeues = completed" r.Serve.completed (sum Dequeues);
  check_int "drops = dropped" r.Serve.dropped (sum Drops);
  (* Overload at 40 req/kcycle on 2 workers: admission must bite. *)
  check_bool "overload drops requests" true (r.Serve.dropped > 0);
  check_int "enqueues = completed (every dequeue was enqueued)"
    r.Serve.completed (sum Enqueues)

(* ------------------------------------------------------------------ *)
(* Perfetto flow events: each request's causal chain in the trace. *)

let test_serve_flow_events () =
  let obs = Obs.create ~num_cores:3 () in
  let c =
    Serve.config ~workers:2 ~queue_capacity:8 ~rate_per_kcycle:40.0
      ~horizon:10_000 ()
  in
  let r = Serve.run_set ~obs (module Mt_list.Hoh_list) ~key_range:128 c in
  check_bool "some requests served" true (r.Serve.completed > 0);
  let s = Json.to_string (Trace.to_json obs) in
  let contains sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  check_bool "flow start (arrive)" true (contains {|"ph":"s"|});
  check_bool "flow step (enqueue/dequeue)" true (contains {|"ph":"t"|});
  check_bool "flow finish (commit/drop)" true (contains {|"ph":"f"|});
  check_bool "binding point on finish" true (contains {|"bp":"e"|});
  check_bool "req category" true (contains {|"cat":"req"|});
  check_bool "per-core drop counters exported" true
    (contains {|"dropped_per_core"|})

(* ------------------------------------------------------------------ *)
(* Hist.merge bucket exactness. *)

let test_hist_merge_bucket_exact () =
  (* Merging histograms is exactly histogramming the concatenation:
     same buckets, same counts, same percentiles, byte-identical JSON. *)
  let a = Hist.create () and b = Hist.create () and all = Hist.create () in
  let v = ref 1 in
  for i = 0 to 499 do
    v := 1 + (!v * 7919 mod 100_000);
    Hist.add (if i mod 2 = 0 then a else b) !v;
    Hist.add all !v
  done;
  Hist.merge ~into:a b;
  check_string "merged = concatenated"
    (Json.to_string (Hist.to_json all))
    (Json.to_string (Hist.to_json a));
  (* Merging an empty histogram is the identity. *)
  let before = Json.to_string (Hist.to_json a) in
  Hist.merge ~into:a (Hist.create ());
  check_string "merge empty = identity" before (Json.to_string (Hist.to_json a))

(* ------------------------------------------------------------------ *)
(* Hot-line contention profiler: determinism and top-K stability. *)

let hot_run () =
  let obs = Obs.create ~retain:false ~num_cores:threads () in
  let r = Driver.run_set ~obs (module Mt_list.Hoh_list) (spec ()) in
  check_bool "ops" true (r.Driver.ops > 0);
  obs

let test_hot_lines_deterministic () =
  let lines obs = Json.to_string (Trace.hot_lines_json ~top:8 obs) in
  let seq = Pool.map ~jobs:1 (fun f -> lines (f ())) [ hot_run; hot_run ] in
  let par = Pool.map ~jobs:2 (fun f -> lines (f ())) [ hot_run; hot_run ] in
  (match seq with
  | [ x; y ] -> check_string "repeated runs identical" x y
  | _ -> assert false);
  List.iter2 (check_string "jobs 1 vs 2") seq par

(* The report's bytes, pinned: a change to how the sink stores hot-line
   counts or allocation labels must not move a single count, owner or
   rank. *)
let hot_run_top8 =
  {|[{"line":97,"invalidations":28,"downgrades":12,"owner":"hoh-node"},|}
  ^ {|{"line":104,"invalidations":27,"downgrades":11,"owner":"hoh-node"},|}
  ^ {|{"line":119,"invalidations":24,"downgrades":11,"owner":"hoh-node"},|}
  ^ {|{"line":26,"invalidations":23,"downgrades":9,"owner":"hoh-node"},|}
  ^ {|{"line":56,"invalidations":23,"downgrades":9,"owner":"hoh-node"},|}
  ^ {|{"line":144,"invalidations":22,"downgrades":9,"owner":"hoh-node"},|}
  ^ {|{"line":2,"invalidations":21,"downgrades":8,"owner":"hoh-node"},|}
  ^ {|{"line":31,"invalidations":20,"downgrades":8,"owner":"hoh-node"}]|}

let test_hot_lines_pinned () =
  check_string "top-8 report" hot_run_top8
    (Json.to_string (Trace.hot_lines_json ~top:8 (hot_run ())))

let test_hot_lines_topk_prefix () =
  (* top-3 must be exactly the first three of top-8 (stable ranking,
     ties broken by line number — no resort across cutoffs). *)
  let obs = hot_run () in
  let top8 = Obs.hot_lines ~top:8 obs in
  let top3 = Obs.hot_lines ~top:3 obs in
  check_int "top3 size" 3 (List.length top3);
  List.iteri
    (fun i (h : Obs.hot_line) ->
      let h8 = List.nth top8 i in
      check_int (Printf.sprintf "line %d" i) h8.Obs.hl_line h.Obs.hl_line;
      check_int (Printf.sprintf "invals %d" i) h8.Obs.hl_invals h.Obs.hl_invals)
    top3

(* ------------------------------------------------------------------ *)
(* Bench_compare: the regression sentinel's tolerance-band engine. *)

let doc ?(thr = 10.0) ?(p99 = 400) ?(impl = "hoh-list") ?(extra = []) () =
  Json.Obj
    ([
       ("schema_version", Json.Int 3);
       ("impl", Json.String impl);
       ("throughput_per_kcycle", Json.Float thr);
       ("latency", Json.Obj [ ("p99", Json.Int p99) ]);
     ]
    @ extra)

let test_compare_self () =
  let r = BC.compare_docs ~baseline:(doc ()) ~current:(doc ()) () in
  check_bool "ok" true (BC.ok r);
  check_int "metrics compared" 2 r.BC.compared;
  check_int "no regressions" 0 (List.length r.BC.regressed)

let test_compare_within_band () =
  (* -20% throughput and +30% p99 are inside the default bands. *)
  let r =
    BC.compare_docs ~baseline:(doc ()) ~current:(doc ~thr:8.0 ~p99:520 ()) ()
  in
  check_bool "ok" true (BC.ok r)

let test_compare_regression () =
  let r = BC.compare_docs ~baseline:(doc ()) ~current:(doc ~thr:5.0 ()) () in
  check_bool "not ok" false (BC.ok r);
  (match r.BC.regressed with
  | [ f ] ->
      check_string "metric" "throughput_per_kcycle" f.BC.metric;
      check_bool "band edge" true (f.BC.allowed > 5.0 && f.BC.allowed < 10.0)
  | l -> Alcotest.failf "expected 1 regression, got %d" (List.length l));
  (* A latency explosion past rel+abs slack regresses too. *)
  let r = BC.compare_docs ~baseline:(doc ()) ~current:(doc ~p99:2000 ()) () in
  check_int "p99 regression" 1 (List.length r.BC.regressed)

let test_compare_improvement_not_fatal () =
  let r = BC.compare_docs ~baseline:(doc ()) ~current:(doc ~thr:20.0 ()) () in
  check_bool "ok despite change" true (BC.ok r);
  check_int "reported as improvement" 1 (List.length r.BC.improved)

let test_compare_structural () =
  (* Missing key. *)
  let current =
    Json.Obj
      [
        ("schema_version", Json.Int 3);
        ("impl", Json.String "hoh-list");
        ("latency", Json.Obj [ ("p99", Json.Int 400) ]);
      ]
  in
  let r = BC.compare_docs ~baseline:(doc ()) ~current () in
  check_bool "missing key fails" false (BC.ok r);
  check_int "structural" 1 (List.length r.BC.structural);
  (* Identity mismatch. *)
  let r =
    BC.compare_docs ~baseline:(doc ()) ~current:(doc ~impl:"vas-list" ()) ()
  in
  check_bool "identity change fails" false (BC.ok r);
  (* Changed list length. *)
  let with_list l = doc ~extra:[ ("rows", Json.List l) ] () in
  let r =
    BC.compare_docs
      ~baseline:(with_list [ Json.Int 1; Json.Int 2 ])
      ~current:(with_list [ Json.Int 1 ]) ()
  in
  check_bool "length change fails" false (BC.ok r)

(* The sentinel watches L1 misses per op, not the miss rate: cutting
   loads that hit raises the rate with the misses unchanged, and must
   pass; doubling the misses must fail. *)
let test_compare_l1_misses_per_op () =
  let point ~loads ~misses =
    doc
      ~extra:
        [
          ("ops", Json.Int 100);
          ( "l1_miss_rate",
            Json.Float (float_of_int misses /. float_of_int loads) );
          ( "counters",
            Json.Obj
              [
                ("loads", Json.Int loads);
                ("l1_hits", Json.Int (loads - misses));
                ("l1_misses", Json.Int misses);
              ] );
        ]
      ()
  in
  let baseline = point ~loads:3000 ~misses:300 in
  let r =
    BC.compare_docs ~baseline ~current:(point ~loads:2000 ~misses:300) ()
  in
  check_bool "fewer loads, rate 0.10 -> 0.15, same misses/op: ok" true
    (BC.ok r);
  check_int "misses/op compared" 3 r.BC.compared;
  let r =
    BC.compare_docs ~baseline ~current:(point ~loads:3000 ~misses:600) ()
  in
  match r.BC.regressed with
  | [ f ] ->
      check_string "metric" "l1_misses_per_op" f.BC.metric;
      check_string "path" ".l1_misses_per_op" f.BC.path
  | l -> Alcotest.failf "expected 1 regression, got %d" (List.length l)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "series"
    [
      ( "series",
        [
          Alcotest.test_case "partitions ops + latency" `Quick
            test_series_partitions_ops;
          Alcotest.test_case "deterministic" `Quick test_series_deterministic;
          Alcotest.test_case "retain on/off invariant" `Quick
            test_series_retain_invariant;
          Alcotest.test_case "jobs invariant" `Quick test_series_jobs_invariant;
          Alcotest.test_case "squeeze spike visible" `Quick
            test_series_squeeze_spike;
          Alcotest.test_case "squeeze JSON pinned" `Quick
            test_series_squeeze_json_pinned;
          Alcotest.test_case "exec rejects a null sink" `Quick
            test_exec_series_needs_sink;
          Alcotest.test_case "exec detaches its tap" `Quick
            test_exec_detaches_tap;
          Alcotest.test_case "boundary attribution" `Quick
            test_series_boundary_attribution;
        ] );
      ( "serve",
        [
          Alcotest.test_case "series conservation" `Quick
            test_serve_series_conservation;
          Alcotest.test_case "perfetto flow events" `Quick
            test_serve_flow_events;
        ] );
      ( "hist",
        [
          Alcotest.test_case "merge bucket-exact" `Quick
            test_hist_merge_bucket_exact;
        ] );
      ( "hot",
        [
          Alcotest.test_case "deterministic across jobs" `Quick
            test_hot_lines_deterministic;
          Alcotest.test_case "top-K prefix stable" `Quick
            test_hot_lines_topk_prefix;
          Alcotest.test_case "top-8 report pinned" `Quick test_hot_lines_pinned;
        ] );
      ( "compare",
        [
          Alcotest.test_case "self compare ok" `Quick test_compare_self;
          Alcotest.test_case "within band ok" `Quick test_compare_within_band;
          Alcotest.test_case "regression detected" `Quick
            test_compare_regression;
          Alcotest.test_case "improvement not fatal" `Quick
            test_compare_improvement_not_fatal;
          Alcotest.test_case "structural mismatches" `Quick
            test_compare_structural;
          Alcotest.test_case "l1 misses per op, not the rate" `Quick
            test_compare_l1_misses_per_op;
        ] );
    ]
