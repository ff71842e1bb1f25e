(* Tests for the time-series telemetry layer and the regression
   sentinel: window partition identities (the series is a partition of
   the run, not a resample), the determinism contract (byte-identical
   with trace retention on or off, for any --jobs value, across repeated
   runs), boundary attribution (windows close from the event stream,
   one counter snapshot per boundary crossed), squeeze-pulse visibility (an injected Max_Tags squeeze shows
   up as an overflow/abort spike exactly in the windows overlapping the
   pulse, with quiet windows on both sides), request conservation
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
let run_point ?make_policy ?(retain = false) () =
  let obs = Obs.create ~retain ~num_cores:threads () in
  let series = Series.create ~window () in
  let r =
    Driver.run_set ~obs ?make_policy ~series (module Mt_list.Hoh_list)
      (spec ())
  in
  (series, r)

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
   gone and later events leave the series untouched. *)
let test_exec_detaches_tap () =
  let obs = Obs.create ~retain:false ~num_cores:2 () in
  let series = Series.create ~window () in
  let (_ : int) =
    Mt_core.Harness.exec (machine ~obs ()) ~series ~threads:2 (fun ctx ->
        Mt_core.Ctx.work ctx (2 * window))
  in
  let before = series_str series in
  Obs.emit obs ~core:0 ~time:1 (Obs.Vas { ok = false });
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
    Array.to_list
      (Array.map
         (fun w ->
           let s = w.Series.w_snap in
           Series.
             [
               w.w_t0; s.c_l1_hits; s.c_l1_misses; s.c_coherence_msgs;
               s.c_invalidations; s.c_writebacks; s.c_tag_overflows; s.c_heat;
             ])
         (Series.windows series))
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

let test_series_partitions_ops () =
  let series, r = run_point () in
  let ws = Series.windows series in
  check_bool "several windows" true (Array.length ws > 3);
  let sum = Array.fold_left (fun a w -> a + w.Series.w_ops) 0 ws in
  check_int "window ops sum to run ops" r.Driver.ops sum;
  (* The merged per-window latency histogram is the run's histogram. *)
  check_int "latency summary count" (Hist.count r.Driver.latency)
    (Hist.count (Series.latency_summary series));
  check_string "latency summary percentiles"
    (Json.to_string (Hist.to_json r.Driver.latency))
    (Json.to_string (Hist.to_json (Series.latency_summary series)))

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
  (* Squeeze Max_Tags to 1 over [10000, 22000): a hand-over-hand locate
     needs two live tags, so every traversal in the pulse overflows. *)
  let at = 10_000 and hold = 12_000 in
  let inj =
    match Inject.of_string (Printf.sprintf "squeeze=%d,1,%d" at hold) with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let make_policy m =
    Inject.make_policy inj ~machine:m ~seed:7 ~max_delay:0
  in
  let series, r = run_point ~make_policy () in
  (match Series.marks series with
  | [ (t1, l1); (t2, l2) ] ->
      check_string "apply mark" "squeeze(max_tags=1)" l1;
      check_string "restore mark" "squeeze-restore" l2;
      check_bool "marks ordered" true (at <= t1 && t1 < t2)
  | ms -> Alcotest.failf "expected 2 marks, got %d" (List.length ms));
  let ws = Series.windows series in
  let overflows i = ws.(i).Series.w_snap.Series.c_tag_overflows in
  let spurious i = ws.(i).Series.w_validate_spurious in
  (* Window 0 and 1 precede the pulse: clean. *)
  check_int "no overflows before pulse" 0 (overflows 0 + overflows 1);
  check_int "no spurious aborts before pulse" 0 (spurious 0 + spurious 1);
  (* Windows overlapping [at, at+hold) carry the spike. *)
  let in_pulse = ref 0 in
  Array.iteri
    (fun i w ->
      if w.Series.w_t0 < at + hold && w.Series.w_t0 + window > at then
        in_pulse := !in_pulse + overflows i)
    ws;
  check_bool "overflow spike inside pulse" true (!in_pulse > 0);
  (* The run recovers: the squeeze is spurious pressure, not damage, and
     ops still complete overall. *)
  check_bool "run still completes ops" true (r.Driver.ops > 0);
  check_bool "spurious aborts recorded" true
    (r.Driver.stats.Mt_sim.Stats.validate_failures_spurious > 0)

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
  let sum f =
    Array.fold_left (fun a w -> a + f w) 0 (Series.windows series)
  in
  check_int "commits = completed" r.Serve.completed
    (sum (fun w -> w.Series.w_commits));
  check_int "dequeues = completed" r.Serve.completed
    (sum (fun w -> w.Series.w_dequeues));
  check_int "drops = dropped" r.Serve.dropped
    (sum (fun w -> w.Series.w_drops));
  (* Overload at 40 req/kcycle on 2 workers: admission must bite. *)
  check_bool "overload drops requests" true (r.Serve.dropped > 0);
  check_int "enqueues = completed (every dequeue was enqueued)"
    r.Serve.completed
    (sum (fun w -> w.Series.w_enqueues))

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

let test_compare_band_override () =
  (* Tightening the band to zero makes any drift a regression. *)
  let bands =
    ("throughput_per_kcycle",
     { BC.dir = BC.Higher_better; rel = 0.0; abs = 0.0 })
    :: BC.default_bands
  in
  let r =
    BC.compare_docs ~bands ~baseline:(doc ()) ~current:(doc ~thr:9.99 ()) ()
  in
  check_int "zero band regresses" 1 (List.length r.BC.regressed)

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
          Alcotest.test_case "band override" `Quick test_compare_band_override;
          Alcotest.test_case "l1 misses per op, not the rate" `Quick
            test_compare_l1_misses_per_op;
        ] );
    ]
