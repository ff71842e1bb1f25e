(* Unit tests for the observability layer: histogram bucket/percentile
   math (including the empty and single-sample edge cases), ring-buffer
   wraparound ordering, the sink's construction checks, its tap stream,
   its label map and hot-line counts against a per-line model,
   well-formedness of the exported trace JSON, and
   the end-to-end determinism guarantee — two identically-seeded traced
   runs produce byte-identical Perfetto files, and tracing never changes
   the simulated metrics. *)

module Obs = Mt_obs.Obs
module Hist = Mt_obs.Hist
module Json = Mt_obs.Json
module Trace = Mt_obs.Trace
module Spec = Mt_workload.Spec
module Driver = Mt_workload.Driver

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Histogram bucket math. *)

let test_hist_buckets_exact_small () =
  (* Values below 16 get one bucket each, exactly. *)
  for v = 0 to 15 do
    check_int (Printf.sprintf "bucket_of %d" v) v (Hist.bucket_of v);
    check_int (Printf.sprintf "bucket_low %d" v) v (Hist.bucket_low v)
  done

let test_hist_buckets_monotone () =
  (* bucket_of is monotone and bucket_low is a lower inverse:
     bucket_low (bucket_of v) <= v, within 12.5%. *)
  let prev = ref (-1) in
  let v = ref 1 in
  while !v < 1 lsl 40 do
    let b = Hist.bucket_of !v in
    check_bool "monotone" true (b >= !prev);
    prev := b;
    let low = Hist.bucket_low b in
    check_bool "low <= v" true (low <= !v);
    check_bool "within 12.5%" true (float_of_int (!v - low) <= 0.125 *. float_of_int !v);
    v := !v + 1 + (!v / 3)
  done

let test_hist_empty () =
  let h = Hist.create () in
  check_int "count" 0 (Hist.count h);
  check_int "p50" 0 (Hist.percentile h 50.0);
  check_int "p99.9" 0 (Hist.percentile h 99.9);
  check_int "max" 0 (Hist.max_value h);
  check_bool "mean" true (Hist.mean h = 0.0)

let test_hist_single_sample () =
  let h = Hist.create () in
  Hist.add h 1234;
  (* With one sample every percentile is exactly that sample: the
     clamp-to-[min,max] rule makes quantisation invisible here. *)
  List.iter
    (fun p -> check_int (Printf.sprintf "p%g" p) 1234 (Hist.percentile h p))
    [ 0.0; 1.0; 50.0; 90.0; 99.0; 100.0 ];
  check_int "min" 1234 (Hist.min_value h);
  check_int "max" 1234 (Hist.max_value h)

let test_hist_percentiles () =
  let h = Hist.create () in
  for v = 1 to 1000 do
    Hist.add h v
  done;
  check_int "count" 1000 (Hist.count h);
  (* 12.5% relative quantisation error bound. *)
  let near p expect =
    let got = Hist.percentile h p in
    let err = abs (got - expect) in
    if float_of_int err > 0.125 *. float_of_int expect then
      Alcotest.failf "p%g: got %d, want ~%d" p got expect
  in
  near 50.0 500;
  near 90.0 900;
  near 99.0 990;
  check_int "p100 exact" 1000 (Hist.percentile h 100.0);
  check_int "min exact" 1 (Hist.min_value h)

let test_hist_p999 () =
  (* The 12.5% bucket-quantisation bound documented in hist.mli must hold
     for the p99.9 tail quantile too, and the "p999" summary field must
     report it. *)
  let h = Hist.create () in
  for v = 1 to 100_000 do
    Hist.add h v
  done;
  let got = Hist.percentile h 99.9 in
  let expect = 99_900 in
  if float_of_int (abs (got - expect)) > 0.125 *. float_of_int expect then
    Alcotest.failf "p99.9: got %d, want ~%d (12.5%% bound)" got expect;
  (match Json.member "p999" (Hist.to_json h) with
  | Some (Json.Int v) -> check_int "p999 field matches percentile" got v
  | _ -> Alcotest.fail "Hist.to_json lacks p999");
  (* A spike in the last 0.1%: p99.9 must land inside the spike (again
     within quantisation), p99 must not. *)
  let spike = Hist.create () in
  for _ = 1 to 9_990 do
    Hist.add spike 100
  done;
  for _ = 1 to 10 do
    Hist.add spike 50_000
  done;
  check_bool "p99 misses the spike" true (Hist.percentile spike 99.0 = 100);
  let p999 = Hist.percentile spike 99.9 in
  check_bool "p99.9 catches the spike" true
    (float_of_int (abs (p999 - 50_000)) <= 0.125 *. 50_000.0)

let test_hist_negative_clamps () =
  let h = Hist.create () in
  Hist.add h (-5);
  check_int "clamped to 0" 0 (Hist.percentile h 50.0);
  check_int "count" 1 (Hist.count h)

let test_hist_merge () =
  let a = Hist.create () and b = Hist.create () in
  for v = 1 to 100 do Hist.add a v done;
  for v = 901 to 1000 do Hist.add b v done;
  Hist.merge ~into:a b;
  check_int "count" 200 (Hist.count a);
  check_int "min" 1 (Hist.min_value a);
  check_int "max" 1000 (Hist.max_value a)

(* ------------------------------------------------------------------ *)
(* Ring buffer semantics. *)

let test_ring_wraparound () =
  (* Capacity 8, 20 events on one core: the 12 oldest are dropped and the
     survivors keep emission order. *)
  let obs = Obs.create ~ring_capacity:8 ~num_cores:1 () in
  for i = 0 to 19 do
    Obs.emit obs ~core:0 ~time:(100 + i) (Obs.L1_miss { line = i })
  done;
  check_int "dropped" 12 (Obs.dropped obs);
  let evs = Obs.events obs in
  check_int "retained" 8 (List.length evs);
  List.iteri
    (fun i (e : Obs.event) ->
      check_int "seq order" (12 + i) e.Obs.seq;
      check_int "time order" (112 + i) e.Obs.time)
    evs

let test_ring_merge_across_cores () =
  (* Events interleaved across cores come back globally seq-sorted. *)
  let obs = Obs.create ~num_cores:3 () in
  for i = 0 to 29 do
    Obs.emit obs ~core:(i mod 3) ~time:i (Obs.Fiber_resume)
  done;
  let evs = Obs.events obs in
  check_int "all retained" 30 (List.length evs);
  List.iteri (fun i (e : Obs.event) -> check_int "global order" i e.Obs.seq) evs

let test_null_sink () =
  check_bool "null disabled" false (Obs.enabled Obs.null);
  (* emit on null is a no-op, not an error. *)
  Obs.emit Obs.null ~core:0 ~time:0 Obs.Fiber_resume;
  check_int "no events" 0 (List.length (Obs.events Obs.null))

let test_hot_lines () =
  let obs = Obs.create ~num_cores:2 () in
  Obs.label_lines obs ~line_lo:7 ~line_hi:7 "victim-node";
  for _ = 1 to 5 do
    Obs.emit obs ~core:0 ~time:0 (Obs.Inval_sent { line = 7; victim = 1 })
  done;
  Obs.emit obs ~core:0 ~time:0 (Obs.Inval_sent { line = 3; victim = 1 });
  match Obs.hot_lines ~top:2 obs with
  | { Obs.hl_line = 7; hl_invals = 5; hl_label = Some "victim-node"; _ } :: rest
    ->
      check_int "second line" 3
        (match rest with [ h ] -> h.Obs.hl_line | _ -> -1)
  | _ -> Alcotest.fail "hot line ranking wrong"

(* A recording sink must cover every core of the machine it is attached
   to: a smaller one is rejected when the machine is built, not by an
   array bounds error mid-run. *)
let test_sink_too_small () =
  let spec =
    Spec.make ~key_range:64 ~insert_pct:35 ~delete_pct:35 ~threads:4
      ~warmup_cycles:1_000 ~measure_cycles:2_000 ~seed:1 ()
  in
  (match Driver.run_set ~obs:(Obs.create ~num_cores:2 ()) (module Mt_list.Hoh_list) spec with
  | _ -> Alcotest.fail "a 2-core sink ran a 4-core machine"
  | exception Invalid_argument msg ->
      check_string "message names both counts"
        "Machine.create: the obs sink records 2 cores but the machine has 4" msg);
  check_int "num_cores" 4 (Obs.num_cores (Obs.create ~retain:false ~num_cores:4 ()));
  check_int "null num_cores" 0 (Obs.num_cores Obs.null);
  (* A larger sink and the null sink are both fine. *)
  let cfg = Mt_sim.Config.default ~num_cores:4 () in
  ignore (Mt_sim.Machine.create ~obs:(Obs.create ~num_cores:6 ()) cfg);
  ignore (Mt_sim.Machine.create ~obs:Obs.null cfg)

(* A tap attached mid-run to a sink that retains nothing sees exactly the
   events a retaining sink keeps from that point on: same sequence
   numbers, times, cores and kinds. *)
let test_tap_matches_retained () =
  let spec =
    Spec.make ~key_range:64 ~insert_pct:35 ~delete_pct:35 ~threads:4
      ~warmup_cycles:2_000 ~measure_cycles:6_000 ~seed:5 ()
  in
  let tapped = ref [] in
  let obs = Obs.create ~retain:false ~num_cores:4 () in
  let attach _machine =
    Obs.set_tap obs (Some (fun e -> tapped := e :: !tapped));
    Mt_sim.Runtime.default_policy
  in
  ignore (Driver.run_set ~obs ~make_policy:attach (module Mt_list.Hoh_list) spec);
  let tapped = List.rev !tapped in
  let kept = Obs.create ~num_cores:4 () in
  ignore (Driver.run_set ~obs:kept (module Mt_list.Hoh_list) spec);
  check_int "nothing dropped" 0 (Obs.dropped kept);
  check_int "no events retained" 0 (List.length (Obs.events obs));
  match tapped with
  | [] -> Alcotest.fail "tap saw no events"
  | first :: _ ->
      check_bool "attached mid-run" true (first.Obs.seq > 0);
      let from_first =
        List.filter (fun (e : Obs.event) -> e.Obs.seq >= first.Obs.seq) (Obs.events kept)
      in
      check_int "same length" (List.length from_first) (List.length tapped);
      check_bool "same (seq, time, core, kind) stream" true (from_first = tapped)

(* Model-based check of the label map and the hot-line counts against a
   per-line [Hashtbl] reference: first label wins, and hot lines rank by
   invalidations+downgrades descending, then line ascending. Ranges ascend
   by [line_lo], leave unlabelled gaps, repeat labels back to back (runs
   that must merge), include ranges that overlap earlier ones, and reach
   past three 8192-line hot-count chunks. *)
let chunk_lines = 8192

type plan = {
  ranges : (int * int * string) list;  (* line_lo, line_hi, label *)
  events : (bool * int) list;  (* downgrade?, line *)
  max_line : int;
}

let gen_plan =
  let open QCheck.Gen in
  let* segs =
    list_size (int_range 3 16)
      (quad (int_range 0 2_000) (int_range 1 2_500)
         (oneofl [ "a"; "b"; "c" ])
         (int_range 0 3))
  in
  let _, cursor, _, rev =
    List.fold_left
      (fun (i, cursor, prev_lo, acc) (gap, len, label, ov) ->
        (* The second range always overlaps the first; later ones
           sometimes do. Ranges never start below an earlier one. *)
        let lo =
          if i > 0 && (i = 1 || ov = 0) then max prev_lo (cursor - 1 - (len / 2))
          else cursor + (if ov = 1 then 0 else gap)
        in
        let hi = lo + len - 1 in
        (i + 1, max cursor (hi + 1), lo, (lo, hi, label) :: acc))
      (0, 1, 0, []) segs
  in
  let tail_lo = cursor + 7 in
  let tail_hi = max tail_lo ((3 * chunk_lines) + 11) in
  let ranges = List.rev ((tail_lo, tail_hi, "a") :: rev) in
  let max_line = tail_hi + 64 in
  let* pool = list_repeat 48 (int_range 0 max_line) in
  let* events = list_size (int_range 0 600) (pair bool (oneofl pool)) in
  return { ranges; events; max_line }

let print_plan p =
  Printf.sprintf "ranges=[%s] events=%d max_line=%d"
    (String.concat "; "
       (List.map (fun (lo, hi, l) -> Printf.sprintf "%d-%d:%s" lo hi l) p.ranges))
    (List.length p.events) p.max_line

let prop_labels_and_hot_lines =
  QCheck.Test.make ~name:"label map and hot counts match a per-line model"
    ~count:150
    (QCheck.make ~print:print_plan gen_plan)
    (fun p ->
      let obs = Obs.create ~retain:false ~num_cores:2 () in
      let labels = Hashtbl.create 1024 and hot = Hashtbl.create 64 in
      List.iter
        (fun (lo, hi, label) ->
          Obs.label_lines obs ~line_lo:lo ~line_hi:hi label;
          for line = lo to hi do
            if not (Hashtbl.mem labels line) then Hashtbl.add labels line label
          done)
        p.ranges;
      List.iter
        (fun (down, line) ->
          let i, d = Option.value (Hashtbl.find_opt hot line) ~default:(0, 0) in
          if down then begin
            Obs.emit obs ~core:0 ~time:0 (Obs.Downgrade { line; victim = 1 });
            Hashtbl.replace hot line (i, d + 1)
          end
          else begin
            Obs.emit obs ~core:0 ~time:0 (Obs.Inval_sent { line; victim = 1 });
            Hashtbl.replace hot line (i + 1, d)
          end)
        p.events;
      for line = 0 to p.max_line + 1 do
        if Obs.label_of obs line <> Hashtbl.find_opt labels line then
          QCheck.Test.fail_reportf "label_of %d" line
      done;
      let ranked =
        Hashtbl.fold
          (fun line (i, d) acc ->
            { Obs.hl_line = line; hl_invals = i; hl_downgrades = d;
              hl_label = Hashtbl.find_opt labels line }
            :: acc)
          hot []
        |> List.sort (fun (a : Obs.hot_line) (b : Obs.hot_line) ->
               let ca = a.hl_invals + a.hl_downgrades
               and cb = b.hl_invals + b.hl_downgrades in
               if ca <> cb then compare cb ca else compare a.hl_line b.hl_line)
      in
      List.for_all
        (fun k ->
          Obs.hot_lines ~top:k obs = List.filteri (fun i _ -> i < k) ranked)
        [ 0; 1; 3; 8; 50; max_int ])

let test_label_lines_rejects_descending () =
  let obs = Obs.create ~num_cores:1 () in
  Obs.label_lines obs ~line_lo:10 ~line_hi:12 "x";
  Obs.label_lines obs ~line_lo:10 ~line_hi:20 "y";
  check_bool "first label wins" true (Obs.label_of obs 11 = Some "x");
  check_bool "new lines take the new label" true (Obs.label_of obs 13 = Some "y");
  match Obs.label_lines obs ~line_lo:9 ~line_hi:30 "z" with
  | () -> Alcotest.fail "a range below an earlier one was accepted"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* JSON round-trips and trace export well-formedness. *)

let test_json_roundtrip () =
  let j =
    Json.Obj
      [
        ("a", Json.Int 1);
        ("b", Json.List [ Json.Null; Json.Bool true; Json.Float 1.5 ]);
        ("c", Json.String "x\"y\n\\z");
      ]
  in
  let s = Json.to_string j in
  check_bool "parses back equal" true (Json.of_string s = j);
  check_string "stable bytes" s (Json.to_string (Json.of_string s))

(* Floats must round-trip exactly through the emitted text (shortest
   representation that parses back to the same double), otherwise
   re-emitting a parsed artifact would not be byte-identical. *)
let prop_json_float_roundtrip =
  QCheck.Test.make ~name:"json float emit/parse round-trip" ~count:1000
    QCheck.float (fun x ->
      QCheck.assume (Float.is_finite x);
      match Json.of_string (Json.to_string (Json.Float x)) with
      | Json.Float y -> Float.equal y x || (x = 0.0 && y = 0.0)
      | _ -> false)

let test_json_float_repr () =
  let s x = Json.to_string (Json.Float x) in
  check_string "short decimal stays short" "0.1" (s 0.1);
  check_string "integral float keeps a point" "3.0" (s 3.0);
  (* 0.1 +. 0.2 needs all 17 digits to round-trip. *)
  check_string "17 digits when required" "0.30000000000000004" (s (0.1 +. 0.2));
  check_string "non-finite maps to null" "null" (s Float.nan)

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | exception Json.Parse_error _ -> ()
      | _ -> Alcotest.failf "accepted %S" s)
    [ ""; "{"; "[1,]"; "{\"a\":1} x"; "nul"; "\"unterminated" ]

let traced_run seed =
  let obs = Obs.create ~num_cores:4 () in
  let spec =
    Spec.make ~key_range:64 ~insert_pct:35 ~delete_pct:35 ~threads:4
      ~warmup_cycles:2_000 ~measure_cycles:10_000 ~seed ()
  in
  let r = Driver.run_set ~obs (module Mt_list.Hoh_list) spec in
  (r, Trace.to_string ~num_cores:4 obs)

let test_trace_well_formed () =
  let _, s = traced_run 7 in
  let j = Json.of_string s in
  match Json.member "traceEvents" j with
  | Some (Json.List evs) ->
      check_bool "nonempty" true (List.length evs > 0);
      List.iter
        (fun ev ->
          check_bool "has ph" true (Json.member "ph" ev <> None);
          check_bool "has pid" true (Json.member "pid" ev <> None);
          (match Json.member "ph" ev with
          | Some (Json.String "M") -> ()
          | _ -> check_bool "has ts" true (Json.member "ts" ev <> None)))
        evs
  | _ -> Alcotest.fail "no traceEvents array"

let test_trace_deterministic () =
  let r1, s1 = traced_run 42 in
  let r2, s2 = traced_run 42 in
  check_string "byte-identical traces" s1 s2;
  check_int "same ops" r1.Driver.ops r2.Driver.ops

let test_tracing_does_not_perturb () =
  (* The whole zero-overhead-off story: a traced run and an untraced run
     of the same seed report identical simulated metrics. *)
  let spec =
    Spec.make ~key_range:64 ~insert_pct:35 ~delete_pct:35 ~threads:4
      ~warmup_cycles:2_000 ~measure_cycles:10_000 ~seed:42 ()
  in
  let traced =
    Driver.run_set
      ~obs:(Obs.create ~num_cores:4 ())
      (module Mt_list.Hoh_list)
      spec
  in
  let plain = Driver.run_set (module Mt_list.Hoh_list) spec in
  check_int "ops" plain.Driver.ops traced.Driver.ops;
  check_int "duration" plain.Driver.duration traced.Driver.duration;
  check_bool "throughput" true
    (plain.Driver.throughput = traced.Driver.throughput);
  check_int "validate failures" plain.Driver.stats.Mt_sim.Stats.validate_failures
    traced.Driver.stats.Mt_sim.Stats.validate_failures

let test_driver_json_schema () =
  let r, _ = traced_run 3 in
  let j = Json.of_string (Json.to_string (Driver.result_to_json r)) in
  List.iter
    (fun field -> check_bool field true (Json.member field j <> None))
    [
      "impl"; "workload"; "threads"; "seed"; "spec"; "ops"; "duration_cycles";
      "throughput_per_kcycle"; "l1_miss_rate"; "energy_per_op";
      "latency_cycles"; "aborts"; "counters";
    ];
  (* The spec object must be fully self-describing (replayable point). *)
  (match Json.member "spec" j with
  | Some spec ->
      List.iter
        (fun field -> check_bool ("spec." ^ field) true (Json.member field spec <> None))
        [
          "key_range"; "init_fill"; "insert_pct"; "delete_pct"; "threads";
          "warmup_cycles"; "measure_cycles"; "seed";
        ]
  | None -> Alcotest.fail "no spec");
  match Json.member "latency_cycles" j with
  | Some lat ->
      check_bool "latency count positive" true
        (match Json.member "count" lat with
        | Some (Json.Int n) -> n > 0
        | _ -> false);
      check_bool "latency has p999" true (Json.member "p999" lat <> None)
  | None -> Alcotest.fail "no latency_cycles"

(* A measured window of zero cycles or a negative warmup is not a run:
   [Spec.make] refuses it instead of reporting an all-zero point. *)
let test_spec_rejects_bad_windows () =
  let make ?warmup_cycles ?measure_cycles () =
    Spec.make ?warmup_cycles ?measure_cycles ~key_range:64 ~insert_pct:10
      ~delete_pct:10 ~threads:2 ()
  in
  let rejects name f =
    check_bool name true
      (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  rejects "measure_cycles 0" (make ~measure_cycles:0);
  rejects "measure_cycles -1" (make ~measure_cycles:(-1));
  rejects "warmup_cycles -1" (make ~warmup_cycles:(-1));
  let s = make ~warmup_cycles:0 ~measure_cycles:1 () in
  check_int "zero warmup accepted" 0 s.Spec.warmup_cycles

(* ------------------------------------------------------------------ *)
(* Chunk_table against a [Hashtbl] model: random sets, adds and gets over
   16-entry chunks, at indices on both sides of three chunk boundaries and
   at one far index, then one more write at the far index, which grows the
   table past every chunk the ops allocated. After every step the table
   holds exactly the chunks that some non-zero write or add reached (so a
   zero into an absent chunk allocates nothing), each allocated chunk is
   still the array it was when first allocated, and [iter] yields exactly
   the non-zero entries in ascending order. *)

type chunk_op = Ct_set of int * int | Ct_add of int * int | Ct_get of int

let prop_chunk_table_model =
  let module Ct = Mt_obs.Chunk_table in
  let log2 = 4 in
  let per = 1 lsl log2 and far = (50 lsl 4) + 5 in
  let index =
    QCheck.Gen.oneofl
      [ 0; 1; per - 1; per; per + 1; (2 * per) - 1; 2 * per; (3 * per) - 1; 3 * per;
        (3 * per) + 2; far ]
  in
  let value = QCheck.Gen.(frequency [ (3, return 0); (2, int_range (-3) 3); (1, int) ]) in
  let op =
    QCheck.Gen.(
      frequency
        [ (4, map2 (fun i v -> Ct_set (i, v)) index value);
          (3, map2 (fun i d -> Ct_add (i, d)) index value);
          (2, map (fun i -> Ct_get i) index) ])
  in
  let print = function
    | Ct_set (i, v) -> Printf.sprintf "set %d %d" i v
    | Ct_add (i, d) -> Printf.sprintf "add %d %d" i d
    | Ct_get i -> Printf.sprintf "get %d" i
  in
  QCheck.Test.make ~count:300 ~name:"chunk table matches a Hashtbl model"
    QCheck.(make ~print:(Print.list print) Gen.(list_size (int_range 0 60) op))
    (fun ops ->
      let t = Ct.create ~chunk_log2:log2 in
      let model = Hashtbl.create 16 in
      (* Chunk index -> the array first allocated for it. *)
      let born = Hashtbl.create 8 in
      let find i = Option.value (Hashtbl.find_opt model i) ~default:0 in
      let written i v =
        if v <> 0 && not (Hashtbl.mem born (i lsr log2)) then
          Hashtbl.replace born (i lsr log2) (Ct.chunk t (i lsr log2))
      in
      let agree () =
        let entries = ref [] in
        Ct.iter t (fun i v -> entries := (i, v) :: !entries);
        let nonzero =
          Hashtbl.fold (fun i v acc -> if v <> 0 then (i, v) :: acc else acc) model []
        in
        Ct.chunks t = Hashtbl.length born
        && Hashtbl.fold (fun ci ch ok -> ok && Ct.chunk t ci == ch) born true
        && List.rev !entries = List.sort compare nonzero
      in
      let step = function
        | Ct_set (i, v) ->
            Ct.set t i v;
            Hashtbl.replace model i v;
            written i v
        | Ct_add (i, d) ->
            Ct.add t i d;
            Hashtbl.replace model i (find i + d);
            written i d
        | Ct_get _ -> ()
      in
      List.for_all
        (fun o ->
          step o;
          (match o with Ct_get i -> Ct.get t i = find i | _ -> true) && agree ())
        (ops @ [ Ct_set (far + per, 1) ]))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [
      ( "hist",
        [
          Alcotest.test_case "small buckets exact" `Quick test_hist_buckets_exact_small;
          Alcotest.test_case "buckets monotone, 12.5%" `Quick test_hist_buckets_monotone;
          Alcotest.test_case "empty" `Quick test_hist_empty;
          Alcotest.test_case "single sample" `Quick test_hist_single_sample;
          Alcotest.test_case "percentiles 1..1000" `Quick test_hist_percentiles;
          Alcotest.test_case "p99.9 within 12.5%" `Quick test_hist_p999;
          Alcotest.test_case "negative clamps" `Quick test_hist_negative_clamps;
          Alcotest.test_case "merge" `Quick test_hist_merge;
        ] );
      ( "ring",
        [
          Alcotest.test_case "wraparound ordering" `Quick test_ring_wraparound;
          Alcotest.test_case "merge across cores" `Quick test_ring_merge_across_cores;
          Alcotest.test_case "null sink" `Quick test_null_sink;
          Alcotest.test_case "hot lines" `Quick test_hot_lines;
          Alcotest.test_case "sink smaller than machine rejected" `Quick
            test_sink_too_small;
          Alcotest.test_case "mid-run tap matches retained stream" `Quick
            test_tap_matches_retained;
          QCheck_alcotest.to_alcotest prop_labels_and_hot_lines;
          Alcotest.test_case "label ranges must ascend" `Quick
            test_label_lines_rejects_descending;
        ] );
      ("chunk", [ QCheck_alcotest.to_alcotest prop_chunk_table_model ]);
      ( "spec",
        [
          Alcotest.test_case "make rejects bad windows" `Quick
            test_spec_rejects_bad_windows;
        ] );
      ( "trace",
        [
          Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "json float repr" `Quick test_json_float_repr;
          QCheck_alcotest.to_alcotest prop_json_float_roundtrip;
          Alcotest.test_case "json rejects garbage" `Quick test_json_rejects_garbage;
          Alcotest.test_case "trace well-formed" `Quick test_trace_well_formed;
          Alcotest.test_case "trace deterministic" `Quick test_trace_deterministic;
          Alcotest.test_case "tracing does not perturb" `Quick test_tracing_does_not_perturb;
          Alcotest.test_case "driver json schema" `Quick test_driver_json_schema;
        ] );
    ]
