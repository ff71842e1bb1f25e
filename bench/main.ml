(* Regenerates every measured figure of the paper (Figures 2, 4, 5, 6, 7
   and 8), the spurious-invalidation observation of Section 6, and the
   design-choice ablations called out in DESIGN.md.

   Usage:  dune exec bench/main.exe [-- fig2 fig5 fig6 fig7 fig8 spurious
                                        ablation latency store contention
                                        timeline summary
                                        quick --jobs N --json FILE]

   Each word selects one panel of the registry at the bottom of this
   file ("fig4" is an alias of "fig2"); panels always run in registry
   order, whatever the order of the words. An unknown word exits 2 and
   lists the valid ones, so a misspelled regeneration command cannot
   write a baseline that checks nothing.

   "latency" has no paper counterpart: it drives the open-loop service
   layer (lib/serve) over list/tree/STM backends, sweeping offered load
   across each backend's saturation knee and reporting goodput, drop rate
   and end-to-end tail latency (p50/p99/p99.9).
   "store" drives the sharded store (lib/store) through the same
   open-loop serve layer under point/txn/scan request-kind mixes, one
   saturation curve per mix.
   "contention" sweeps the restart contention-management policy
   (immediate/backoff/politeness, lib/cm) against thread count
   and Zipfian key skew over four restart-loop shapes (HoH list, HoH
   (a,b)-tree, tagged NOrec, store transactions), reporting throughput
   relative to the immediate baseline plus the policy wait counters.
   "timeline" runs a closed-loop and an open-loop scenario under an
   injected mid-run Max_Tags squeeze pulse with windowed telemetry
   (lib/obs Series) attached, exporting the per-window series as the
   "timeseries" JSON panel — the abort storm, queue backup and recovery
   as dynamics rather than end-of-run aggregates.
   With no panel word everything runs (the paper's full sweep). "quick"
   restricts the thread sweep for a fast smoke run. --jobs N fans the
   independent simulation points out over N OCaml domains (0 = auto, 1 =
   sequential); output and JSON are byte-identical for any value. *)

open Mt_sim
module Spec = Mt_workload.Spec
module Driver = Mt_workload.Driver
module Report = Mt_workload.Report
module Pool = Mt_par.Pool
module Serve = Mt_serve.Server
module Hist = Mt_obs.Hist
module Series = Mt_obs.Series
module Obs = Mt_obs.Obs
module Json = Mt_obs.Json

(* ------------------------------------------------------------------ *)
(* Configuration. *)

(* What every panel is run with. [jobs] is the resolved domain count:
   each point builds its own machine/runtime/PRNGs and results merge in
   input order, so output is byte-identical whatever the value. *)
type opts = { quick : bool; jobs : int }

let threads_sweep o = if o.quick then [ 1; 4; 16; 64 ] else [ 1; 2; 4; 8; 16; 32; 64 ]

let list_range = 256
let tree_range = 8192
let vacation_relations = 16384

module Catalog = Mt_workload.Catalog

let sets = List.map (fun (e : Catalog.entry) -> e.set)
let list_impls = sets Catalog.[ harris_list; vas_list; hoh_list ]
let tree_impls = sets Catalog.[ abtree_llx; abtree_hoh ]
let abtree_hoh = Catalog.abtree_hoh.set

(* ------------------------------------------------------------------ *)
(* Panel results. *)

type series = { impl : string; points : (int * Driver.result) list }

(* What a panel hands back: its entries for its export slot and the
   figure series the summary compares (figure panels only). A panel
   prints its own tables as it runs. *)
type output = { rows : Json.t list; series : series list }

let output ?(series = []) rows = { rows; series }

(* ------------------------------------------------------------------ *)
(* Generic figure runner. *)

let impl_name (module S : Mt_list.Set_intf.SET) = S.name

(* The whole impl × threads grid is a list of independent points; fan it
   out across domains and stitch the results back per implementation.
   Progress lines print after the parallel phase, in input order, so
   stdout is deterministic for any --jobs value. *)
let sweep o ~name ~point ~progress impls =
  let grid =
    List.concat_map (fun m -> List.map (fun t -> (m, t)) (threads_sweep o)) impls
  in
  let results = Pool.map ~jobs:o.jobs (fun (m, t) -> point m t) grid in
  let tagged = List.map2 (fun (m, t) r -> (name m, t, r)) grid results in
  List.map
    (fun m ->
      let impl = name m in
      let points =
        List.filter_map
          (fun (n, t, r) -> if n = impl then Some (t, r) else None)
          tagged
      in
      List.iter (fun (t, r) -> progress impl t r) points;
      (impl, points))
    impls

let metric_table ~title cell series =
  let threads = List.map fst (List.hd series).points in
  Report.table ~title
    ~columns:("threads" :: List.map (fun s -> s.impl) series)
    (List.map
       (fun t ->
         string_of_int t
         :: List.map (fun s -> cell (List.assoc t s.points)) series)
       threads)

let throughput (r : Driver.result) = Report.f2 r.throughput

let print_metric_tables ~prefix series =
  metric_table ~title:(prefix ^ " — throughput (ops / 1000 cycles)") throughput series;
  metric_table ~title:(prefix ^ " — L1 miss rate")
    (fun r -> Report.pct r.Driver.l1_miss_rate)
    series;
  metric_table
    ~title:(prefix ^ " — energy per operation (model units)")
    (fun r -> Report.f2 r.Driver.energy_per_op)
    series

let series_to_json (s : series) =
  Json.Obj
    [
      ("impl", Json.String s.impl);
      ("points",
       Json.List
         (List.map
            (fun (threads, r) ->
              Json.Obj
                [
                  ("threads", Json.Int threads);
                  ("result", Driver.result_to_json r);
                ])
            s.points));
    ]

let figure_output series = output ~series (List.map series_to_json series)

(* Figures 2/4, 5, 6 and 7: one set-structure sweep per row. [title] heads
   the panel, [prefix] its metric tables; Figure 2 adds a throughput
   table of its own ahead of Figure 4's. *)
type figure = {
  key : string;
  aliases : string list;
  title : string;
  prefix : string;
  throughput_title : string option;
  impls : (module Mt_list.Set_intf.SET) list;
  range : int;
  insert_pct : int;
  delete_pct : int;
}

let figures =
  [
    { key = "fig2"; aliases = [ "fig4" ];
      title = "Figures 2 & 4: linked lists, 35i/35d/30c";
      prefix = "Figure 4 — lists (35/35/30)";
      throughput_title = Some "Figure 2 — list throughput vs threads (35/35/30)";
      impls = list_impls; range = list_range; insert_pct = 35; delete_pct = 35 };
    { key = "fig5"; aliases = [];
      title = "Figure 5: linked lists, 15i/15d/70c";
      prefix = "Figure 5 — lists (15/15/70)"; throughput_title = None;
      impls = list_impls; range = list_range; insert_pct = 15; delete_pct = 15 };
    { key = "fig6"; aliases = [];
      title = "Figure 6: (a,b)-trees, 35i/35d/30c";
      prefix = "Figure 6 — (a,b)-trees (35/35/30)"; throughput_title = None;
      impls = tree_impls; range = tree_range; insert_pct = 35; delete_pct = 35 };
    { key = "fig7"; aliases = [];
      title = "Figure 7: (a,b)-trees, 15i/15d/70c";
      prefix = "Figure 7 — (a,b)-trees (15/15/70)"; throughput_title = None;
      impls = tree_impls; range = tree_range; insert_pct = 15; delete_pct = 15 };
  ]

let run_figure f o _ =
  print_endline ("\n=== " ^ f.title ^ " ===");
  let series =
    sweep o ~name:impl_name f.impls
      ~point:(fun m threads ->
        Driver.run_set m
          (Spec.make ~key_range:f.range ~insert_pct:f.insert_pct
             ~delete_pct:f.delete_pct ~threads ~measure_cycles:150_000 ()))
      ~progress:(fun impl t (r : Driver.result) ->
        Printf.printf "  [%s t=%d] %d ops\n%!" impl t r.ops)
    |> List.map (fun (impl, points) -> { impl; points })
  in
  Option.iter (fun title -> metric_table ~title throughput series) f.throughput_title;
  print_metric_tables ~prefix:f.prefix series;
  figure_output series

(* ------------------------------------------------------------------ *)
(* Figure 8: STAMP vacation on NOrec vs tagged NOrec, -n4 -q60 -u90 with
   -r16384 relations (-r4096 under quick); -t is replaced by a fixed
   simulated window. *)

(* One vacation run: the Fig. 8 client mix over [relations] rows per
   table on a [max_tags]-tag machine. Returns the result, the STM's aborts
   and its VBV passes. *)
let vacation (module S : Mt_stm.Stm_intf.S) ~max_tags ~relations ~threads
    ~warmup ~measure =
  let module V = Mt_stamp.Vacation.Make (S) in
  let params = { V.relations; queries = 4; query_pct = 60; user_pct = 90 } in
  let cfg = { (Config.default ~num_cores:threads ()) with Config.max_tags } in
  let spec =
    Spec.make ~key_range:relations ~insert_pct:0 ~delete_pct:0 ~threads
      ~warmup_cycles:warmup ~measure_cycles:measure ()
  in
  let stm_box = ref None in
  let r =
    Driver.run_custom ~cfg ~name:S.name
      ~setup:(fun ctx ->
        let stm = S.create ctx in
        stm_box := Some stm;
        (stm, V.setup ctx stm params))
      ~op:(fun ctx (stm, mgr) -> V.client_op ctx stm mgr params)
      spec
  in
  let stm = Option.get !stm_box in
  (r, S.aborts stm, S.vbv_passes stm)

let stm_name (module S : Mt_stm.Stm_intf.S) = S.name

let fig8 o _ =
  let relations = if o.quick then 4096 else vacation_relations in
  Printf.printf
    "\n=== Figure 8: STAMP vacation on NOrec (-n4 -q60 -u90 -r%d) ===\n%!"
    relations;
  let impls : (module Mt_stm.Stm_intf.S) list =
    [ (module Mt_stm.Norec); (module Mt_stm.Norec_tagged) ]
  in
  let series =
    sweep o ~name:stm_name impls
      (* STM read sets are much larger than a search-structure window;
         the Fig. 8 configuration provisions 256 tags (see DESIGN.md). *)
      ~point:(fun m threads ->
        vacation m ~max_tags:256 ~relations ~threads ~warmup:50_000
          ~measure:400_000)
      ~progress:(fun impl t ((r : Driver.result), aborts, vbv) ->
        Printf.printf "  [%s t=%d] %d txs, %d aborts, %d vbv passes\n%!" impl t
          r.ops aborts vbv)
    |> List.map (fun (impl, points) ->
           { impl; points = List.map (fun (t, (r, _, _)) -> (t, r)) points })
  in
  print_metric_tables ~prefix:"Figure 8 — vacation" series;
  figure_output series

(* ------------------------------------------------------------------ *)
(* Section 6 observation: spurious invalidations are negligible. *)

let spurious o _ =
  print_endline "\n=== Section 6: spurious validation failures ===";
  let spec range =
    Spec.make ~key_range:range ~insert_pct:35 ~delete_pct:35 ~threads:16
      ~measure_cycles:150_000 ()
  in
  (* Three independent points; run them domain-parallel, report in order. *)
  let results =
    Pool.map ~jobs:o.jobs
      (fun (name, m, range) ->
        (Printf.sprintf "%s r%d" name range, Driver.run_set m (spec range)))
      [
        ("hoh-list", (module Mt_list.Hoh_list : Mt_list.Set_intf.SET), list_range);
        ("hoh-abtree", abtree_hoh, tree_range);
        (* A deliberately oversized structure shows capacity evictions rising. *)
        ("hoh-abtree", abtree_hoh, 65536);
      ]
  in
  Report.table ~title:"Spurious (capacity/overflow) validation failures"
    ~columns:[ "workload"; "validates"; "failures"; "spurious"; "spurious/validate" ]
    (List.map
       (fun (name, (r : Driver.result)) ->
         let s = r.stats in
         let frac =
           if s.Stats.validates = 0 then 0.0
           else
             float_of_int s.Stats.validate_failures_spurious
             /. float_of_int s.Stats.validates
         in
         [
           name;
           string_of_int s.Stats.validates;
           string_of_int s.Stats.validate_failures;
           string_of_int s.Stats.validate_failures_spurious;
           Report.pct frac;
         ])
       results);
  output
    (List.map
       (fun (name, (r : Driver.result)) ->
         let s = r.stats in
         Json.Obj
           [
             ("workload", Json.String name);
             ("validates", Json.Int s.Stats.validates);
             ("validate_failures", Json.Int s.Stats.validate_failures);
             ("validate_failures_spurious", Json.Int s.Stats.validate_failures_spurious);
             ("result", Driver.result_to_json r);
           ])
       results)

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md): explicit tag-op costs, conservative IAS,
   Max_Tags sensitivity for the STM. *)

let ablation o _ =
  print_endline "\n=== Ablations ===";
  (* Rows within a table are independent simulations; run each table's rows
     through the pool and print once they are all back, in row order. *)
  let set_row m range (name, cfg) =
    let r =
      Driver.run_set ~cfg m
        (Spec.make ~key_range:range ~insert_pct:35 ~delete_pct:35 ~threads:16
           ~measure_cycles:150_000 ())
    in
    [ name; Report.f2 r.Driver.throughput; Report.pct r.Driver.l1_miss_rate ]
  in
  let cfg0 = Config.default ~num_cores:16 () in
  Report.table ~title:"Ablation: explicit tag-instruction costs (HoH list, t16)"
    ~columns:[ "config"; "thr/kcyc"; "L1 miss" ]
    (Pool.map ~jobs:o.jobs (set_row (module Mt_list.Hoh_list) list_range)
       [
         ("tag=0 validate=0 (default)", cfg0);
         ("tag=1 validate=1", { cfg0 with Config.lat_tag_op = 1; lat_validate = 1 });
         ("tag=2 validate=4", { cfg0 with Config.lat_tag_op = 2; lat_validate = 4 });
       ]);
  Report.table ~title:"Ablation: IAS invalidation scope (HoH abtree, t16)"
    ~columns:[ "config"; "thr/kcyc"; "L1 miss" ]
    (Pool.map ~jobs:o.jobs (set_row abtree_hoh tree_range)
       [
         ("tag-targeted IAS (default)", cfg0);
         ("IAS elevates all sharers", { cfg0 with Config.ias_tag_targeted = false });
       ]);
  let vac_row max_tags =
    let r, _, _ =
      vacation (module Mt_stm.Norec_tagged) ~max_tags ~relations:4096
        ~threads:16 ~warmup:30_000 ~measure:300_000
    in
    [ string_of_int max_tags; Report.f2 r.Driver.throughput ]
  in
  Report.table ~title:"Ablation: Max_Tags for tagged NOrec (vacation r4096, t16)"
    ~columns:[ "Max_Tags"; "thr/kcyc" ]
    (Pool.map ~jobs:o.jobs vac_row [ 32; 64; 128; 256 ]);
  output []

(* ------------------------------------------------------------------ *)
(* Open-loop saturation curves. Closed-loop figures cannot see queueing
   delay; here load is offered at a configured rate whether or not the
   backend keeps up. Phase 1 calibrates each target by offering far more
   load than it can serve (goodput then measures saturation capacity);
   phase 2 offers multiples of that capacity, so the knee is always in
   frame: goodput plateaus at 1.0x while the end-to-end tail explodes.
   Returns each target with its calibration result and its (multiple,
   result) grid, in target order. No paper counterpart (the paper
   measures closed-loop only). *)

let serve_workers = 4
let cal_rate = 200.0

let serve_config ~rate ~horizon =
  Serve.config ~workers:serve_workers ~batch:4 ~queue_capacity:128
    ~rate_per_kcycle:rate ~horizon ()

let saturation_curves o ~run ~goodput ~report ~mults targets =
  let calibrated =
    Pool.map ~jobs:o.jobs (fun t -> (t, run t cal_rate)) targets
  in
  List.iter (fun (t, r) -> report t r) calibrated;
  let grid =
    List.concat_map
      (fun (t, cal) -> List.map (fun m -> (t, m, m *. goodput cal)) mults)
      calibrated
  in
  let results = Pool.map ~jobs:o.jobs (fun (t, _, rate) -> run t rate) grid in
  let tagged = List.map2 (fun (t, m, _) r -> (t, m, r)) grid results in
  List.map
    (fun (t, cal) ->
      ( t,
        cal,
        List.filter_map
          (fun (t', m, r) -> if t' == t then Some (m, r) else None)
          tagged ))
    calibrated

(* Export order: every calibration point (load multiple 0), then every
   grid point. *)
let curve_rows row curves =
  List.map (fun (t, cal, _) -> row t 0.0 cal) curves
  @ List.concat_map (fun (t, _, grid) -> List.map (fun (m, r) -> row t m r) grid) curves

(* ------------------------------------------------------------------ *)
(* Offered-load sweep: the open-loop service layer (lib/serve) over one
   list, one tree and one STM backend. *)

type serve_backend = {
  sb_name : string;
  sb_run : rate:float -> horizon:int -> Serve.result;
}

let serve_set_backend (module S : Mt_list.Set_intf.SET) ~range =
  {
    sb_name = S.name;
    sb_run =
      (fun ~rate ~horizon ->
        Serve.run_set (module S) ~key_range:range (serve_config ~rate ~horizon));
  }

(* The STM backend serves transactional map operations (35% insert, 35%
   delete, 30% lookup) on tagged NOrec, with the Fig. 8 tag provisioning. *)
let serve_stm_backend ~range =
  let module S = Mt_stm.Norec_tagged in
  let module TM = Mt_stamp.Tx_map.Make (S) in
  {
    sb_name = "norec-tagged-map";
    sb_run =
      (fun ~rate ~horizon ->
        let cfg =
          { (Config.default ~num_cores:(serve_workers + 1) ()) with
            Config.max_tags = 256 }
        in
        let c = serve_config ~rate ~horizon in
        Serve.run ~cfg ~name:"norec-tagged-map"
          ~setup:(fun ctx ->
            let stm = S.create ctx in
            let map = TM.create ctx in
            let g = Prng.create ~seed:(c.Serve.seed + 1) in
            for k = 0 to range - 1 do
              if Prng.float g < 0.5 then
                S.atomically ctx stm (fun tx -> ignore (TM.insert tx map k k))
            done;
            (stm, map))
          ~op:(fun ctx (stm, map) payload ->
            let k = (payload lsr 20) mod range in
            let r = payload mod 100 in
            S.atomically ctx stm (fun tx ->
                if r < 35 then ignore (TM.insert tx map k k)
                else if r < 70 then ignore (TM.remove tx map k)
                else ignore (TM.find tx map k)))
          c);
  }

let serve_backends () =
  [
    serve_set_backend (module Mt_list.Hoh_list) ~range:list_range;
    serve_set_backend abtree_hoh ~range:tree_range;
    (* 512 keys: the transactional BST stays cache-resident, keeping the
       STM backend in the same capacity class as the structures (a 4096
       key map is memory-bound at ~25x the service time). *)
    serve_stm_backend ~range:512;
  ]

let latency o _ =
  print_endline
    "\n=== Offered-load sweep: open-loop service layer (goodput vs tail latency) ===";
  let horizon = if o.quick then 60_000 else 120_000 in
  let curves =
    saturation_curves o (serve_backends ())
      ~run:(fun b rate -> b.sb_run ~rate ~horizon)
      ~goodput:(fun r -> r.Serve.goodput)
      ~report:(fun b (r : Serve.result) ->
        Printf.printf "  [%s] capacity %.3f req/kcyc (offered %.0f, drop %.1f%%)\n%!"
          b.sb_name r.goodput cal_rate (100.0 *. r.drop_rate))
      ~mults:
        (if o.quick then [ 0.5; 0.9; 1.1; 1.5 ]
         else [ 0.25; 0.5; 0.7; 0.85; 1.0; 1.2; 1.5; 2.0 ])
  in
  List.iter
    (fun (b, _, grid) ->
      Report.table
        ~title:
          (Printf.sprintf
             "Open-loop service — %s (poisson arrivals, %d workers, batch 4)"
             b.sb_name serve_workers)
        ~columns:
          [ "load"; "offered/kcyc"; "goodput/kcyc"; "drop"; "wait p50";
            "e2e p50"; "e2e p99"; "e2e p99.9" ]
        (List.map
           (fun (m, (r : Serve.result)) ->
             [
               Printf.sprintf "%.2fx" m;
               Report.f2 r.offered;
               Report.f2 r.goodput;
               Report.pct r.drop_rate;
               string_of_int (Hist.percentile r.queue_wait 50.0);
               string_of_int (Hist.percentile r.e2e 50.0);
               string_of_int (Hist.percentile r.e2e 99.0);
               string_of_int (Hist.percentile r.e2e 99.9);
             ])
           grid))
    curves;
  output
    (curve_rows
       (fun b mult r ->
         Json.Obj
           [
             ("backend", Json.String b.sb_name);
             ("calibration", Json.Bool (mult = 0.0));
             ("load_multiple", Json.Float mult);
             ("result", Serve.result_to_json r);
           ])
       curves)

(* ------------------------------------------------------------------ *)
(* Sharded store: saturation curves per request-kind mix.
   The serve layer drives the sharded store (lib/store), B+-tree shards,
   with a point/txn/scan request mix; each mix is calibrated like the
   latency panel and then offered multiples of its measured capacity.
   Store counters (txn commit/abort, scan validation
   fallbacks, per-shard routing imbalance) ride along with each point.
   No paper counterpart (the paper has no multi-shard evaluation). *)

module Store = Mt_store.Store
module Store_serve = Mt_store.Store_serve
module Store_backend = Mt_store.Backend

let store_shards = 4

let store_mixes =
  [
    Store_serve.mix ~point_pct:90 ~txn_pct:5;
    Store_serve.mix ~point_pct:60 ~txn_pct:30;
    Store_serve.mix ~point_pct:50 ~txn_pct:20;
  ]

let store_stats_to_json (st : Store.stats) =
  Json.Obj
    [
      ("point_ops", Json.Int st.point_ops);
      ("txn_commits", Json.Int st.txn_commits);
      ("txn_sub_ops", Json.Int st.txn_sub_ops);
      ("txn_retries", Json.Int st.txn_retries);
      ("txn_retries_locked", Json.Int st.txn_retries_locked);
      ("txn_retries_version", Json.Int st.txn_retries_version);
      ("txn_locked_cycles", Json.Int st.txn_locked_cycles);
      ("scans", Json.Int st.scans);
      ("scan_collects", Json.Int st.scan_collects);
      ("scan_tag_fallbacks", Json.Int st.scan_tag_fallbacks);
      ("scan_shard_retries", Json.Int st.scan_shard_retries);
      ("shard_ops",
       Json.List (Array.to_list (Array.map (fun n -> Json.Int n) st.shard_ops)));
      ("imbalance", Json.Float (Store.imbalance st));
    ]

let store o _ =
  print_endline
    "\n=== Sharded store: saturation curves per mix ===";
  let horizon = if o.quick then 60_000 else 120_000 in
  let specs =
    List.map
      (fun mix ->
        Store_serve.spec ~shards:store_shards
          ~backend:(module Store_backend.Norec_map) ~mix ())
      store_mixes
  in
  let curves =
    saturation_curves o specs
      ~run:(fun spec rate -> Store_serve.run spec (serve_config ~rate ~horizon))
      ~goodput:(fun ((r : Serve.result), _) -> r.goodput)
      ~report:(fun (spec : Store_serve.spec) ((r : Serve.result), _) ->
        Printf.printf "  [%s %s] capacity %.3f req/kcyc (offered %.0f)\n%!"
          (Store_backend.name spec.backend)
          (Store_serve.mix_name spec.mix)
          r.goodput cal_rate)
      ~mults:
        (if o.quick then [ 0.5; 1.0; 1.5 ]
         else [ 0.25; 0.5; 0.85; 1.0; 1.2; 1.5; 2.0 ])
  in
  List.iter
    (fun ((spec : Store_serve.spec), _, grid) ->
      Report.table
        ~title:
          (Printf.sprintf
             "Sharded store — %s, mix %s (%d shards, %d workers)"
             (Store_backend.name spec.backend)
             (Store_serve.mix_name spec.mix)
             store_shards serve_workers)
        ~columns:
          [ "load"; "offered/kcyc"; "goodput/kcyc"; "drop"; "e2e p99";
            "scan fallback"; "imbalance" ]
        (List.map
           (fun (m, ((r : Serve.result), (st : Store.stats))) ->
             [
               Printf.sprintf "%.2fx" m;
               Report.f2 r.offered;
               Report.f2 r.goodput;
               Report.pct r.drop_rate;
               string_of_int (Hist.percentile r.e2e 99.0);
               string_of_int st.scan_tag_fallbacks;
               Printf.sprintf "%.2f" (Store.imbalance st);
             ])
           grid))
    curves;
  output
    (curve_rows
       (fun (spec : Store_serve.spec) mult (r, st) ->
         let m = spec.mix in
         Json.Obj
           [
             ("backend", Json.String (Store_backend.name spec.backend));
             ("mix", Json.String (Store_serve.mix_name m));
             ("point_pct", Json.Int m.point_pct);
             ("txn_pct", Json.Int m.txn_pct);
             ("scan_pct", Json.Int m.scan_pct);
             ("shards", Json.Int store_shards);
             ("calibration", Json.Bool (mult = 0.0));
             ("load_multiple", Json.Float mult);
             ("result", Serve.result_to_json r);
             ("store", store_stats_to_json st);
           ])
       curves)

(* ------------------------------------------------------------------ *)
(* Contention panel: restart-management policy x thread count x Zipfian
   skew, over four backends chosen for their different restart loops —
   the HoH list (VAS/IAS storms on a short hot list), the HoH (a,b)-tree
   (locate/commit restarts over a wider structure), tagged NOrec (STM
   abort/retry on the global seqlock) and the sharded store's transaction
   path (tagged shard-lock acquisition: VAS retries, then the serialized
   fallback). Every point reuses the
   same per-core PRNG streams regardless of policy (jitter draws come
   from a separate split stream), so the offered operation sequence is
   identical across policies and throughput differences are pure
   contention-management effect. *)

module Cm = Mt_cm.Cm
module Zipf = Mt_check.Zipf
module Ctx = Mt_core.Ctx

let contention_policies =
  [ Cm.immediate; Cm.backoff (); Cm.politeness () ]

let contention_spec o ~range ~insert_pct ~delete_pct ~threads =
  Spec.make ~key_range:range ~insert_pct ~delete_pct ~threads
    ~warmup_cycles:(if o.quick then 10_000 else 30_000)
    ~measure_cycles:(if o.quick then 60_000 else 150_000)
    ()

(* Write-heavy Zipf-keyed set workload (45i/45d/10c). The hot rank maps
   to the LARGEST key, so for ordered structures the contended nodes sit
   at the end of the longest traversal path — a restart throws away the
   whole hand-over-hand walk, which is exactly the storm contention
   management exists to calm. The set points run the conservative IAS
   variant (paper §3's sketch; the same knob as the ablation panel): every
   successful delete elevates the whole tag set to M, so each success
   invalidates all concurrent walkers sharing the hot lines and the
   restart storm has a real fabric cost. *)
let contention_set_point o (module S : Mt_list.Set_intf.SET) ~range ~theta ~cm
    ~threads =
  let z = Zipf.create ~n:range ~theta in
  let spec = contention_spec o ~range ~insert_pct:45 ~delete_pct:45 ~threads in
  let cfg =
    { (Config.default ~num_cores:threads ()) with Config.ias_tag_targeted = false }
  in
  Driver.run_custom ~cfg ~cm ~name:S.name
    ~setup:(fun ctx ->
      Mt_list.Set_intf.prefilled (module S) ctx ~seed:(spec.Spec.seed + 1)
        ~key_range:range ~fill:spec.Spec.init_fill)
    ~op:(fun ctx s ->
      let g = Ctx.prng ctx in
      let k = range - 1 - Zipf.sample z g in
      let r = Prng.int g 100 in
      if r < 45 then ignore (S.insert ctx s k)
      else if r < 90 then ignore (S.delete ctx s k)
      else ignore (S.contains ctx s k))
    spec

(* Zipf-keyed transfer transactions over a word array on tagged NOrec:
   every transaction reads and writes two skew-chosen cells, so the hot
   ranks produce genuine read/write conflicts, not just seqlock churn. *)
let contention_stm_point o ~range ~theta ~cm ~threads =
  let module S = Mt_stm.Norec_tagged in
  let z = Zipf.create ~n:range ~theta in
  let spec = contention_spec o ~range ~insert_pct:0 ~delete_pct:0 ~threads in
  Driver.run_custom ~cm ~name:"norec-tagged"
    ~setup:(fun ctx ->
      let stm = S.create ctx in
      let base = Ctx.alloc ~label:"cm-bank" ctx ~words:range in
      for i = 0 to range - 1 do
        Ctx.write ctx (base + i) 0
      done;
      (stm, base))
    ~op:(fun ctx (stm, base) ->
      let g = Ctx.prng ctx in
      let a = base + Zipf.sample z g in
      let b = base + Zipf.sample z g in
      S.atomically ctx stm (fun tx ->
          let va = S.read tx a and vb = S.read tx b in
          S.write tx a (va + 1);
          S.write tx b (vb - 1)))
    spec

(* Zipf-keyed 3-key transactions against the sharded store
   (norec-tagged shards, as in perfbench's store workload): the store
   partitions keys by range, so the hot ranks (0-1023, the first
   shard's range) all route to the same shard, and its version word
   becomes the contended site for the shard-lock retry loop. *)
let contention_store_point o ~theta ~cm ~threads =
  let key_space = 8192 and shards = 8 and txn_keys = 3 in
  let z = Zipf.create ~n:key_space ~theta in
  let spec =
    contention_spec o ~range:key_space ~insert_pct:0 ~delete_pct:0 ~threads
  in
  Driver.run_custom ~cm ~name:"store-txn"
    ~setup:(fun ctx ->
      let st =
        Store.create (module Store_backend.Norec_map) ctx ~shards ~key_space
      in
      let g = Prng.create ~seed:(spec.Spec.seed + 1) in
      for _ = 1 to 1024 do
        ignore (Store.insert ctx st (Prng.int g key_space))
      done;
      Store.reset_stats st;
      st)
    ~op:(fun ctx st ->
      let g = Ctx.prng ctx in
      let rec build i acc =
        if i = 0 then acc
        else
          let k = Zipf.sample z g in
          let o =
            match Prng.int g 3 with
            | 0 -> Store.Insert
            | 1 -> Store.Delete
            | _ -> Store.Get
          in
          build (i - 1) ((k, o) :: acc)
      in
      ignore (Store.txn ctx st (build txn_keys [])))
    spec

(* The four restart loops, under the names the JSON "backend" field
   carries. The 2048-node list is where storms bite hardest: one restart
   forfeits a full L2-latency hand-over-hand walk. *)
type contention_backend = {
  cb_name : string;
  cb_point : theta:float -> cm:Cm.spec -> threads:int -> Driver.result;
}

let contention_backends o =
  [
    { cb_name = "hoh-list";
      cb_point = contention_set_point o (module Mt_list.Hoh_list) ~range:2048 };
    { cb_name = "hoh-abtree";
      cb_point = contention_set_point o abtree_hoh ~range:tree_range };
    { cb_name = "norec-tagged"; cb_point = contention_stm_point o ~range:1024 };
    { cb_name = "store-txn"; cb_point = contention_store_point o };
  ]

let contention o _ =
  print_endline
    "\n=== Contention management: policy x threads x Zipf skew ===";
  let threads_list = if o.quick then [ 8; 64 ] else [ 4; 16; 64 ] in
  let thetas = if o.quick then [ 0.99; 2.0 ] else [ 0.6; 0.99; 2.0 ] in
  let backends = contention_backends o in
  let points =
    List.concat_map
      (fun backend ->
        List.concat_map
          (fun pol ->
            List.concat_map
              (fun threads ->
                List.map (fun theta -> (backend, pol, threads, theta)) thetas)
              threads_list)
          contention_policies)
      backends
  in
  let results =
    Pool.map ~jobs:o.jobs
      (fun (b, pol, threads, theta) -> b.cb_point ~theta ~cm:pol ~threads)
      points
  in
  let tagged =
    List.map2
      (fun (b, pol, t, th) r -> (b.cb_name, Cm.spec_name pol, t, th, r))
      points results
  in
  List.iter
    (fun { cb_name = backend; _ } ->
      let rows = List.filter (fun (b, _, _, _, _) -> b = backend) tagged in
      let imm_thr t th =
        List.find_map
          (fun (_, pol, t', th', (r : Driver.result)) ->
            if pol = "immediate" && t' = t && th' = th then
              Some r.Driver.throughput
            else None)
          rows
      in
      let body =
        List.map
          (fun (_, pol, t, th, (r : Driver.result)) ->
            let vs =
              match imm_thr t th with
              | Some base when base > 0.0 ->
                  Printf.sprintf "%.2fx" (r.Driver.throughput /. base)
              | _ -> "-"
            in
            [
              pol;
              string_of_int t;
              Printf.sprintf "%.2f" th;
              Report.f2 r.Driver.throughput;
              vs;
              string_of_int r.Driver.stats.Stats.cm_waits;
              string_of_int r.Driver.stats.Stats.cm_wait_cycles;
            ])
          rows
      in
      Report.table
        ~title:(Printf.sprintf "Contention — %s" backend)
        ~columns:
          [ "policy"; "threads"; "theta"; "thr/kcyc"; "vs imm"; "cm waits";
            "wait cycles" ]
        body)
    backends;
  output
    (List.map
       (fun (backend, policy, threads, theta, (r : Driver.result)) ->
         Json.Obj
           [
             ("backend", Json.String backend);
             ("policy", Json.String policy);
             ("threads", Json.Int threads);
             ("theta", Json.Float theta);
             ("result", Driver.result_to_json r);
             ( "cm",
               Json.Obj
                 [
                   ("waits", Json.Int r.stats.Stats.cm_waits);
                   ("wait_cycles", Json.Int r.stats.Stats.cm_wait_cycles);
                 ] );
           ])
       tagged)

(* ------------------------------------------------------------------ *)
(* Timeline: windowed telemetry under an injected Max_Tags squeeze.

   Two scenarios over the HoH list — a closed-loop run (8 threads) and an
   open-loop serve run (4 workers) — each with a mid-run squeeze pulse
   dropping Max_Tags to 1. A hand-over-hand locate's window is two live
   tags, so under the pulse every traversal overflows the tag file:
   validations fail spuriously, ops spin in retry, and (open-loop) the
   queues back up — then the pulse restores and the per-window series
   shows the recovery. The telemetry runs on a retain:false sink (the
   series reads the live event stream, not the rings), so the panel is
   byte-identical for any --jobs value and with tracing on or off. *)

let timeline_window = 5_000

let timeline o _ =
  print_endline
    "\n=== Timeline: windowed telemetry under a Max_Tags squeeze pulse ===";
  let horizon = if o.quick then 60_000 else 150_000 in
  let fault = Printf.sprintf "squeeze=%d,1,%d" (horizon / 3) (horizon / 5) in
  let spec_inj =
    match Mt_check.Inject.of_string fault with
    | Ok s -> s
    | Error e -> failwith ("bench timeline: bad fault spec: " ^ e)
  in
  let make_policy m =
    Mt_check.Inject.make_policy spec_inj ~machine:m ~seed:1 ~max_delay:0
  in
  let closed () =
    let obs = Obs.create ~retain:false ~num_cores:8 () in
    let series = Series.create ~window:timeline_window () in
    let spec =
      Spec.make ~key_range:list_range ~insert_pct:35 ~delete_pct:35 ~threads:8
        ~measure_cycles:horizon ()
    in
    let r =
      Driver.run_set ~obs ~make_policy ~series (module Mt_list.Hoh_list) spec
    in
    ("closed-squeeze", "closed-loop", series, Driver.result_to_json r)
  in
  let serve () =
    let obs = Obs.create ~retain:false ~num_cores:(serve_workers + 1) () in
    let series = Series.create ~window:timeline_window () in
    let r =
      Serve.run_set ~obs ~make_policy ~series
        (module Mt_list.Hoh_list)
        ~key_range:list_range
        (serve_config ~rate:8.0 ~horizon)
    in
    ("serve-squeeze", "open-loop", series, Serve.result_to_json r)
  in
  let scenarios = Pool.map ~jobs:o.jobs (fun f -> f ()) [ closed; serve ] in
  List.iter
    (fun (name, _, series, _) ->
      List.iter
        (fun (t, label) -> Printf.printf "  [%s] mark @%-6d %s\n%!" name t label)
        (Series.marks series);
      let overflows i = Series.get series i (Counter Tag_overflows) in
      let peak = ref 0 in
      for i = 1 to Series.n_windows series - 1 do
        if overflows i > overflows !peak then peak := i
      done;
      let t0 = !peak * timeline_window in
      Printf.printf
        "  [%s] %d windows of %d cycles; peak window [%d,%d): %d tag \
         overflows, %d spurious validation failures, %d ops\n%!"
        name (Series.n_windows series) timeline_window t0
        (t0 + timeline_window) (overflows !peak)
        (Series.get series !peak (Counter Validate_spurious))
        (Series.get series !peak (Tally Ops)))
    scenarios;
  output
    (List.map
       (fun (name, mode, series, result) ->
         Json.Obj
           [
             ("scenario", Json.String name);
             ("mode", Json.String mode);
             ("backend", Json.String "hoh-list");
             ("fault_spec", Json.String fault);
             ("series", Series.to_json series);
             ("result", result);
           ])
       scenarios)

(* ------------------------------------------------------------------ *)
(* Headline summary (Section 6 discussion claims), read from the figure
   panels that ran before it. *)

let best_gain base_series other_series =
  List.fold_left
    (fun acc (t, r) ->
      let b = (List.assoc t base_series.points).Driver.throughput in
      if b > 0.0 then max acc (r.Driver.throughput /. b) else acc)
    0.0 other_series.points

let summary _ earlier =
  print_endline "\n=== Headline comparison vs the paper's claims ===";
  let gain key base other =
    match List.assoc_opt key earlier with
    | None -> None
    | Some out -> (
        let find impl = List.find_opt (fun s -> s.impl = impl) out.series in
        match (find base, find other) with
        | Some b, Some o -> Some (best_gain b o)
        | _ -> None)
  in
  let rows =
    [
      ("HoH list vs Harris (35/35)", "1.10-1.50x", gain "fig2" "harris-list" "hoh-list");
      ("VAS list vs Harris (35/35)", "1.10-1.50x", gain "fig2" "harris-list" "vas-list");
      ("HoH abtree vs LLX/SCX (35/35)", "up to 2x", gain "fig6" "llx-abtree(4,8)" "hoh-abtree(4,8)");
      ("HoH abtree vs LLX/SCX (15/15)", "up to 2x", gain "fig7" "llx-abtree(4,8)" "hoh-abtree(4,8)");
      ("tagged NOrec vs NOrec (vacation)", "up to 1.5x", gain "fig8" "norec" "norec-tagged");
    ]
  in
  Report.table ~title:"Peak speedups across the thread sweep"
    ~columns:[ "comparison"; "paper"; "measured (best over threads)" ]
    (List.map
       (fun (name, paper, measured) ->
         [ name; paper;
           (match measured with Some g -> Printf.sprintf "%.2fx" g | None -> "(skipped)") ])
       rows);
  (* The export lists the rows last-first: the order every committed
     BENCH_*.json carries. *)
  output
    (List.rev_map
       (fun (name, paper, measured) ->
         Json.Obj
           ([
              ("comparison", Json.String name);
              ("paper_claim", Json.String paper);
            ]
           @
           (* Never a bare null: a figure missing from this run selection is
              an explicit skip with a reason (json_check enforces this). *)
           match measured with
           | Some g -> [ ("measured_peak_speedup", Json.Float g) ]
           | None ->
               [
                 ("skipped", Json.Bool true);
                 ("reason", Json.String "figure not collected in this run selection");
               ]))
       rows)

(* ------------------------------------------------------------------ *)
(* The panel registry. [slot] names the export key a panel's rows go
   under ("figures" nests them under the panel's own name); [run] gets
   the outputs of the panels that ran before it, by name. Registry order
   is run order. *)

type panel = {
  name : string;
  aliases : string list;
  slot : string option;
  run : opts -> (string * output) list -> output;
}

let panel ?(aliases = []) ?slot name run = { name; aliases; slot; run }

let panels =
  List.map
    (fun (f : figure) ->
      panel f.key ~aliases:f.aliases ~slot:"figures" (run_figure f))
    figures
  @ [
      panel "fig8" ~slot:"figures" fig8;
      panel "spurious" ~slot:"spurious" spurious;
      panel "ablation" ablation;
      panel "latency" ~slot:"latency" latency;
      panel "store" ~slot:"store" store;
      panel "contention" ~slot:"contention" contention;
      panel "timeline" ~slot:"timeseries" timeline;
      panel "summary" ~slot:"headline" summary;
    ]

(* Machine-readable export of the panels that ran. This is the BENCH_*.json
   schema — extend, don't reorder or rename. Every slot is present, as an
   empty list when its panel did not run. *)
let export_json o ran file =
  let in_slot key = List.filter (fun (p, _) -> p.slot = Some key) ran in
  let slot key = Json.List (List.concat_map (fun (_, out) -> out.rows) (in_slot key)) in
  let doc =
    Json.Obj
      ([
         ("schema_version", Json.Int 5);
         ("generator", Json.String "memory-tagging-sim bench/main.exe");
         ("quick", Json.Bool o.quick);
         ("figures",
          Json.Obj
            (List.map (fun (p, out) -> (p.name, Json.List out.rows)) (in_slot "figures")));
       ]
      @ List.map
          (fun key -> (key, slot key))
          [ "spurious"; "headline"; "latency"; "store"; "contention"; "timeseries" ])
  in
  Json.to_file file doc;
  Printf.printf "\nWrote benchmark JSON to %s\n" file

let usage_error fmt =
  Printf.ksprintf (fun s -> prerr_endline ("bench: " ^ s); exit 2) fmt

let () =
  let rec parse ~json ~jobs words = function
    | "--json" :: file :: rest -> parse ~json:(Some file) ~jobs words rest
    | "--jobs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n >= 0 -> parse ~json ~jobs:n words rest
        | _ -> usage_error "--jobs requires a non-negative integer")
    | [ ("--json" | "--jobs") as flag ] ->
        usage_error "%s requires an argument" flag
    | w :: rest -> parse ~json ~jobs (w :: words) rest
    | [] -> (json, jobs, List.rev words)
  in
  let json_file, jobs, words =
    parse ~json:None ~jobs:0 [] (List.tl (Array.to_list Sys.argv))
  in
  let quick = List.mem "quick" words in
  let words = List.filter (fun w -> w <> "quick") words in
  let selects w p = w = p.name || List.mem w p.aliases in
  (match List.filter (fun w -> not (List.exists (selects w) panels)) words with
  | [] -> ()
  | bad ->
      usage_error "unknown panel %s; valid words: %s quick"
        (String.concat ", " bad)
        (String.concat " " (List.concat_map (fun p -> p.name :: p.aliases) panels)));
  let o = { quick; jobs = (if jobs > 0 then jobs else Pool.default_jobs ()) } in
  let selected =
    List.filter (fun p -> words = [] || List.exists (fun w -> selects w p) words) panels
  in
  let t0 = Unix.gettimeofday () in
  let ran =
    List.fold_left
      (fun ran p ->
        let earlier = List.map (fun (p, out) -> (p.name, out)) ran in
        ran @ [ (p, p.run o earlier) ])
      [] selected
  in
  Option.iter (export_json o ran) json_file;
  Printf.printf "\nTotal bench wall time: %.1f s\n" (Unix.gettimeofday () -. t0)
