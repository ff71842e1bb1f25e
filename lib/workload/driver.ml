open Mt_sim
open Mt_core
module Obs = Mt_obs.Obs
module Hist = Mt_obs.Hist
module Json = Mt_obs.Json

type result = {
  impl : string;
  spec : Spec.t;
  ops : int;
  duration : int;
  throughput : float;
  l1_miss_rate : float;
  energy : float;
  energy_per_op : float;
  latency : Hist.t;
  stats : Stats.t;
}

let run_custom ?cfg ?(obs = Obs.null) ?make_policy ?series ?cm ~name ~setup
    ~op (spec : Spec.t) =
  let cfg =
    match cfg with Some c -> c | None -> Config.default ~num_cores:spec.threads ()
  in
  if cfg.Config.num_cores < spec.threads then
    invalid_arg "Driver: machine has fewer cores than spec threads";
  let m = Machine.create ~obs cfg in
  let state = Harness.exec1 m ~seed:spec.seed (fun ctx -> setup ctx) in
  let counts = Array.make spec.threads 0 in
  let latency = Hist.create () in
  let phase ?policy ?series ~seed ~horizon ~record () =
    Harness.exec m ~seed ?policy ?series ?cm ~threads:spec.threads (fun ctx ->
        let core = Ctx.core ctx in
        let ops = ref 0 in
        while Ctx.now ctx < horizon do
          let t0 = Ctx.now ctx in
          if Obs.enabled obs then
            Obs.emit obs ~core ~time:t0 (Obs.Span_begin { name });
          op ctx state;
          let t1 = Ctx.now ctx in
          if Obs.enabled obs then
            Obs.emit obs ~core ~time:t1 (Obs.Span_end { name });
          if record then Hist.add latency (t1 - t0);
          incr ops
        done;
        if record then counts.(core) <- !ops)
  in
  let (_ : int) =
    phase ~seed:(spec.seed + 17) ~horizon:spec.warmup_cycles ~record:false ()
  in
  Machine.reset_stats m;
  (* The series and a custom policy (fault injection) drive the measured
     phase only: window 0 excludes warmup, and one-shot squeeze pulses
     must not be consumed by warmup. *)
  let policy = Option.map (fun f -> f m) make_policy in
  let duration =
    phase ?policy ?series ~seed:(spec.seed + 31) ~horizon:spec.measure_cycles
      ~record:true ()
  in
  let stats = Machine.total_stats m in
  let ops = Array.fold_left ( + ) 0 counts in
  let energy = Stats.energy cfg stats ~cycles:(duration * spec.threads) in
  {
    impl = name;
    spec;
    ops;
    duration;
    throughput = (if duration = 0 then 0.0 else 1000.0 *. float_of_int ops /. float_of_int duration);
    l1_miss_rate = Stats.l1_miss_rate stats;
    energy;
    energy_per_op = (if ops = 0 then 0.0 else energy /. float_of_int ops);
    latency;
    stats;
  }

let run_set ?cfg ?obs ?make_policy ?series ?cm
    (module S : Mt_list.Set_intf.SET) (spec : Spec.t) =
  let setup ctx =
    Mt_list.Set_intf.prefilled (module S) ctx ~seed:(spec.seed + 1)
      ~key_range:spec.key_range ~fill:spec.init_fill
  in
  let op ctx s =
    let g = Ctx.prng ctx in
    let k = Prng.int g spec.key_range in
    let r = Prng.int g 100 in
    if r < spec.insert_pct then ignore (S.insert ctx s k)
    else if r < spec.insert_pct + spec.delete_pct then ignore (S.delete ctx s k)
    else ignore (S.contains ctx s k)
  in
  run_custom ?cfg ?obs ?make_policy ?series ?cm ~name:S.name ~setup ~op spec

let pp_result ppf r =
  let s = r.stats in
  Format.fprintf ppf
    "%-14s %-22s ops %7d  thr %8.2f/kcyc  L1miss %5.2f%%  E/op %8.1f  lat p50/p99 %d/%d  \
     aborts: vfail %d (real %d, spurious %d) casfail %d"
    r.impl (Spec.to_string r.spec) r.ops r.throughput (100.0 *. r.l1_miss_rate)
    r.energy_per_op
    (Hist.percentile r.latency 50.0)
    (Hist.percentile r.latency 99.0)
    s.Stats.validate_failures
    (s.Stats.validate_failures - s.Stats.validate_failures_spurious)
    s.Stats.validate_failures_spurious s.Stats.cas_failures

(* Stable machine-readable form: one benchmark point. Field set and order
   are part of the BENCH_*.json schema — extend, don't reorder. *)
let result_to_json r =
  let s = r.stats in
  Json.Obj
    [
      ("impl", Json.String r.impl);
      ("workload", Json.String (Spec.to_string r.spec));
      ("threads", Json.Int r.spec.Spec.threads);
      ("key_range", Json.Int r.spec.Spec.key_range);
      ("seed", Json.Int r.spec.Spec.seed);
      (* Fully self-describing spec: everything needed to replay the point. *)
      ("spec",
       Json.Obj
         [
           ("key_range", Json.Int r.spec.Spec.key_range);
           ("init_fill", Json.Float r.spec.Spec.init_fill);
           ("insert_pct", Json.Int r.spec.Spec.insert_pct);
           ("delete_pct", Json.Int r.spec.Spec.delete_pct);
           ("threads", Json.Int r.spec.Spec.threads);
           ("warmup_cycles", Json.Int r.spec.Spec.warmup_cycles);
           ("measure_cycles", Json.Int r.spec.Spec.measure_cycles);
           ("seed", Json.Int r.spec.Spec.seed);
         ]);
      ("ops", Json.Int r.ops);
      ("duration_cycles", Json.Int r.duration);
      ("throughput_per_kcycle", Json.Float r.throughput);
      ("l1_miss_rate", Json.Float r.l1_miss_rate);
      ("energy", Json.Float r.energy);
      ("energy_per_op", Json.Float r.energy_per_op);
      ("latency_cycles", Hist.to_json r.latency);
      ("aborts",
       Json.Obj
         [
           ("validates", Json.Int s.Stats.validates);
           ("validate_failures", Json.Int s.Stats.validate_failures);
           ("validate_failures_real",
            Json.Int (s.Stats.validate_failures - s.Stats.validate_failures_spurious));
           ("validate_failures_spurious", Json.Int s.Stats.validate_failures_spurious);
           ("cas_failures", Json.Int s.Stats.cas_failures);
           ("vas_failures", Json.Int s.Stats.vas_failures);
           ("ias_failures", Json.Int s.Stats.ias_failures);
           ("tag_overflows", Json.Int s.Stats.tag_overflows);
         ]);
      ("counters",
       Json.Obj
         [
           ("loads", Json.Int s.Stats.loads);
           ("stores", Json.Int s.Stats.stores);
           ("cas_ops", Json.Int s.Stats.cas_ops);
           ("vas_ops", Json.Int s.Stats.vas_ops);
           ("ias_ops", Json.Int s.Stats.ias_ops);
           ("l1_hits", Json.Int s.Stats.l1_hits);
           ("l1_misses", Json.Int s.Stats.l1_misses);
           ("l2_hits", Json.Int s.Stats.l2_hits);
           ("l2_misses", Json.Int s.Stats.l2_misses);
           ("invalidations_sent", Json.Int s.Stats.invalidations_sent);
           ("invalidations_received", Json.Int s.Stats.invalidations_received);
           ("downgrades_received", Json.Int s.Stats.downgrades_received);
           ("writebacks", Json.Int s.Stats.writebacks);
           ("coherence_msgs", Json.Int s.Stats.coherence_msgs);
           ("tag_adds", Json.Int s.Stats.tag_adds);
           ("tag_removes", Json.Int s.Stats.tag_removes);
         ]);
    ]
