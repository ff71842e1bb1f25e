type t = {
  mutable loads : int;
  mutable stores : int;
  mutable cas_ops : int;
  mutable cas_failures : int;
  mutable vas_ops : int;
  mutable vas_failures : int;
  mutable ias_ops : int;
  mutable ias_failures : int;
  mutable l1_hits : int;
  mutable l1_misses : int;
  mutable l2_hits : int;
  mutable l2_misses : int;
  mutable invalidations_sent : int;
  mutable invalidations_received : int;
  mutable tag_probes_sent : int;
  mutable tag_probes_received : int;
  mutable downgrades_received : int;
  mutable writebacks : int;
  mutable coherence_msgs : int;
  mutable tag_adds : int;
  mutable tag_removes : int;
  mutable validates : int;
  mutable validate_failures : int;
  mutable validate_failures_spurious : int;
  mutable tag_overflows : int;
  mutable busy_cycles : int;
  mutable cm_waits : int;
  mutable cm_wait_cycles : int;
}

let create () =
  {
    loads = 0;
    stores = 0;
    cas_ops = 0;
    cas_failures = 0;
    vas_ops = 0;
    vas_failures = 0;
    ias_ops = 0;
    ias_failures = 0;
    l1_hits = 0;
    l1_misses = 0;
    l2_hits = 0;
    l2_misses = 0;
    invalidations_sent = 0;
    invalidations_received = 0;
    tag_probes_sent = 0;
    tag_probes_received = 0;
    downgrades_received = 0;
    writebacks = 0;
    coherence_msgs = 0;
    tag_adds = 0;
    tag_removes = 0;
    validates = 0;
    validate_failures = 0;
    validate_failures_spurious = 0;
    tag_overflows = 0;
    busy_cycles = 0;
    cm_waits = 0;
    cm_wait_cycles = 0;
  }

let reset t =
  t.loads <- 0;
  t.stores <- 0;
  t.cas_ops <- 0;
  t.cas_failures <- 0;
  t.vas_ops <- 0;
  t.vas_failures <- 0;
  t.ias_ops <- 0;
  t.ias_failures <- 0;
  t.l1_hits <- 0;
  t.l1_misses <- 0;
  t.l2_hits <- 0;
  t.l2_misses <- 0;
  t.invalidations_sent <- 0;
  t.invalidations_received <- 0;
  t.tag_probes_sent <- 0;
  t.tag_probes_received <- 0;
  t.downgrades_received <- 0;
  t.writebacks <- 0;
  t.coherence_msgs <- 0;
  t.tag_adds <- 0;
  t.tag_removes <- 0;
  t.validates <- 0;
  t.validate_failures <- 0;
  t.validate_failures_spurious <- 0;
  t.tag_overflows <- 0;
  t.busy_cycles <- 0;
  t.cm_waits <- 0;
  t.cm_wait_cycles <- 0

let add acc t =
  acc.loads <- acc.loads + t.loads;
  acc.stores <- acc.stores + t.stores;
  acc.cas_ops <- acc.cas_ops + t.cas_ops;
  acc.cas_failures <- acc.cas_failures + t.cas_failures;
  acc.vas_ops <- acc.vas_ops + t.vas_ops;
  acc.vas_failures <- acc.vas_failures + t.vas_failures;
  acc.ias_ops <- acc.ias_ops + t.ias_ops;
  acc.ias_failures <- acc.ias_failures + t.ias_failures;
  acc.l1_hits <- acc.l1_hits + t.l1_hits;
  acc.l1_misses <- acc.l1_misses + t.l1_misses;
  acc.l2_hits <- acc.l2_hits + t.l2_hits;
  acc.l2_misses <- acc.l2_misses + t.l2_misses;
  acc.invalidations_sent <- acc.invalidations_sent + t.invalidations_sent;
  acc.invalidations_received <- acc.invalidations_received + t.invalidations_received;
  acc.tag_probes_sent <- acc.tag_probes_sent + t.tag_probes_sent;
  acc.tag_probes_received <- acc.tag_probes_received + t.tag_probes_received;
  acc.downgrades_received <- acc.downgrades_received + t.downgrades_received;
  acc.writebacks <- acc.writebacks + t.writebacks;
  acc.coherence_msgs <- acc.coherence_msgs + t.coherence_msgs;
  acc.tag_adds <- acc.tag_adds + t.tag_adds;
  acc.tag_removes <- acc.tag_removes + t.tag_removes;
  acc.validates <- acc.validates + t.validates;
  acc.validate_failures <- acc.validate_failures + t.validate_failures;
  acc.validate_failures_spurious <-
    acc.validate_failures_spurious + t.validate_failures_spurious;
  acc.tag_overflows <- acc.tag_overflows + t.tag_overflows;
  acc.busy_cycles <- acc.busy_cycles + t.busy_cycles;
  acc.cm_waits <- acc.cm_waits + t.cm_waits;
  acc.cm_wait_cycles <- acc.cm_wait_cycles + t.cm_wait_cycles

let sum ts =
  let acc = create () in
  Array.iter (fun t -> add acc t) ts;
  acc

let heat t =
  t.validate_failures + t.cas_failures + t.vas_failures + t.ias_failures
  + t.invalidations_received

(* The counters the windowed telemetry layer snapshots at window
   boundaries. *)
let series_counters t =
  Mt_obs.Series.counters (function
    | Validate_real -> t.validate_failures - t.validate_failures_spurious
    | Validate_spurious -> t.validate_failures_spurious
    | Vas_fail -> t.vas_failures
    | Ias_fail -> t.ias_failures
    | Tag_adds -> t.tag_adds
    | Tag_removes -> t.tag_removes
    | Tag_overflows -> t.tag_overflows
    | L1_hits -> t.l1_hits
    | L1_misses -> t.l1_misses
    | Coherence_msgs -> t.coherence_msgs
    | Invalidations -> t.invalidations_received
    | Writebacks -> t.writebacks
    | Heat -> heat t
    | Cm_waits -> t.cm_waits
    | Cm_wait_cycles -> t.cm_wait_cycles)

let l1_accesses t = t.l1_hits + t.l1_misses

let l1_miss_rate t =
  let total = l1_accesses t in
  if total = 0 then 0.0 else float_of_int t.l1_misses /. float_of_int total

let energy (cfg : Config.t) t ~cycles =
  let f = float_of_int in
  (cfg.energy_l1 *. f (l1_accesses t))
  +. (cfg.energy_l2 *. f (t.l2_hits + t.l2_misses))
  +. (cfg.energy_dir *. f t.l2_misses)
  +. (cfg.energy_msg *. f (t.coherence_msgs + t.invalidations_sent + t.writebacks))
  +. (cfg.energy_static_per_cycle *. f cycles)

let pp ppf t =
  Format.fprintf ppf
    "@[<v>loads %d  stores %d  cas %d (fail %d)  vas %d (fail %d)  ias %d (fail %d)@,\
     L1 %d/%d (miss %.2f%%)  L2 hits %d  dir %d@,\
     inval sent %d recv %d  downgrades %d  wb %d  msgs %d@,\
     tags + %d - %d  validates %d (fail %d, spurious %d)  overflows %d@]"
    t.loads t.stores t.cas_ops t.cas_failures t.vas_ops t.vas_failures t.ias_ops
    t.ias_failures t.l1_hits (l1_accesses t)
    (100.0 *. l1_miss_rate t)
    t.l2_hits t.l2_misses t.invalidations_sent t.invalidations_received
    t.downgrades_received t.writebacks t.coherence_msgs t.tag_adds t.tag_removes
    t.validates t.validate_failures t.validate_failures_spurious t.tag_overflows
