(* Windowed time-series telemetry: folds the Obs event stream (via an Obs
   tap) plus machine-counter snapshots taken as that stream crosses each
   window boundary into fixed-width sim-clock windows.

   Determinism contract: everything here is a pure function of the fed
   events and snapshots, which are themselves pure functions of the run's
   program and seed. A series never reads the rings — it consumes the
   live emission stream — so its output is byte-identical whether the
   sink retains a trace or not, and for any --jobs value (one series per
   point, like one sink per point). *)

(* Cumulative machine counters, snapshotted at window boundaries. The
   consumer (Mt_sim.Stats) converts its own counter record into this
   shape; [heat] is the adversary's contention temperature (failed
   validations + failed primitives + inbound invalidations). *)
type counters = {
  c_l1_hits : int;
  c_l1_misses : int;
  c_coherence_msgs : int;
  c_invalidations : int;
  c_writebacks : int;
  c_tag_overflows : int;
  c_heat : int;
}

let zero_counters =
  {
    c_l1_hits = 0;
    c_l1_misses = 0;
    c_coherence_msgs = 0;
    c_invalidations = 0;
    c_writebacks = 0;
    c_tag_overflows = 0;
    c_heat = 0;
  }

let sub_counters a b =
  {
    c_l1_hits = a.c_l1_hits - b.c_l1_hits;
    c_l1_misses = a.c_l1_misses - b.c_l1_misses;
    c_coherence_msgs = a.c_coherence_msgs - b.c_coherence_msgs;
    c_invalidations = a.c_invalidations - b.c_invalidations;
    c_writebacks = a.c_writebacks - b.c_writebacks;
    c_tag_overflows = a.c_tag_overflows - b.c_tag_overflows;
    c_heat = a.c_heat - b.c_heat;
  }

let add_counters a b =
  {
    c_l1_hits = a.c_l1_hits + b.c_l1_hits;
    c_l1_misses = a.c_l1_misses + b.c_l1_misses;
    c_coherence_msgs = a.c_coherence_msgs + b.c_coherence_msgs;
    c_invalidations = a.c_invalidations + b.c_invalidations;
    c_writebacks = a.c_writebacks + b.c_writebacks;
    c_tag_overflows = a.c_tag_overflows + b.c_tag_overflows;
    c_heat = a.c_heat + b.c_heat;
  }

type window = {
  w_t0 : int;
  mutable w_ops : int;
  mutable w_validate_real : int;
  mutable w_validate_spurious : int;
  mutable w_vas_fail : int;
  mutable w_ias_fail : int;
  mutable w_stm_aborts : int;
  mutable w_tag_adds : int;
  mutable w_tag_removes : int;
  mutable w_tag_evict_capacity : int;
  mutable w_tag_evict_conflict : int;
  mutable w_tag_occupancy_end : int;
  mutable w_occ_seen : bool;  (* did any tag event land in this window? *)
  mutable w_enqueues : int;
  mutable w_dequeues : int;
  mutable w_drops : int;
  mutable w_commits : int;
  mutable w_max_depth : int;
  mutable w_store_ops : int;
  mutable w_txn_commits : int;
  mutable w_scan_ok : int;
  mutable w_scan_fail : int;
  mutable w_snap_attempts : int;
  mutable w_snap_invalid : int;
  mutable w_cm_waits : int;  (* contention-policy waits (Cm_wait events) *)
  mutable w_cm_wait_cycles : int;
  w_shard_ops : (int, int) Hashtbl.t;  (* shard -> routed ops (Store_op) *)
  w_lat : Hist.t;
  mutable w_snap : counters;  (* counter delta attributed to this window *)
}

let fresh_window t0 =
  {
    w_t0 = t0;
    w_ops = 0;
    w_validate_real = 0;
    w_validate_spurious = 0;
    w_vas_fail = 0;
    w_ias_fail = 0;
    w_stm_aborts = 0;
    w_tag_adds = 0;
    w_tag_removes = 0;
    w_tag_evict_capacity = 0;
    w_tag_evict_conflict = 0;
    w_tag_occupancy_end = 0;
    w_occ_seen = false;
    w_enqueues = 0;
    w_dequeues = 0;
    w_drops = 0;
    w_commits = 0;
    w_max_depth = 0;
    w_store_ops = 0;
    w_txn_commits = 0;
    w_scan_ok = 0;
    w_scan_fail = 0;
    w_snap_attempts = 0;
    w_snap_invalid = 0;
    w_cm_waits = 0;
    w_cm_wait_cycles = 0;
    w_shard_ops = Hashtbl.create 8;
    w_lat = Hist.create ();
    w_snap = zero_counters;
  }

type t = {
  window : int;
  mutable windows : window array;  (* dense, index i covers [i*w, (i+1)*w) *)
  mutable n : int;  (* 1 + highest window index touched *)
  mutable occ : int;  (* running live-tag count across all cores *)
  mutable marks : (int * string) list;  (* reversed; from Fault events *)
  mutable last : counters;  (* cumulative counters at the last snapshot *)
  mutable read : unit -> counters;  (* the attached phase's counters *)
  mutable next_boundary : int;  (* max_int until attached *)
  open_spans : (int, int) Hashtbl.t;  (* core -> open Span_begin time *)
}

let default_window = 5_000

let create ?(window = default_window) () =
  if window <= 0 then invalid_arg "Series.create: window";
  {
    window;
    windows = [||];
    n = 0;
    occ = 0;
    marks = [];
    last = zero_counters;
    read = (fun () -> zero_counters);
    next_boundary = max_int;
    open_spans = Hashtbl.create 16;
  }

(* The dense window array grows on demand; every slot up to the highest
   index touched exists (quiet windows stay all-zero). *)
let win t idx =
  let idx = max idx 0 in
  let cap = Array.length t.windows in
  if idx >= cap then begin
    let cap' = max (idx + 1) (max 8 (2 * cap)) in
    let a = Array.init cap' (fun i ->
        if i < cap then t.windows.(i) else fresh_window (i * t.window))
    in
    t.windows <- a
  end;
  if idx >= t.n then t.n <- idx + 1;
  t.windows.(idx)

let touch_occ t (w : window) =
  w.w_tag_occupancy_end <- t.occ;
  w.w_occ_seen <- true

(* A snapshot at time T closes the counter delta since the previous
   snapshot into the window containing cycle T-1: at a boundary
   (T = k*w) that is window k-1; [finish] snapshots once more at the
   final clock, attributing the tail delta to the last (possibly
   partial) window. Deltas accumulate, so a final clock landing exactly
   on a boundary double-snapshots harmlessly (the second delta is
   zero). *)
let snapshot t ~time =
  if time > 0 then begin
    let c = t.read () in
    let w = win t ((time - 1) / t.window) in
    w.w_snap <- add_counters w.w_snap (sub_counters c t.last);
    t.last <- c
  end

let attach t read =
  t.read <- read;
  t.last <- read ();
  t.next_boundary <- t.window

(* Close every boundary at or before [time], in boundary order. A
   recording sink emits [Fiber_resume] at each new clock before any
   other event at that time, so the first event at or past a boundary
   arrives exactly when the clock reaches it, before anything at that
   time has run. *)
let cross t time =
  while t.next_boundary <= time do
    snapshot t ~time:t.next_boundary;
    t.next_boundary <- t.next_boundary + t.window
  done

let feed t (e : Obs.event) =
  if e.time >= t.next_boundary then cross t e.time;
  let w = win t (e.time / t.window) in
  match e.kind with
  | Obs.Span_begin _ -> Hashtbl.replace t.open_spans e.core e.time
  | Obs.Span_end _ -> (
      match Hashtbl.find_opt t.open_spans e.core with
      | Some t0 ->
          Hashtbl.remove t.open_spans e.core;
          (* The op is attributed to the window it completes in. *)
          w.w_ops <- w.w_ops + 1;
          Hist.add w.w_lat (e.time - t0)
      | None -> ())
  | Obs.Validate { ok = false; spurious } ->
      if spurious then w.w_validate_spurious <- w.w_validate_spurious + 1
      else w.w_validate_real <- w.w_validate_real + 1
  | Obs.Vas { ok = false } -> w.w_vas_fail <- w.w_vas_fail + 1
  | Obs.Ias { ok = false } -> w.w_ias_fail <- w.w_ias_fail + 1
  | Obs.Stm_abort _ -> w.w_stm_aborts <- w.w_stm_aborts + 1
  | Obs.Tag_add _ ->
      w.w_tag_adds <- w.w_tag_adds + 1;
      t.occ <- t.occ + 1;
      touch_occ t w
  | Obs.Tag_remove _ ->
      w.w_tag_removes <- w.w_tag_removes + 1;
      t.occ <- max 0 (t.occ - 1);
      touch_occ t w
  | Obs.Tag_evict { conflict; _ } ->
      if conflict then w.w_tag_evict_conflict <- w.w_tag_evict_conflict + 1
      else w.w_tag_evict_capacity <- w.w_tag_evict_capacity + 1;
      t.occ <- max 0 (t.occ - 1);
      touch_occ t w
  | Obs.Tag_clear { count } ->
      t.occ <- max 0 (t.occ - count);
      touch_occ t w
  | Obs.Req_enqueue { depth; _ } ->
      w.w_enqueues <- w.w_enqueues + 1;
      if depth > w.w_max_depth then w.w_max_depth <- depth
  | Obs.Req_dequeue _ -> w.w_dequeues <- w.w_dequeues + 1
  | Obs.Req_drop _ -> w.w_drops <- w.w_drops + 1
  | Obs.Req_commit _ -> w.w_commits <- w.w_commits + 1
  | Obs.Store_op { shard } ->
      w.w_store_ops <- w.w_store_ops + 1;
      Hashtbl.replace w.w_shard_ops shard
        (1 + Option.value ~default:0 (Hashtbl.find_opt w.w_shard_ops shard))
  | Obs.Txn_commit _ -> w.w_txn_commits <- w.w_txn_commits + 1
  | Obs.Scan_validate { ok; _ } ->
      if ok then w.w_scan_ok <- w.w_scan_ok + 1
      else w.w_scan_fail <- w.w_scan_fail + 1
  | Obs.Snap_attempt _ -> w.w_snap_attempts <- w.w_snap_attempts + 1
  | Obs.Snap_invalid _ -> w.w_snap_invalid <- w.w_snap_invalid + 1
  | Obs.Cm_wait { cycles; _ } ->
      w.w_cm_waits <- w.w_cm_waits + 1;
      w.w_cm_wait_cycles <- w.w_cm_wait_cycles + cycles
  | Obs.Fault { label } -> t.marks <- (e.time, label) :: t.marks
  | _ -> ()

let finish t ~time =
  cross t time;
  snapshot t ~time:(max time 1);
  t.next_boundary <- max_int

let marks t = List.rev t.marks

let windows t = Array.sub t.windows 0 t.n

let latency_summary t =
  let h = Hist.create () in
  for i = 0 to t.n - 1 do
    Hist.merge ~into:h t.windows.(i).w_lat
  done;
  h

(* Carry tag occupancy forward through quiet windows so the series reads
   as a level, not a spike train. *)
let occupancy_series t =
  let occ = ref 0 in
  Array.map
    (fun w ->
      if w.w_occ_seen then occ := w.w_tag_occupancy_end;
      !occ)
    (windows t)

let window_to_json t occ_end (w : window) =
  let miss_rate =
    let total = w.w_snap.c_l1_hits + w.w_snap.c_l1_misses in
    if total = 0 then 0.0
    else float_of_int w.w_snap.c_l1_misses /. float_of_int total
  in
  Json.Obj
    [
      ("t0", Json.Int w.w_t0);
      ("t1", Json.Int (w.w_t0 + t.window));
      ("ops", Json.Int w.w_ops);
      ( "aborts",
        Json.Obj
          [
            ("validate_real", Json.Int w.w_validate_real);
            ("validate_spurious", Json.Int w.w_validate_spurious);
            ("vas", Json.Int w.w_vas_fail);
            ("ias", Json.Int w.w_ias_fail);
            ("stm", Json.Int w.w_stm_aborts);
          ] );
      ( "tags",
        Json.Obj
          [
            ("adds", Json.Int w.w_tag_adds);
            ("removes", Json.Int w.w_tag_removes);
            ("evict_capacity", Json.Int w.w_tag_evict_capacity);
            ("evict_conflict", Json.Int w.w_tag_evict_conflict);
            ("occupancy_end", Json.Int occ_end);
            ("overflows", Json.Int w.w_snap.c_tag_overflows);
          ] );
      ( "mem",
        Json.Obj
          [
            ("l1_hits", Json.Int w.w_snap.c_l1_hits);
            ("l1_misses", Json.Int w.w_snap.c_l1_misses);
            ("l1_miss_rate", Json.Float miss_rate);
            ("coherence_msgs", Json.Int w.w_snap.c_coherence_msgs);
            ("invalidations", Json.Int w.w_snap.c_invalidations);
            ("writebacks", Json.Int w.w_snap.c_writebacks);
          ] );
      ("heat", Json.Int w.w_snap.c_heat);
      ( "serve",
        Json.Obj
          [
            ("enqueues", Json.Int w.w_enqueues);
            ("dequeues", Json.Int w.w_dequeues);
            ("drops", Json.Int w.w_drops);
            ("commits", Json.Int w.w_commits);
            ("max_depth", Json.Int w.w_max_depth);
          ] );
      ( "store",
        (* Per-shard counts render sorted by shard id (hash-table order is
           not part of the determinism contract); imbalance is the hottest
           shard's share normalized so uniform = 1.0. *)
        let shards =
          List.sort compare
            (Hashtbl.fold (fun sh n acc -> (sh, n) :: acc) w.w_shard_ops [])
        in
        let hottest =
          List.fold_left (fun a (_, n) -> max a n) 0 shards
        in
        let imbalance =
          if w.w_store_ops = 0 || shards = [] then 1.0
          else
            float_of_int (hottest * List.length shards)
            /. float_of_int w.w_store_ops
        in
        Json.Obj
          [
            ("ops", Json.Int w.w_store_ops);
            ("txn_commits", Json.Int w.w_txn_commits);
            ("scan_validate_ok", Json.Int w.w_scan_ok);
            ("scan_validate_fail", Json.Int w.w_scan_fail);
            ("snap_attempts", Json.Int w.w_snap_attempts);
            ("snap_invalid", Json.Int w.w_snap_invalid);
            ( "shard_ops",
              Json.List
                (List.map
                   (fun (sh, n) ->
                     Json.Obj
                       [ ("shard", Json.Int sh); ("ops", Json.Int n) ])
                   shards) );
            ("imbalance", Json.Float imbalance);
          ] );
      ( "cm",
        Json.Obj
          [
            ("waits", Json.Int w.w_cm_waits);
            ("wait_cycles", Json.Int w.w_cm_wait_cycles);
          ] );
      ("latency", Hist.to_json w.w_lat);
    ]

let to_json t =
  let occ = occupancy_series t in
  Json.Obj
    [
      ("window_cycles", Json.Int t.window);
      ("n_windows", Json.Int t.n);
      ( "marks",
        Json.List
          (List.map
             (fun (time, label) ->
               Json.Obj [ ("t", Json.Int time); ("label", Json.String label) ])
             (marks t)) );
      ( "windows",
        Json.List
          (Array.to_list
             (Array.mapi (fun i w -> window_to_json t occ.(i) w) (windows t)))
      );
      ("latency_summary", Hist.to_json (latency_summary t));
    ]
