(* Windowed time-series telemetry: folds the Obs event stream (via an Obs
   tap) plus machine-counter snapshots taken as that stream crosses each
   window boundary into fixed-width sim-clock windows.

   Determinism contract: everything here is a pure function of the fed
   events and snapshots, which are themselves pure functions of the run's
   program and seed. A series never reads the rings — it consumes the
   live emission stream — so its output is byte-identical whether the
   sink retains a trace or not, and for any --jobs value (one series per
   point, like one sink per point). *)

type counter =
  | Validate_real
  | Validate_spurious
  | Vas_fail
  | Ias_fail
  | Tag_adds
  | Tag_removes
  | Tag_overflows
  | L1_hits
  | L1_misses
  | Coherence_msgs
  | Invalidations
  | Writebacks
  | Heat
  | Cm_waits
  | Cm_wait_cycles

type tally =
  | Ops
  | Stm_aborts
  | Evict_capacity
  | Evict_conflict
  | Occupancy
  | Enqueues
  | Dequeues
  | Drops
  | Commits
  | Max_depth
  | Store_ops
  | Txn_commits
  | Scan_ok
  | Scan_fail

type field = Counter of counter | Tally of tally

(* One member of a window's JSON: a field, or a value derived from the
   window's index, fields, per-shard op counts or latency histogram. *)
type cell =
  | Field of field
  | T0
  | T1
  | L1_miss_rate
  | Shard_ops
  | Imbalance
  | Latency

(* The field table: every member of a window's JSON by group ("" for a
   top-level member) and key, in the order [to_json] writes them. *)
let table =
  [
    ("", [ ("t0", T0); ("t1", T1); ("ops", Field (Tally Ops)) ]);
    ( "aborts",
      [
        ("validate_real", Field (Counter Validate_real));
        ("validate_spurious", Field (Counter Validate_spurious));
        ("vas", Field (Counter Vas_fail));
        ("ias", Field (Counter Ias_fail));
        ("stm", Field (Tally Stm_aborts));
      ] );
    ( "tags",
      [
        ("adds", Field (Counter Tag_adds));
        ("removes", Field (Counter Tag_removes));
        ("evict_capacity", Field (Tally Evict_capacity));
        ("evict_conflict", Field (Tally Evict_conflict));
        ("occupancy_end", Field (Tally Occupancy));
        ("overflows", Field (Counter Tag_overflows));
      ] );
    ( "mem",
      [
        ("l1_hits", Field (Counter L1_hits));
        ("l1_misses", Field (Counter L1_misses));
        ("l1_miss_rate", L1_miss_rate);
        ("coherence_msgs", Field (Counter Coherence_msgs));
        ("invalidations", Field (Counter Invalidations));
        ("writebacks", Field (Counter Writebacks));
      ] );
    ("", [ ("heat", Field (Counter Heat)) ]);
    ( "serve",
      [
        ("enqueues", Field (Tally Enqueues));
        ("dequeues", Field (Tally Dequeues));
        ("drops", Field (Tally Drops));
        ("commits", Field (Tally Commits));
        ("max_depth", Field (Tally Max_depth));
      ] );
    ( "store",
      [
        ("ops", Field (Tally Store_ops));
        ("txn_commits", Field (Tally Txn_commits));
        ("scan_validate_ok", Field (Tally Scan_ok));
        ("scan_validate_fail", Field (Tally Scan_fail));
        ("shard_ops", Shard_ops);
        ("imbalance", Imbalance);
      ] );
    ( "cm",
      [
        ("waits", Field (Counter Cm_waits));
        ("wait_cycles", Field (Counter Cm_wait_cycles));
      ] );
    ("", [ ("latency", Latency) ]);
  ]

let keys =
  List.concat_map
    (fun (group, cells) -> List.map (fun (key, _) -> (group, key)) cells)
    table

(* A window's fields in table order; [slot f] is [f]'s index in a
   window's array and in a counter snapshot. *)
let fields =
  Array.of_list
    (List.concat_map
       (fun (_, cells) ->
         List.filter_map (function _, Field f -> Some f | _ -> None) cells)
       table)

let slot f =
  let rec find i = if fields.(i) = f then i else find (i + 1) in
  find 0

(* The slots [feed] and [render] use by name, resolved once here so that
   folding an event does no lookup. *)
let ops = slot (Tally Ops)
and stm_aborts = slot (Tally Stm_aborts)
and evict_capacity = slot (Tally Evict_capacity)
and evict_conflict = slot (Tally Evict_conflict)
and occupancy = slot (Tally Occupancy)
and enqueues = slot (Tally Enqueues)
and dequeues = slot (Tally Dequeues)
and drops = slot (Tally Drops)
and commits = slot (Tally Commits)
and max_depth = slot (Tally Max_depth)
and store_ops = slot (Tally Store_ops)
and txn_commits = slot (Tally Txn_commits)
and scan_ok = slot (Tally Scan_ok)
and scan_fail = slot (Tally Scan_fail)
and l1_hits = slot (Counter L1_hits)
and l1_misses = slot (Counter L1_misses)

(* A snapshot is as wide as a window and zero at every tally, so a
   window's counter delta is one loop over the whole array. *)
type counters = int array

let counters read =
  Array.map (function Counter c -> read c | Tally _ -> 0) fields

type window = {
  counts : int array;  (* indexed by [slot] *)
  shard_ops : (int, int) Hashtbl.t;  (* shard -> routed ops (Store_op) *)
  lat : Hist.t;
}

let fresh_window () =
  {
    counts = Array.make (Array.length fields) 0;
    shard_ops = Hashtbl.create 8;
    lat = Hist.create ();
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
  let zero = counters (fun _ -> 0) in
  {
    window;
    windows = [||];
    n = 0;
    occ = 0;
    marks = [];
    last = zero;
    read = (fun () -> zero);
    next_boundary = max_int;
    open_spans = Hashtbl.create 16;
  }

(* The dense window array grows on demand; every slot up to the highest
   index touched exists (quiet windows stay all-zero). Events arrive in
   time order, so a window first touched opens at the tag occupancy the
   windows before it closed with, and a quiet window carries it. *)
let win t idx =
  let idx = max idx 0 in
  let cap = Array.length t.windows in
  if idx >= cap then begin
    let cap' = max (idx + 1) (max 8 (2 * cap)) in
    t.windows <-
      Array.init cap' (fun i ->
          if i < cap then t.windows.(i) else fresh_window ())
  end;
  for i = t.n to idx do
    t.windows.(i).counts.(occupancy) <- t.occ
  done;
  if idx >= t.n then t.n <- idx + 1;
  t.windows.(idx)

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
    let w = (win t ((time - 1) / t.window)).counts in
    Array.iteri (fun i v -> w.(i) <- w.(i) + v - t.last.(i)) c;
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

let bump w i = w.counts.(i) <- w.counts.(i) + 1

let occupy t w level =
  t.occ <- max 0 level;
  w.counts.(occupancy) <- t.occ

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
          bump w ops;
          Hist.add w.lat (e.time - t0)
      | None -> ())
  | Obs.Stm_abort _ -> bump w stm_aborts
  | Obs.Tag_add _ -> occupy t w (t.occ + 1)
  | Obs.Tag_remove _ -> occupy t w (t.occ - 1)
  | Obs.Tag_evict { conflict; _ } ->
      bump w (if conflict then evict_conflict else evict_capacity);
      occupy t w (t.occ - 1)
  | Obs.Tag_clear { count } -> occupy t w (t.occ - count)
  | Obs.Req_enqueue { depth; _ } ->
      bump w enqueues;
      w.counts.(max_depth) <- max w.counts.(max_depth) depth
  | Obs.Req_dequeue _ -> bump w dequeues
  | Obs.Req_drop _ -> bump w drops
  | Obs.Req_commit _ -> bump w commits
  | Obs.Store_op { shard } ->
      bump w store_ops;
      Hashtbl.replace w.shard_ops shard
        (1 + Option.value ~default:0 (Hashtbl.find_opt w.shard_ops shard))
  | Obs.Txn_commit _ -> bump w txn_commits
  | Obs.Scan_validate { ok; _ } -> bump w (if ok then scan_ok else scan_fail)
  | Obs.Fault { label } -> t.marks <- (e.time, label) :: t.marks
  | _ -> ()

let finish t ~time =
  cross t time;
  snapshot t ~time:(max time 1);
  t.next_boundary <- max_int

let marks t = List.rev t.marks

let n_windows t = t.n

let get t i f =
  if i < 0 || i >= t.n then invalid_arg "Series.get: window";
  t.windows.(i).counts.(slot f)

let latency_summary t =
  let h = Hist.create () in
  for i = 0 to t.n - 1 do
    Hist.merge ~into:h t.windows.(i).lat
  done;
  h

(* [render cell t i w shards] writes [cell] for window [i] ([w], whose
   per-shard op counts are [shards]). A field's slot is resolved when
   [render] is applied to its cell, once per cell in [layout], so writing
   a window does no lookup. Imbalance is the hottest shard's share
   normalized so uniform = 1.0. *)
let render = function
  | Field f ->
      let s = slot f in
      fun _ _ w _ -> Json.Int w.counts.(s)
  | T0 -> fun t i _ _ -> Json.Int (i * t.window)
  | T1 -> fun t i _ _ -> Json.Int ((i + 1) * t.window)
  | L1_miss_rate ->
      fun _ _ w _ ->
        let misses = w.counts.(l1_misses) in
        let total = w.counts.(l1_hits) + misses in
        Json.Float
          (if total = 0 then 0.0 else float_of_int misses /. float_of_int total)
  | Shard_ops ->
      fun _ _ _ shards ->
        Json.List
          (List.map
             (fun (sh, n) ->
               Json.Obj [ ("shard", Json.Int sh); ("ops", Json.Int n) ])
             shards)
  | Imbalance ->
      fun _ _ w shards ->
        let ops = w.counts.(store_ops) in
        let hottest = List.fold_left (fun a (_, n) -> max a n) 0 shards in
        Json.Float
          (if ops = 0 || shards = [] then 1.0
           else float_of_int (hottest * List.length shards) /. float_of_int ops)
  | Latency -> fun _ _ w _ -> Hist.to_json w.lat

let layout =
  List.map
    (fun (group, cells) ->
      (group, List.map (fun (key, cell) -> (key, render cell)) cells))
    table

let window_to_json t i =
  let w = t.windows.(i) in
  (* Per-shard counts render sorted by shard id (hash-table order is not
     part of the determinism contract). *)
  let shards =
    List.sort compare
      (Hashtbl.fold (fun sh n acc -> (sh, n) :: acc) w.shard_ops [])
  in
  Json.Obj
    (List.concat_map
       (fun (group, cells) ->
         let members =
           List.map (fun (key, write) -> (key, write t i w shards)) cells
         in
         if group = "" then members else [ (group, Json.Obj members) ])
       layout)

let to_json t =
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
      ("windows", Json.List (List.init t.n (window_to_json t)));
      ("latency_summary", Hist.to_json (latency_summary t));
    ]
