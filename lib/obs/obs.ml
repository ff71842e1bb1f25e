(* The observability sink. A [t] is either the null sink — [enabled] is
   false and every hook site in the simulator guards its event construction
   behind that check, so tracing off costs one load and one branch per hook
   and allocates nothing — or a recording sink with one bounded event ring
   per simulated core (only when it retains events) plus an unbounded
   per-line contention aggregate and allocation-label map.

   Determinism: events are stamped with the simulated clock by the caller
   and with a global sequence number by [emit]; the runtime is
   single-threaded, so the sequence order is the exact emission order and
   is a pure function of the program and its seed. No wall time anywhere. *)

type kind =
  | L1_miss of { line : int }
  | L2_miss of { line : int }
  | Inval_sent of { line : int; victim : int }
  | Inval_received of { line : int }
  | Downgrade of { line : int; victim : int }
  | Writeback of { line : int }
  | Tag_add of { line : int }
  | Tag_remove of { line : int }
  | Tag_evict of { line : int; conflict : bool }
  | Tag_clear of { count : int }
  | Validate of { ok : bool; spurious : bool }
  | Vas of { ok : bool }
  | Ias of { ok : bool }
  | Stm_abort of { impl : string; reason : string }
  | Stm_demote
  | Kcas_help of { addr : int }
  | Fiber_stall of { cycles : int }
  | Fiber_resume
  | Span_begin of { name : string }
  | Span_end of { name : string }
  | Req_arrive of { id : int }
  | Req_enqueue of { id : int; depth : int }
  | Req_dequeue of { id : int; wait : int }
  | Req_drop of { id : int }
  | Req_commit of { id : int }
  | Batch of { size : int }
  | Fault of { label : string }
  | Store_op of { shard : int }
  | Txn_commit of { shards : int; cycles : int }
  | Scan_validate of { shard : int; ok : bool }
  | Snap_attempt of { cells : int }
  | Snap_invalid of { cells : int }
  | Cm_wait of { site : int; cycles : int; attempt : int }

type event = { seq : int; time : int; core : int; kind : kind }

(* One bounded ring per core: fixed capacity, overwrites the oldest. *)
type ring = {
  buf : event option array;
  mutable next : int;  (* total pushes; next slot = next mod capacity *)
}

(* Allocation labels as an append-only run-length map (DESIGN §12). Run
   [i] covers lines [starts.(i)] up to the next run's start (the last run
   up to [frontier] - 1) and carries [names.(i)], [None] for an unlabelled
   gap. Ranges arrive in ascending order of [line_lo] — the simulated bump
   allocator hands out ascending lines — so every line between the newest
   range's [line_lo] and [frontier] is already labelled and only the part
   at or past [frontier] is new. *)
type labels = {
  mutable starts : int array;
  mutable names : string option array;
  mutable runs : int;
  mutable frontier : int;  (* one past the last labelled line *)
  mutable last_lo : int;  (* [line_lo] of the newest range *)
}

type recording = {
  rings : ring array;  (* one per core when [retain], else empty *)
  mutable seq : int;
  dropped : int array;  (* per core *)
  retain : bool;
  mutable tap : (event -> unit) option;
  hot : Chunk_table.t;  (* packed hot-line counts, see [inval_bits] *)
  labels : labels;
}

type t = Null | Recording of recording

let null = Null

let default_ring_capacity = 1 lsl 16

let create ?(ring_capacity = default_ring_capacity) ?(retain = true)
    ~num_cores () =
  if ring_capacity <= 0 then invalid_arg "Obs.create: ring_capacity";
  if num_cores <= 0 then invalid_arg "Obs.create: num_cores";
  Recording
    {
      rings =
        (if retain then
           Array.init num_cores (fun _ ->
               { buf = Array.make ring_capacity None; next = 0 })
         else [||]);
      seq = 0;
      dropped = Array.make num_cores 0;
      retain;
      tap = None;
      hot = Chunk_table.create ~chunk_log2:13;
      labels =
        {
          starts = [||];
          names = [||];
          runs = 0;
          frontier = 0;
          last_lo = min_int;
        };
    }

let enabled = function Null -> false | Recording _ -> true

let num_cores = function Null -> 0 | Recording r -> Array.length r.dropped

let set_tap t tap =
  match t with Null -> () | Recording r -> r.tap <- tap

(* Hot-line counts: one packed word per line in a [Chunk_table] of 8,192
   lines per chunk, invalidations in the low 31 bits and downgrades above
   them. A line's word is non-zero exactly when it has been counted. *)
let inval_bits = 31
let downgrade_one = 1 lsl inval_bits
let invals w = w land (downgrade_one - 1)
let downgrades w = w lsr inval_bits

let emit t ~core ~time kind =
  match t with
  | Null -> ()
  | Recording r ->
      (match kind with
      | Inval_sent { line; _ } -> Chunk_table.add r.hot line 1
      | Downgrade { line; _ } -> Chunk_table.add r.hot line downgrade_one
      | _ -> ());
      let seq = r.seq in
      r.seq <- seq + 1;
      (* The record is built only when something reads it. *)
      if r.retain || Option.is_some r.tap then begin
        let e = { seq; time; core; kind } in
        (match r.tap with Some f -> f e | None -> ());
        if r.retain then begin
          let ring = r.rings.(core) in
          let cap = Array.length ring.buf in
          if ring.next >= cap then r.dropped.(core) <- r.dropped.(core) + 1;
          ring.buf.(ring.next mod cap) <- Some e;
          ring.next <- ring.next + 1
        end
      end

let dropped = function
  | Null -> 0
  | Recording r -> Array.fold_left ( + ) 0 r.dropped

let dropped_per_core = function
  | Null -> [||]
  | Recording r -> Array.copy r.dropped

(* Oldest-to-newest contents of one ring. *)
let ring_events ring =
  let cap = Array.length ring.buf in
  let n = min ring.next cap in
  let first = ring.next - n in
  List.filter_map
    (fun i -> ring.buf.((first + i) mod cap))
    (List.init n (fun i -> i))

(* All recorded events, in global emission order. *)
let events = function
  | Null -> []
  | Recording r ->
      Array.to_list r.rings
      |> List.concat_map ring_events
      |> List.sort (fun (a : event) (b : event) -> compare a.seq b.seq)

let push_run l start name =
  if l.runs = Array.length l.starts then begin
    let cap = max 16 (2 * l.runs) in
    let starts = Array.make cap 0 and names = Array.make cap None in
    Array.blit l.starts 0 starts 0 l.runs;
    Array.blit l.names 0 names 0 l.runs;
    l.starts <- starts;
    l.names <- names
  end;
  l.starts.(l.runs) <- start;
  l.names.(l.runs) <- name;
  l.runs <- l.runs + 1

let label_lines t ~line_lo ~line_hi label =
  match t with
  | Null -> ()
  | Recording { labels = l; _ } when line_lo <= line_hi ->
      if line_lo < 0 then invalid_arg "Obs.label_lines: negative line";
      if line_lo < l.last_lo then
        invalid_arg "Obs.label_lines: ranges must ascend by line_lo";
      l.last_lo <- line_lo;
      (* First label wins: lines below [frontier] keep theirs. *)
      let lo = max line_lo l.frontier in
      if lo <= line_hi then begin
        (* A contiguous range with the previous run's label extends it. *)
        let extends =
          lo = l.frontier && l.runs > 0 && l.names.(l.runs - 1) = Some label
        in
        if lo > l.frontier && l.runs > 0 then push_run l l.frontier None;
        if not extends then push_run l lo (Some label);
        l.frontier <- line_hi + 1
      end
  | Recording _ -> ()

let label_of t line =
  match t with
  | Null -> None
  | Recording { labels = l; _ } ->
      if l.runs = 0 || line < l.starts.(0) || line >= l.frontier then None
      else begin
        (* The last run starting at or below [line]: starts.(lo) <= line
           < starts.(hi). *)
        let lo = ref 0 and hi = ref l.runs in
        while !hi - !lo > 1 do
          let mid = (!lo + !hi) / 2 in
          if l.starts.(mid) <= line then lo := mid else hi := mid
        done;
        l.names.(!lo)
      end

type hot_line = {
  hl_line : int;
  hl_invals : int;
  hl_downgrades : int;
  hl_label : string option;
}

let hot_lines ?(top = 10) t =
  match t with
  | Null -> []
  | Recording r ->
      let all = ref [] in
      Chunk_table.iter r.hot (fun line w -> all := (line, w) :: !all);
      let count w = invals w + downgrades w in
      List.sort
        (fun (la, wa) (lb, wb) ->
          let ca = count wa and cb = count wb in
          if ca <> cb then compare cb ca else compare la lb)
        !all
      |> List.filteri (fun i _ -> i < top)
      |> List.map (fun (line, w) ->
             {
               hl_line = line;
               hl_invals = invals w;
               hl_downgrades = downgrades w;
               hl_label = label_of t line;
             })

(* ------------------------------------------------------------------ *)
(* Event names and structured arguments (shared by the trace exporter
   and any textual dump). *)

let kind_name = function
  | L1_miss _ -> "l1-miss"
  | L2_miss _ -> "l2-miss"
  | Inval_sent _ -> "inval-sent"
  | Inval_received _ -> "inval-received"
  | Downgrade _ -> "downgrade"
  | Writeback _ -> "writeback"
  | Tag_add _ -> "tag-add"
  | Tag_remove _ -> "tag-remove"
  | Tag_evict { conflict = true; _ } -> "tag-evict-conflict"
  | Tag_evict { conflict = false; _ } -> "tag-evict-capacity"
  | Tag_clear _ -> "tag-clear"
  | Validate { ok = true; _ } -> "validate-ok"
  | Validate { ok = false; spurious = false } -> "validate-fail"
  | Validate { ok = false; spurious = true } -> "validate-fail-spurious"
  | Vas { ok = true } -> "vas-ok"
  | Vas { ok = false } -> "vas-fail"
  | Ias { ok = true } -> "ias-ok"
  | Ias { ok = false } -> "ias-fail"
  | Stm_abort _ -> "stm-abort"
  | Stm_demote -> "stm-demote"
  | Kcas_help _ -> "kcas-help"
  | Fiber_stall _ -> "stall"
  | Fiber_resume -> "resume"
  | Span_begin { name } | Span_end { name } -> name
  | Req_arrive _ -> "req-arrive"
  | Req_enqueue _ -> "req-enqueue"
  | Req_dequeue _ -> "req-dequeue"
  | Req_drop _ -> "req-drop"
  | Req_commit _ -> "req-commit"
  | Batch _ -> "batch"
  | Fault _ -> "fault"
  | Store_op _ -> "store-op"
  | Txn_commit _ -> "txn-commit"
  | Scan_validate { ok = true; _ } -> "scan-validate-ok"
  | Scan_validate { ok = false; _ } -> "scan-validate-fail"
  | Snap_attempt _ -> "snap-attempt"
  | Snap_invalid _ -> "snap-invalid"
  | Cm_wait _ -> "cm-wait"

let kind_args t = function
  | L1_miss { line } | L2_miss { line } | Writeback { line }
  | Inval_received { line } | Tag_add { line } | Tag_remove { line } ->
      [ ("line", Json.Int line) ]
  | Tag_evict { line; conflict } ->
      [ ("line", Json.Int line); ("conflict", Json.Bool conflict) ]
  | Tag_clear { count } -> [ ("count", Json.Int count) ]
  | Inval_sent { line; victim } | Downgrade { line; victim } ->
      let base = [ ("line", Json.Int line); ("victim", Json.Int victim) ] in
      (match label_of t line with
      | Some l -> base @ [ ("owner", Json.String l) ]
      | None -> base)
  | Validate { ok; spurious } ->
      [ ("ok", Json.Bool ok); ("spurious", Json.Bool spurious) ]
  | Vas { ok } | Ias { ok } -> [ ("ok", Json.Bool ok) ]
  | Stm_abort { impl; reason } ->
      [ ("impl", Json.String impl); ("reason", Json.String reason) ]
  | Stm_demote -> []
  | Kcas_help { addr } -> [ ("addr", Json.Int addr) ]
  | Fiber_stall { cycles } -> [ ("cycles", Json.Int cycles) ]
  | Fiber_resume -> []
  | Span_begin _ | Span_end _ -> []
  | Req_arrive { id } | Req_drop { id } | Req_commit { id } ->
      [ ("id", Json.Int id) ]
  | Req_enqueue { id; depth } ->
      [ ("id", Json.Int id); ("depth", Json.Int depth) ]
  | Req_dequeue { id; wait } -> [ ("id", Json.Int id); ("wait", Json.Int wait) ]
  | Batch { size } -> [ ("size", Json.Int size) ]
  | Fault { label } -> [ ("label", Json.String label) ]
  | Store_op { shard } -> [ ("shard", Json.Int shard) ]
  | Txn_commit { shards; cycles } ->
      [ ("shards", Json.Int shards); ("cycles", Json.Int cycles) ]
  | Scan_validate { shard; ok } ->
      [ ("shard", Json.Int shard); ("ok", Json.Bool ok) ]
  | Snap_attempt { cells } | Snap_invalid { cells } ->
      [ ("cells", Json.Int cells) ]
  | Cm_wait { site; cycles; attempt } ->
      [ ("site", Json.Int site); ("cycles", Json.Int cycles);
        ("attempt", Json.Int attempt) ]

(* The request id an event participates in, if any — the thread that links
   one request's causal chain (arrive → enqueue → dequeue → commit, or
   arrive → drop) across cores in the trace exporter's flow events. *)
let req_id = function
  | Req_arrive { id }
  | Req_enqueue { id; _ }
  | Req_dequeue { id; _ }
  | Req_drop { id }
  | Req_commit { id } ->
      Some id
  | _ -> None
