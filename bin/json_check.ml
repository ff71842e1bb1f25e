(* Minimal JSON validator for CI: parses each file argument with the
   strict Mt_obs.Json parser and optionally asserts a few schema
   invariants.

   Usage:  json_check [--bench|--trace] FILE...

   --bench  additionally requires a top-level object with an integer
            "schema_version" field of at least 5 (older emitters must be
            regenerated, not re-validated) and checks, anywhere in the
            document:
            - no bare nulls: a skipped measurement is an explicit
              {"skipped": true, "reason": ...};
            - every benchmark point (an object with "impl" and "ops")
              carries a replayable "spec" object;
            - every service point (an object with "backend" and
              "goodput_per_kcycle") carries a "serve" configuration;
            - every store point (an object with "backend" and "mix")
              carries integer mix percentages summing to 100, a "result"
              object and a "store" counters object;
            - every contention point (an object with "policy" and
              "theta") carries a "result" object and a "cm" object with
              non-negative integer waits and wait_cycles;
            - every headline row (an object with "comparison") carries a
              numeric "measured_peak_speedup" or the skip marker;
            - every time-series object (an object with "windows") is a
              full Series export: window geometry, marks, a latency
              summary, and in every window each member of Series' field
              table (Mt_obs.Series.keys), by group and key.
   --trace  additionally requires a "traceEvents" array where every
            element has "ph", "ts" and "pid" fields (the Chrome
            trace-event contract Perfetto relies on). *)

module Json = Mt_obs.Json

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Every field a point's "spec" object must carry to be replayable. *)
let spec_fields =
  [
    "key_range"; "init_fill"; "insert_pct"; "delete_pct"; "threads";
    "warmup_cycles"; "measure_cycles"; "seed";
  ]

let serve_fields =
  [
    "workers"; "batch"; "queue_capacity"; "arrival"; "offered_per_kcycle";
    "horizon_cycles"; "seed";
  ]

let series_fields =
  [ "window_cycles"; "n_windows"; "marks"; "windows"; "latency_summary" ]

(* The counters object every sharded-store point must carry. *)
let store_stat_fields =
  [
    "point_ops"; "txn_commits"; "txn_sub_ops"; "txn_retries";
    "txn_retries_locked"; "txn_retries_version"; "txn_locked_cycles";
    "scans"; "scan_collects"; "scan_tag_fallbacks"; "scan_shard_retries";
    "shard_ops"; "imbalance";
  ]

(* Walk the whole document and apply every per-object check listed in
   the header comment. *)
let rec check_points path j =
  match j with
  | Json.Null -> fail "%s: bare null (a skip must be explicit)" path
  | Json.Obj fields ->
      begin
        match (Json.member "backend" j, Json.member "mix" j) with
        | Some (Json.String _), Some (Json.String _) ->
            (match
               ( Json.member "point_pct" j,
                 Json.member "txn_pct" j,
                 Json.member "scan_pct" j )
             with
            | Some (Json.Int p), Some (Json.Int t), Some (Json.Int s)
              when p + t + s = 100 ->
                ()
            | _ ->
                fail
                  "%s: store point mix percentages must be integers summing \
                   to 100"
                  path);
            (match Json.member "result" j with
            | Some (Json.Obj _) -> ()
            | _ -> fail "%s: store point lacks a \"result\" object" path);
            (match Json.member "store" j with
            | Some (Json.Obj _ as st) ->
                List.iter
                  (fun f ->
                    if Json.member f st = None then
                      fail "%s: store point counters lack %S" path f)
                  store_stat_fields
            | _ -> fail "%s: store point lacks a \"store\" counters object" path)
        | _ -> ()
      end;
      begin
        match (Json.member "policy" j, Json.member "theta" j) with
        | Some (Json.String _), Some (Json.Float _ | Json.Int _) ->
            (match Json.member "result" j with
            | Some (Json.Obj _) -> ()
            | _ -> fail "%s: contention point lacks a \"result\" object" path);
            (match Json.member "cm" j with
            | Some (Json.Obj _ as cm) ->
                List.iter
                  (fun f ->
                    match Json.member f cm with
                    | Some (Json.Int n) when n >= 0 -> ()
                    | _ ->
                        fail
                          "%s: contention point cm.%s must be a non-negative \
                           integer"
                          path f)
                  [ "waits"; "wait_cycles" ]
            | _ -> fail "%s: contention point lacks a \"cm\" object" path)
        | _ -> ()
      end;
      if Json.member "comparison" j <> None then begin
        match (Json.member "measured_peak_speedup" j, Json.member "skipped" j)
        with
        | Some (Json.Float _ | Json.Int _), _ -> ()
        | _, Some (Json.Bool true) ->
            if
              match Json.member "reason" j with
              | Some (Json.String _) -> true
              | _ -> false
            then ()
            else fail "%s: skipped headline row lacks a \"reason\"" path
        | _ ->
            fail
              "%s: headline row needs a numeric measured_peak_speedup or \
               skipped:true"
              path
      end;
      (match Json.member "windows" j with
      | Some (Json.List ws) ->
          List.iter
            (fun f ->
              if Json.member f j = None then
                fail "%s: time-series object lacks %S" path f)
            series_fields;
          (match Json.member "window_cycles" j with
          | Some (Json.Int w) when w > 0 -> ()
          | _ -> fail "%s: window_cycles must be a positive integer" path);
          List.iteri
            (fun i w ->
              List.iter
                (fun (group, key) ->
                  let scope =
                    if group = "" then Some w else Json.member group w
                  in
                  if Option.bind scope (Json.member key) = None then
                    fail "%s: windows[%d] lacks \"%s\"" path i
                      (if group = "" then key else group ^ "." ^ key))
                Mt_obs.Series.keys)
            ws
      | Some _ -> fail "%s: \"windows\" must be a list" path
      | None -> ());
      if Json.member "impl" j <> None && Json.member "ops" j <> None then begin
        match Json.member "spec" j with
        | Some (Json.Obj _ as spec) ->
            List.iter
              (fun f ->
                if Json.member f spec = None then
                  fail "%s: benchmark point spec lacks %S" path f)
              spec_fields
        | _ -> fail "%s: benchmark point lacks a \"spec\" object" path
      end;
      if
        Json.member "backend" j <> None
        && Json.member "goodput_per_kcycle" j <> None
      then begin
        match Json.member "serve" j with
        | Some (Json.Obj _ as serve) ->
            List.iter
              (fun f ->
                if Json.member f serve = None then
                  fail "%s: service point serve config lacks %S" path f)
              serve_fields
        | _ -> fail "%s: service point lacks a \"serve\" object" path
      end;
      List.iter (fun (_, v) -> check_points path v) fields
  | Json.List l -> List.iter (check_points path) l
  | _ -> ()

let check_bench path j =
  match Json.member "schema_version" j with
  | Some (Json.Int v) ->
      if v < 5 then
        fail
          "%s: schema_version %d rejected (v5 required — regenerate with a \
           current bench)"
          path v
      else check_points path j
  | _ -> fail "%s: missing integer schema_version" path

let check_trace path j =
  match Json.member "traceEvents" j with
  | Some (Json.List evs) ->
      List.iteri
        (fun i ev ->
          List.iter
            (fun field ->
              if Json.member field ev = None then
                fail "%s: traceEvents[%d] lacks %S" path i field)
            [ "ph"; "pid" ];
          (* Metadata records ("M") carry no timestamp; everything else
             must. *)
          match (Json.member "ph" ev, Json.member "ts" ev) with
          | Some (Json.String "M"), _ -> ()
          | _, Some _ -> ()
          | _, None -> fail "%s: traceEvents[%d] lacks \"ts\"" path i)
        evs
  | _ -> fail "%s: missing traceEvents array" path

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let mode, files =
    match args with
    | "--bench" :: rest -> (`Bench, rest)
    | "--trace" :: rest -> (`Trace, rest)
    | rest -> (`Any, rest)
  in
  if files = [] then fail "usage: json_check [--bench|--trace] FILE...";
  List.iter
    (fun path ->
      let j =
        try Json.of_string (read_file path) with
        | Json.Parse_error msg -> fail "%s: invalid JSON: %s" path msg
        | Sys_error e -> fail "%s" e
      in
      (match mode with
      | `Bench -> check_bench path j
      | `Trace -> check_trace path j
      | `Any -> ());
      Printf.printf "%s: OK\n" path)
    files
