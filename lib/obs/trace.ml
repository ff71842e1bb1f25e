(* Chrome trace-event JSON exporter (Perfetto-loadable).

   One process (pid 0) for the simulated machine, one track (tid) per
   simulated core. Simulated cycles map 1:1 onto the format's microsecond
   timestamps. Span_begin/Span_end become duration ("B"/"E") events; every
   other kind becomes an instant ("i") — thread-scoped, except adversary
   Fault marks which are global so a squeeze pulse draws a full-height
   line across every track. Service-layer request events additionally
   emit Perfetto flow events (ph "s"/"t"/"f", cat "req", id = request id)
   so one request's causal chain — arrive, enqueue, dequeue, commit, or
   arrive, drop — renders as connected arrows across cores. The output
   is a pure function of the recorded event stream, so identical runs
   export byte-identical traces. *)

let meta_events ~num_cores =
  Json.Obj
    [
      ("name", Json.String "process_name");
      ("ph", Json.String "M");
      ("pid", Json.Int 0);
      ("args", Json.Obj [ ("name", Json.String "memtags-sim") ]);
    ]
  :: List.init num_cores (fun core ->
         Json.Obj
           [
             ("name", Json.String "thread_name");
             ("ph", Json.String "M");
             ("pid", Json.Int 0);
             ("tid", Json.Int core);
             ("args",
              Json.Obj [ ("name", Json.String (Printf.sprintf "core %d" core)) ]);
           ])

(* The flow phase of a request event: "s" starts the flow at arrival,
   "t" threads it through the enqueue and dequeue, "f" finishes it at the
   terminal commit or drop. *)
let flow_phase = function
  | Obs.Req_arrive _ -> Some "s"
  | Obs.Req_enqueue _ | Obs.Req_dequeue _ -> Some "t"
  | Obs.Req_commit _ | Obs.Req_drop _ -> Some "f"
  | _ -> None

let flow_json (e : Obs.event) =
  match (flow_phase e.kind, Obs.req_id e.kind) with
  | Some ph, Some id ->
      let base =
        [
          ("name", Json.String "req");
          ("cat", Json.String "req");
          ("ph", Json.String ph);
          ("ts", Json.Int e.time);
          ("pid", Json.Int 0);
          ("tid", Json.Int e.core);
          ("id", Json.Int id);
        ]
      in
      (* bp:"e" binds the finish to the enclosing slice's end, not the
         next slice — required for terminal steps. *)
      let bp = if ph = "f" then [ ("bp", Json.String "e") ] else [] in
      [ Json.Obj (base @ bp) ]
  | _ -> []

let event_json obs (e : Obs.event) =
  let ph =
    match e.kind with
    | Obs.Span_begin _ -> "B"
    | Obs.Span_end _ -> "E"
    | _ -> "i"
  in
  let base =
    [
      ("name", Json.String (Obs.kind_name e.kind));
      ("ph", Json.String ph);
      ("ts", Json.Int e.time);
      ("pid", Json.Int 0);
      ("tid", Json.Int e.core);
    ]
  in
  let scope =
    if ph = "i" then
      let s = match e.kind with Obs.Fault _ -> "g" | _ -> "t" in
      [ ("s", Json.String s) ]
    else []
  in
  let args =
    match Obs.kind_args obs e.kind with
    | [] -> []
    | args -> [ ("args", Json.Obj args) ]
  in
  Json.Obj (base @ scope @ args) :: flow_json e

let to_json ?(num_cores = 0) obs =
  let events = Obs.events obs in
  let num_cores =
    List.fold_left (fun acc (e : Obs.event) -> max acc (e.core + 1)) num_cores events
  in
  Json.Obj
    [
      ("traceEvents",
       Json.List
         (meta_events ~num_cores @ List.concat_map (event_json obs) events));
      ("displayTimeUnit", Json.String "ns");
      ("otherData",
       Json.Obj
         [
           ("generator", Json.String "memtags-sim");
           ("dropped_events", Json.Int (Obs.dropped obs));
           ("dropped_per_core",
            Json.List
              (Array.to_list
                 (Array.map (fun d -> Json.Int d) (Obs.dropped_per_core obs))));
         ]);
    ]

let to_string ?num_cores obs = Json.to_string (to_json ?num_cores obs)

let write_file ?num_cores obs path = Json.to_file path (to_json ?num_cores obs)

(* ------------------------------------------------------------------ *)
(* Hot-line contention report. *)

let hot_lines_json ?top obs =
  Json.List
    (List.map
       (fun (h : Obs.hot_line) ->
         Json.Obj
           [
             ("line", Json.Int h.hl_line);
             ("invalidations", Json.Int h.hl_invals);
             ("downgrades", Json.Int h.hl_downgrades);
             ("owner",
              match h.hl_label with
              | Some l -> Json.String l
              | None -> Json.Null);
           ])
       (Obs.hot_lines ?top obs))

let pp_hot_lines ?(top = 10) ppf obs =
  match Obs.hot_lines ~top obs with
  | [] -> Format.fprintf ppf "hot lines: none recorded@."
  | hot ->
      Format.fprintf ppf "@[<v>hot lines (top %d by invalidations+downgrades):@," top;
      Format.fprintf ppf "%-10s %8s %10s  %s@," "line" "invals" "downgrades" "owner";
      List.iter
        (fun (h : Obs.hot_line) ->
          Format.fprintf ppf "0x%-8x %8d %10d  %s@," h.hl_line h.hl_invals
            h.hl_downgrades
            (Option.value h.hl_label ~default:"?"))
        hot;
      Format.fprintf ppf "@]"
