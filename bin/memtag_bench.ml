(* CLI front-end: run a single set benchmark with explicit parameters.
   The full figure-reproduction harness lives in bench/main.ml; this binary
   is for ad-hoc exploration (one data point, one implementation). *)

open Cmdliner

module Catalog = Mt_workload.Catalog
module Obs = Mt_obs.Obs
module Trace = Mt_obs.Trace
module Json = Mt_obs.Json
module Serve = Mt_serve.Server

(* "trace.json" -> "trace.hoh.json" when several impls each get a file. *)
let trace_file_for ~multi file name =
  if not multi then file
  else
    match Filename.chop_suffix_opt ~suffix:".json" file with
    | Some stem -> Printf.sprintf "%s.%s.json" stem name
    | None -> Printf.sprintf "%s.%s" file name

(* One benchmark point of either mode: [tag] suffixes its trace file,
   [title] heads its hot-line report, [row] prints its result row(s). *)
type point = {
  tag : string;
  title : string;
  row : unit -> unit;
  obs : Obs.t;
  json : Json.t;
}

(* The one emission path of both modes: per point its row, trace file and
   hot lines, then one JSON document listing every point under [key]. *)
let emit ~key ~json_file ~trace_file ~hot points =
  let multi = List.length points > 1 in
  List.iter
    (fun p ->
      p.row ();
      Option.iter
        (fun file ->
          let file = trace_file_for ~multi file p.tag in
          Trace.write_file p.obs file;
          Printf.printf "Wrote event trace (%d events, %d dropped) to %s\n"
            (List.length (Obs.events p.obs))
            (Obs.dropped p.obs) file)
        trace_file;
      if hot > 0 then begin
        if multi then Format.printf "hot lines [%s]:@." p.title;
        Format.printf "%a@." (Trace.pp_hot_lines ~top:hot) p.obs
      end)
    points;
  Option.iter
    (fun file ->
      let doc =
        Json.Obj
          [
            ("schema_version", Json.Int 5);
            ("generator", Json.String "memory-tagging-sim bin/memtag_bench.exe");
            (key,
             Json.List
               (List.map
                  (fun p ->
                    Json.Obj
                      [
                        ("events_dropped", Json.Int (Obs.dropped p.obs));
                        ("result", p.json);
                      ])
                  points));
          ]
      in
      Json.to_file file doc;
      Printf.printf "Wrote benchmark JSON to %s\n" file)
    json_file

(* One recording sink per benchmark point: points are independent
   simulations (possibly on different domains), so tracing stays
   per-run. Off (Null) unless requested. *)
let sink ~tracing ~num_cores =
  if tracing then Obs.create ~num_cores () else Obs.null

(* Open-loop service mode (--rate): impls x offered rates, each point an
   independent Serve.run_set simulation. Shares --range/--insert/--delete/
   --seed with the closed-loop mode; --cycles becomes the arrival horizon. *)
let serve chosen rates ~key_range ~insert_pct ~delete_pct ~horizon ~seed
    ~workers ~batch ~qcap ~jobs ~tracing =
  let points =
    List.concat_map (fun rate -> List.map (fun im -> (im, rate)) chosen) rates
  in
  Mt_par.Pool.map ~jobs
    (fun ((name, m), rate) ->
      let obs = sink ~tracing ~num_cores:(workers + 1) in
      let config =
        Serve.config ~batch ~queue_capacity:qcap ~horizon ~seed
          ~workers ~rate_per_kcycle:rate ()
      in
      let r = Serve.run_set ~obs ~insert_pct ~delete_pct m ~key_range config in
      {
        tag = Printf.sprintf "%s-r%g" name rate;
        title = Printf.sprintf "%s r=%g" name rate;
        row = (fun () -> Format.printf "%a@." Serve.pp_result r);
        obs;
        json = Serve.result_to_json r;
      })
    points

(* Closed-loop mode: one Driver.run_set point per impl. *)
let closed chosen ~threads ~key_range ~insert_pct ~delete_pct ~measure ~seed
    ~verbose ~jobs ~tracing =
  let spec =
    Mt_workload.Spec.make ~key_range ~insert_pct ~delete_pct ~threads
      ~measure_cycles:measure ~seed ()
  in
  Mt_par.Pool.map ~jobs
    (fun (name, m) ->
      let obs = sink ~tracing ~num_cores:threads in
      let r = Mt_workload.Driver.run_set ~obs m spec in
      {
        tag = name;
        title = name;
        row =
          (fun () ->
            Format.printf "%a@." Mt_workload.Driver.pp_result r;
            if verbose then
              Format.printf "  %a@." Mt_sim.Stats.pp r.Mt_workload.Driver.stats);
        obs;
        json = Mt_workload.Driver.result_to_json r;
      })
    chosen

(* An invalid flag value exits 2 with the flag named, before any point
   runs, instead of escaping as an exception from inside a run. *)
let reject fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "memtag_bench: %s\n" msg;
      exit 2)
    fmt

let validate ~threads ~key_range ~insert_pct ~delete_pct ~measure ~rates
    ~workers ~batch ~qcap =
  if key_range <= 0 then reject "--range must be positive (got %d)" key_range;
  if insert_pct < 0 || delete_pct < 0 || insert_pct + delete_pct > 100 then
    reject "--insert and --delete must be non-negative and sum to at most 100 \
            (got %d and %d)" insert_pct delete_pct;
  if measure < 1 then reject "--cycles must be positive (got %d)" measure;
  if rates = [] then begin
    if threads < 1 || threads > 64 then
      reject "--threads must be in 1..64 (got %d)" threads
  end
  else begin
    List.iter
      (fun r -> if not (r > 0.0) then reject "--rate must be positive (got %g)" r)
      rates;
    if workers < 1 || workers > 63 then
      reject "--workers must be in 1..63 (got %d)" workers;
    if batch < 1 then reject "--batch must be positive (got %d)" batch;
    if qcap < 1 then reject "--qcap must be positive (got %d)" qcap
  end

let run impl_names threads key_range insert_pct delete_pct measure seed all verbose
    json_file trace_file hot jobs rates workers batch qcap =
  validate ~threads ~key_range ~insert_pct ~delete_pct ~measure ~rates ~workers
    ~batch ~qcap;
  let jobs = if jobs > 0 then jobs else Mt_par.Pool.default_jobs () in
  let chosen =
    if all then List.map (fun (e : Catalog.entry) -> (e.name, e.set)) Catalog.runnable
    else
      List.map
        (fun n ->
          match Catalog.find Catalog.runnable n with
          | Some e -> (n, e.set)
          | None ->
              reject "unknown implementation %S (known: %s)" n
                (Catalog.known Catalog.runnable))
        impl_names
  in
  let tracing = trace_file <> None || hot > 0 in
  let key, points =
    if rates <> [] then
      ( "serve_results",
        serve chosen rates ~key_range ~insert_pct ~delete_pct ~horizon:measure
          ~seed ~workers ~batch ~qcap ~jobs ~tracing )
    else
      ( "results",
        closed chosen ~threads ~key_range ~insert_pct ~delete_pct ~measure ~seed
          ~verbose ~jobs ~tracing )
  in
  emit ~key ~json_file ~trace_file ~hot points

let () =
  let impl =
    Arg.(value & opt_all string [ "hoh" ]
         & info [ "i"; "impl" ]
             ~doc:("Implementation (" ^ Catalog.known Catalog.runnable ^ "); repeatable."))
  in
  let all = Arg.(value & flag & info [ "a"; "all" ] ~doc:"Run every non-canary implementation.") in
  let threads = Arg.(value & opt int 8 & info [ "t"; "threads" ] ~doc:"Thread count.") in
  let range = Arg.(value & opt int 1024 & info [ "r"; "range" ] ~doc:"Key range.") in
  let ins = Arg.(value & opt int 35 & info [ "insert" ] ~doc:"Insert percentage.") in
  let del = Arg.(value & opt int 35 & info [ "delete" ] ~doc:"Delete percentage.") in
  let measure =
    Arg.(value & opt int 150_000 & info [ "cycles" ] ~doc:"Measured simulated cycles.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.") in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print full counters.") in
  let json_file =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Write the results as machine-readable JSON to $(docv).")
  in
  let trace_file =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Record all simulator events and write a Chrome/Perfetto \
                   trace-event JSON file to $(docv). Each implementation is \
                   traced into its own sink; with several implementations \
                   the files are suffixed with the implementation name \
                   (trace.json -> trace.hoh.json).")
  in
  let hot =
    Arg.(value & opt int 0
         & info [ "hot" ] ~docv:"N"
             ~doc:"Record events and print the $(docv) most contended cache \
                   lines (invalidation/downgrade counts with owning structure).")
  in
  let jobs =
    Arg.(value & opt int 0
         & info [ "j"; "jobs" ]
             ~doc:"Run the chosen implementations on $(docv) OCaml domains \
                   (each point is an independent simulation; results and \
                   JSON are byte-identical to a sequential run). 0 (the \
                   default) uses Domain.recommended_domain_count; 1 \
                   disables parallelism.")
  in
  let rates =
    Arg.(value & opt_all float []
         & info [ "rate" ] ~docv:"R"
             ~doc:"Offered load in requests per 1000 simulated cycles; \
                   repeatable. Any $(docv) switches to the open-loop service \
                   mode: seeded Poisson arrivals offer requests to the \
                   structure through one bounded queue that drops on full, \
                   reporting goodput, drop rate and end-to-end latency tails \
                   instead of closed-loop throughput. $(b,--cycles) is the \
                   arrival horizon; $(b,--threads) is ignored in favour of \
                   $(b,--workers).")
  in
  let workers =
    Arg.(value & opt int 4
         & info [ "workers" ] ~doc:"Service mode: worker fibers.")
  in
  let batch =
    Arg.(value & opt int 1
         & info [ "batch" ]
             ~doc:"Service mode: max requests dequeued per dispatch.")
  in
  let qcap =
    Arg.(value & opt int 64
         & info [ "qcap" ] ~doc:"Service mode: queue capacity.")
  in
  let cmd =
    Cmd.v
      (Cmd.info "memtag_bench" ~doc:"Run one MemTags set benchmark data point")
      Term.(const run $ impl $ threads $ range $ ins $ del $ measure $ seed $ all
            $ verbose $ json_file $ trace_file $ hot $ jobs $ rates $ workers
            $ batch $ qcap)
  in
  exit (Cmd.eval cmd)
