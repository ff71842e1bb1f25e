(* Schedule-exploration fuzzer: sweep seeds x thread counts x structures,
   linearizability-checking every recorded history. Reports the first
   failing seed with its minimized (per-key) history window, replays it to
   prove determinism, and exits nonzero on violation.

   --adversary arms the fault injector (Mt_check.Inject): each seed
   additionally gets a seed-derived fault plan — mid-run Max_Tags squeeze
   pulses, straggler cores, Zipfian / flash-crowd key skew, shrunken cache
   geometry — with load-adaptive injection probabilities. --shrink
   delta-debugs any failure down to a minimal, still-failing, replayable
   configuration. --seed-start makes long sweeps resumable / shardable. *)

open Cmdliner
open Mt_check

module Catalog = Mt_workload.Catalog

(* An invalid flag value exits 2 with the flag named, before any seed
   runs, instead of escaping as an exception from inside a run. *)
let reject fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "memtag_fuzz: %s\n" msg;
      exit 2)
    fmt

let replay_command name (c : Shrink.config) =
  Printf.sprintf
    "memtag_fuzz -s %s -t %d --seed-start %d --seeds 1 --ops %d -r %d \
     --prefill %d --max-delay %d%s"
    name c.params.threads c.seed c.params.ops c.params.range c.params.prefill
    c.params.max_delay
    (if Inject.is_none c.spec then ""
     else Printf.sprintf " --spec '%s'" (Inject.to_string c.spec))

let write dir file s =
  Out_channel.with_open_text (Filename.concat dir file) (fun oc -> output_string oc s)

let violation_of (o : Explore.outcome) =
  match o.verdict with Error v -> v | Ok () -> assert false

(* Replay the failing run [o] of configuration [c] with tracing on and
   write what a debugging session needs into [dir]: the Perfetto event
   trace as [<prefix>trace.json], the full recorded history as
   [<prefix>history.txt], and each [(file, contents)] note. The traced
   replay doubles as the determinism check — neither tracing nor fault
   injection may perturb the schedule, so it must reproduce the history
   byte for byte and fail again. *)
let dump_run m dir ~prefix (c : Shrink.config) (o : Explore.outcome) notes =
  let threads = c.params.threads in
  let obs = Mt_obs.Obs.create ~num_cores:threads () in
  let replay = Explore.run ~obs ~spec:c.spec m ~params:c.params ~seed:c.seed in
  Mt_obs.Trace.write_file ~num_cores:threads obs
    (Filename.concat dir (prefix ^ "trace.json"));
  write dir (prefix ^ "history.txt") (History.to_string o.history);
  List.iter (fun (file, contents) -> write dir file contents) notes;
  History.to_string replay.history = History.to_string o.history
  && Result.is_error replay.verdict

(* On violation, dump the failure into fuzz-failure-<seed>/ (with the
   minimized per-key window the checker rejected and a repro line); with
   [shrink], delta-debug it to a minimal repro and dump that alongside. *)
let report_failure name m (o : Explore.outcome) params ~spec_of ~shrink =
  let violation = violation_of o in
  Format.printf "@.FAIL %s threads=%d seed=%d (%d events)@." name
    params.Explore.threads o.seed (Array.length o.history);
  Format.printf "%a@." Linearize.pp_violation violation;
  let dir = Printf.sprintf "fuzz-failure-%d" o.seed in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let failure = { Shrink.params; spec = spec_of o.seed; seed = o.seed } in
  let identical =
    dump_run m dir ~prefix:"" failure o
      [
        ( "minimized.txt",
          Format.asprintf "%a@.@.%s@." Linearize.pp_violation violation
            (History.to_string (Array.of_list violation.window)) );
        ( "repro.txt",
          Printf.sprintf
            "structure=%s threads=%d seed=%d ops=%d range=%d prefill=%d \
             max-delay=%d spec=%s\nreplay: %s\n"
            name params.threads o.seed params.ops params.range params.prefill
            params.max_delay (Inject.to_string failure.spec)
            (replay_command name failure) );
      ]
  in
  Format.printf "wrote %s/{trace.json,history.txt,minimized.txt,repro.txt}@." dir;
  Format.printf "replay of seed %d byte-identical: %b@." o.seed identical;
  let identical =
    if not shrink then identical
    else begin
      let shrunk = Shrink.shrink m failure in
      let c = shrunk.config in
      let minimal_identical =
        dump_run m dir ~prefix:"minimal-" c shrunk.outcome
          [
            ( "minimal.txt",
              Format.asprintf
                "minimal failing configuration (%d candidate runs):@.  %a@.@.\
                 started from:@.  %a@.@.replay: %s@.@.%a@."
                shrunk.runs Shrink.pp_config c Shrink.pp_config shrunk.initial
                (replay_command name c) Linearize.pp_violation
                (violation_of shrunk.outcome) );
          ]
      in
      Format.printf
        "shrunk to %a (%d events, %d candidate runs)@.wrote \
         %s/{minimal.txt,minimal-history.txt,minimal-trace.json}@.minimal repro \
         replays byte-identically: %b@."
        Shrink.pp_config c
        (Array.length shrunk.outcome.history)
        shrunk.runs dir minimal_identical;
      identical && minimal_identical
    end
  in
  if not identical then
    Format.printf "WARNING: determinism broken — fix the scheduler first@."

let run structures all seeds seed_start threads_list ops range prefill
    max_delay jobs adversary spec_str shrink verbose =
  List.iter
    (fun t ->
      if t < 1 || t > 64 then reject "--threads must be in 1..64 (got %d)" t)
    threads_list;
  if range <= 0 then reject "--range must be positive (got %d)" range;
  if max_delay < 0 then reject "--max-delay must be non-negative (got %d)" max_delay;
  if seeds < 0 then reject "--seeds must be non-negative (got %d)" seeds;
  let jobs = if jobs > 0 then jobs else Mt_par.Pool.default_jobs () in
  let pinned_spec =
    match spec_str with
    | None -> None
    | Some s -> (
        match Inject.of_string s with
        | Ok spec -> Some spec
        | Error msg ->
            Printf.eprintf "%s\n" msg;
            exit 2)
  in
  let spec_of seed =
    match pinned_spec with
    | Some spec -> spec
    | None ->
        if adversary then Inject.of_seed ~seed else Inject.none
  in
  let chosen =
    if all then List.map (fun (e : Catalog.entry) -> (e.name, e.fuzz)) Catalog.runnable
    else
      List.map
        (fun n ->
          match Catalog.find Catalog.all n with
          | Some e -> (n, e.fuzz)
          | None ->
              reject "unknown structure %S (known: %s)" n (Catalog.known Catalog.all))
        structures
  in
  let failed = ref false in
  List.iter
    (fun (name, m) ->
      List.iter
        (fun threads ->
          let params = { Explore.threads; ops; range; prefill; max_delay } in
          let t0 = Unix.gettimeofday () in
          let clean, failure =
            Explore.sweep ~jobs ~start:seed_start ~spec_of m ~params ~seeds
          in
          let dt = Unix.gettimeofday () -. t0 in
          let swept = match failure with None -> seeds | Some o -> o.seed - seed_start + 1 in
          (* Wall-clock throughput goes to stderr so stdout stays
             byte-identical across machines and --jobs values. *)
          Printf.eprintf "     %-12s threads=%d: %d seeds in %.2fs (%.0f seeds/s)\n%!"
            name threads swept dt
            (if dt > 0.0 then float_of_int swept /. dt else 0.0);
          (match failure with
          | None ->
              Format.printf
                "OK   %-12s threads=%d seeds=%d..%d ops=%dx%d range=%d%s: 0 violations@."
                name threads seed_start (seed_start + seeds - 1) threads ops range
                (if adversary || pinned_spec <> None then " [adversary]" else "")
          | Some o ->
              failed := true;
              report_failure name m o params ~spec_of ~shrink);
          if verbose && failure = None then
            Format.printf "     (last clean seed %d)@." (seed_start + clean - 1))
        threads_list)
    chosen;
  if !failed then exit 1

let () =
  let structure =
    Arg.(
      value
      & opt_all string [ "vas_list" ]
      & info [ "s"; "structure" ]
          ~doc:("Structure to fuzz (" ^ Catalog.known Catalog.all ^ "); repeatable."))
  in
  let all =
    Arg.(value & flag & info [ "a"; "all" ] ~doc:"Fuzz every non-canary structure.")
  in
  let seeds =
    Arg.(value & opt int 50 & info [ "seeds" ] ~doc:"Number of schedule seeds to explore.")
  in
  let seed_start =
    Arg.(
      value & opt int 0
      & info [ "seed-start" ]
          ~doc:
            "First seed of the sweep (seeds $(docv) .. $(docv)+seeds-1): \
             resume an interrupted sweep or shard a long one across CI jobs.")
  in
  let threads =
    Arg.(value & opt_all int [ 4 ] & info [ "t"; "threads" ] ~doc:"Thread count; repeatable.")
  in
  let ops =
    Arg.(value & opt int 50 & info [ "ops" ] ~doc:"Operations per thread.")
  in
  let range =
    Arg.(value & opt int 12 & info [ "r"; "range" ] ~doc:"Key range (keys drawn from [0, range)).")
  in
  let prefill =
    Arg.(value & opt int 4 & info [ "prefill" ] ~doc:"Random inserts before the measured run.")
  in
  let max_delay =
    Arg.(
      value & opt int 64
      & info [ "max-delay" ]
          ~doc:"Scheduler yield-injection bound in cycles (0 disables).")
  in
  let jobs =
    Arg.(
      value & opt int 0
      & info [ "j"; "jobs" ]
          ~doc:
            "Scan the seed space with $(docv) OCaml domains (each seed is an \
             independent simulation; the reported first failing seed is \
             identical to a sequential sweep). 0 (the default) uses \
             Domain.recommended_domain_count; 1 disables parallelism.")
  in
  let adversary =
    Arg.(
      value & flag
      & info [ "adversary" ]
          ~doc:
            "Adversarial mode: each seed additionally runs under a \
             seed-derived fault plan (mid-run Max_Tags squeeze pulses, \
             straggler cores, Zipfian / flash-crowd key skew, shrunken \
             cache geometry) with load-adaptive injection probabilities. \
             Verdicts stay deterministic and --jobs-invariant.")
  in
  let spec =
    Arg.(
      value & opt (some string) None
      & info [ "spec" ]
          ~doc:
            "Pin one fault plan for every seed instead of deriving it per \
             seed, e.g. 'squeeze=832,8,3000;straggler=0.05,2000;dist=zipf,1.1;adaptive' \
             or 'plain'. This is how shrunk repros are replayed.")
  in
  let shrink =
    Arg.(
      value & flag
      & info [ "shrink" ]
          ~doc:
            "On violation, delta-debug the failure (threads, ops, range, \
             prefill, yield bound, each injected fault, seed) to a minimal \
             still-failing configuration and write it to the failure \
             directory as minimal.txt / minimal-history.txt / \
             minimal-trace.json.")
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Chatty output.") in
  let cmd =
    Cmd.v
      (Cmd.info "memtag_fuzz"
         ~doc:
           "Explore many deterministic schedules of a concurrent-set workload and linearizability-check each recorded history")
      Term.(
        const run $ structure $ all $ seeds $ seed_start $ threads $ ops
        $ range $ prefill $ max_delay $ jobs $ adversary $ spec $ shrink
        $ verbose)
  in
  exit (Cmd.eval cmd)
