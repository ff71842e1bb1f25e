(* Schedule-exploration fuzzer: sweep seeds x thread counts x structures,
   linearizability-checking every recorded history. Reports the first
   failing seed with its minimized (per-key) history window, replays it to
   prove determinism, and exits nonzero on violation.

   --adversary arms the fault-injection engine (lib/adversary): each seed
   additionally gets a seed-derived fault plan — mid-run Max_Tags squeeze
   pulses, straggler cores, Zipfian / flash-crowd key skew, shrunken cache
   geometry — with load-adaptive injection probabilities. --shrink
   delta-debugs any failure down to a minimal, still-failing, replayable
   configuration. --seed-start makes long sweeps resumable / shardable. *)

open Cmdliner

module Abtree_params = struct
  let a = 2
  let b = 4
end

module Abtree_hoh = Mt_abtree.Abtree_hoh.Make (Abtree_params)
module Abtree_llx = Mt_abtree.Abtree_llx.Make (Abtree_params)

let canaries = [ "buggy_list"; "buggy_abtree" ]

let impls : (string * (module Mt_list.Set_intf.SET)) list =
  [
    ("harris_list", (module Mt_list.Harris_list));
    ("vas_list", (module Mt_list.Vas_list));
    ("hoh_list", (module Mt_list.Hoh_list));
    ("elided_list", (module Mt_list.Elided_list));
    ("abtree_hoh", (module Abtree_hoh));
    ("abtree_llx", (module Abtree_llx));
    ("norec_btree", (module Mt_store.Backend.Norec_map : Mt_list.Set_intf.SET));
    ("buggy_list", (module Mt_check.Buggy_list));
    ("buggy_abtree", (module Mt_check.Buggy_abtree));
  ]

let resolve name =
  match List.assoc_opt name impls with
  | Some m -> m
  | None ->
      Printf.eprintf "unknown structure %S (known: %s)\n" name
        (String.concat ", " (List.map fst impls));
      exit 2

let replay_command name threads (params : Mt_check.Explore.params) ~seed ~spec =
  Printf.sprintf
    "memtag_fuzz -s %s -t %d --seed-start %d --seeds 1 --ops %d -r %d \
     --prefill %d --max-delay %d%s"
    name threads seed params.Mt_check.Explore.ops params.range params.prefill
    params.max_delay
    (if Mt_adversary.Inject.is_none spec then ""
     else Printf.sprintf " --spec '%s'" (Mt_adversary.Inject.to_string spec))

(* On violation, dump everything a debugging session needs into
   fuzz-failure-<seed>/: the Perfetto event trace of a traced replay, the
   full recorded history, and the minimized per-key window the checker
   rejected. The traced replay doubles as the determinism check — neither
   tracing nor fault injection may perturb the schedule, so its history
   must match byte for byte. *)
let dump_failure name threads (o : Mt_check.Explore.outcome) params ~spec
    (violation : Mt_check.Linearize.violation) =
  let dir = Printf.sprintf "fuzz-failure-%d" o.seed in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let write file s =
    let oc = open_out (Filename.concat dir file) in
    output_string oc s;
    close_out oc
  in
  let obs = Mt_obs.Obs.create ~num_cores:threads () in
  let replay =
    Mt_adversary.Scenario.run ~obs (resolve name) ~params ~spec ~seed:o.seed
  in
  let identical =
    Mt_check.History.to_string replay.history
    = Mt_check.History.to_string o.history
  in
  Mt_obs.Trace.write_file ~num_cores:threads obs (Filename.concat dir "trace.json");
  write "history.txt" (Mt_check.History.to_string o.history);
  write "minimized.txt"
    (Format.asprintf "%a@.@.%s@."
       Mt_check.Linearize.pp_violation violation
       (Mt_check.History.to_string (Array.of_list violation.window)));
  write "repro.txt"
    (Printf.sprintf
       "structure=%s threads=%d seed=%d ops=%d range=%d prefill=%d max-delay=%d \
        spec=%s\n\
        replay: %s\n"
       name threads o.seed params.Mt_check.Explore.ops params.range
       params.prefill params.max_delay
       (Mt_adversary.Inject.to_string spec)
       (replay_command name threads params ~seed:o.seed ~spec));
  Format.printf "wrote %s/{trace.json,history.txt,minimized.txt,repro.txt}@." dir;
  (dir, identical)

(* Delta-debug the failure to a minimal repro and drop it (config, history,
   traced replay) alongside the original artifacts. The minimal config is
   re-replayed with tracing on to prove it still fails byte-identically. *)
let dump_shrunk name (module S : Mt_list.Set_intf.SET) dir
    (shrunk : Mt_adversary.Shrink.result) =
  let write file s =
    let oc = open_out (Filename.concat dir file) in
    output_string oc s;
    close_out oc
  in
  let c = shrunk.config in
  let threads = c.params.Mt_check.Explore.threads in
  let obs = Mt_obs.Obs.create ~num_cores:threads () in
  let replay =
    Mt_adversary.Scenario.run ~obs (module S) ~params:c.params ~spec:c.spec
      ~seed:c.seed
  in
  let identical =
    Mt_check.History.to_string replay.history
    = Mt_check.History.to_string shrunk.outcome.history
    && (match replay.verdict with Error _ -> true | Ok () -> false)
  in
  Mt_obs.Trace.write_file ~num_cores:threads obs
    (Filename.concat dir "minimal-trace.json");
  write "minimal-history.txt"
    (Mt_check.History.to_string shrunk.outcome.history);
  let violation =
    match shrunk.outcome.verdict with Error v -> v | Ok () -> assert false
  in
  write "minimal.txt"
    (Format.asprintf
       "minimal failing configuration (%d candidate runs):@.  %a@.@.\
        started from:@.  %a@.@.replay: %s@.@.%a@."
       shrunk.runs Mt_adversary.Shrink.pp_config c
       Mt_adversary.Shrink.pp_config shrunk.initial
       (replay_command name threads c.params ~seed:c.seed ~spec:c.spec)
       Mt_check.Linearize.pp_violation violation);
  Format.printf
    "shrunk to %a (%d events, %d candidate runs)@.wrote \
     %s/{minimal.txt,minimal-history.txt,minimal-trace.json}@.minimal repro \
     replays byte-identically: %b@."
    Mt_adversary.Shrink.pp_config c
    (Array.length shrunk.outcome.history)
    shrunk.runs dir identical;
  identical

let report_failure name threads (o : Mt_check.Explore.outcome) params ~spec
    ~spec_of ~shrink =
  let violation =
    match o.verdict with Error v -> v | Ok () -> assert false
  in
  Format.printf "@.FAIL %s threads=%d seed=%d (%d events)@." name threads
    o.seed
    (Array.length o.history);
  Format.printf "%a@." Mt_check.Linearize.pp_violation violation;
  (* Determinism check: replaying the seed (here with tracing on) must
     reproduce the history byte for byte. *)
  let dir, identical = dump_failure name threads o params ~spec violation in
  Format.printf "replay of seed %d byte-identical: %b@." o.seed identical;
  let identical =
    if not shrink then identical
    else begin
      let initial =
        { Mt_adversary.Shrink.params; spec = spec_of o.seed; seed = o.seed }
      in
      let shrunk = Mt_adversary.Shrink.shrink (resolve name) initial in
      identical && dump_shrunk name (resolve name) dir shrunk
    end
  in
  if not identical then
    Format.printf "WARNING: determinism broken — fix the scheduler first@."

(* An invalid flag value exits 2 with the flag named, before any seed
   runs, instead of escaping as an exception from inside a run. *)
let reject fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "memtag_fuzz: %s\n" msg;
      exit 2)
    fmt

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
        match Mt_adversary.Inject.of_string s with
        | Ok spec -> Some spec
        | Error msg ->
            Printf.eprintf "%s\n" msg;
            exit 2)
  in
  let spec_of seed =
    match pinned_spec with
    | Some spec -> spec
    | None ->
        if adversary then Mt_adversary.Inject.of_seed ~seed
        else Mt_adversary.Inject.none
  in
  let chosen =
    if all then List.filter (fun (n, _) -> not (List.mem n canaries)) impls
    else List.map (fun n -> (n, resolve n)) structures
  in
  let failed = ref false in
  List.iter
    (fun (name, m) ->
      List.iter
        (fun threads ->
          let params =
            {
              Mt_check.Explore.threads;
              ops;
              range;
              prefill;
              max_delay;
            }
          in
          let t0 = Unix.gettimeofday () in
          let clean, failure =
            Mt_adversary.Scenario.sweep ~jobs ~start:seed_start m ~params
              ~spec_of ~seeds
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
              report_failure name threads o params ~spec:(spec_of o.seed)
                ~spec_of ~shrink);
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
          ~doc:
            "Structure to fuzz (harris_list|vas_list|hoh_list|elided_list|abtree_hoh|abtree_llx|buggy_list|buggy_abtree); repeatable.")
  in
  let all =
    Arg.(value & flag & info [ "a"; "all" ] ~doc:"Fuzz every (correct) structure.")
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
