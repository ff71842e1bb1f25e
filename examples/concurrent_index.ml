(* A database-style ordered index under a mixed workload: the HoH-tagged
   (a,b)-tree serving point lookups, updates and atomic range scans from
   16 cores — the paper's flagship application (Section 5.1).

   Run with:  dune exec examples/concurrent_index.exe *)

open Mt_sim
open Mt_core

module Index = Mt_abtree.Abtree_hoh.Paper

let () =
  let threads = 16 in
  let machine = Machine.create (Config.default ~num_cores:threads ()) in

  (* Bulk-load 4096 "rows". *)
  let index =
    Harness.exec1 machine (fun ctx ->
        let index = Index.create ctx in
        let g = Prng.create ~seed:42 in
        let loaded = ref 0 in
        while !loaded < 4096 do
          if Index.insert ctx index (Prng.int g 100_000) then incr loaded
        done;
        index)
  in
  let report = Index.check machine index in
  Printf.printf "bulk-loaded %d keys; tree height %d, %d nodes, balanced=%b\n"
    report.Mt_abtree.Checker.n_keys report.height report.nodes report.ok;

  (* Mixed OLTP-ish phase: 70%% lookups, 24%% updates, 6%% range scans. *)
  Machine.reset_stats machine;
  let scans = ref 0 and scan_rows = ref 0 in
  let duration =
    Harness.exec machine ~threads (fun ctx ->
        let g = Ctx.prng ctx in
        for _ = 1 to 150 do
          let r = Prng.int g 100 in
          let k = Prng.int g 100_000 in
          if r < 70 then ignore (Index.contains ctx index k)
          else if r < 82 then ignore (Index.insert ctx index k)
          else if r < 94 then ignore (Index.delete ctx index k)
          else begin
            match Index.range ctx index ~lo:k ~hi:(k + 500) with
            | Some rows ->
                incr scans;
                scan_rows := !scan_rows + List.length rows
            | None -> () (* range too wide for the tag budget *)
          end
        done)
  in
  let stats = Machine.total_stats machine in
  Printf.printf
    "%d cores ran %d ops in %d cycles (%.2f ops/kcycle)\n"
    threads (threads * 150) duration
    (1000.0 *. float_of_int (threads * 150) /. float_of_int duration);
  Printf.printf "atomic range scans: %d (avg %.1f rows); aborted traversals: %d\n"
    !scans
    (if !scans = 0 then 0.0 else float_of_int !scan_rows /. float_of_int !scans)
    stats.Stats.validate_failures;
  let report = Index.check machine index in
  Printf.printf "index still balanced: %b (height %d, %d keys)\n" report.ok
    report.height report.n_keys
