(* Regression sentinel CLI: compare a committed BENCH JSON baseline
   against a freshly generated document.

   Usage:  bench_diff BASELINE CURRENT

   Exit status: 0 when every watched metric is inside its tolerance band
   (improvements included), 1 when at least one metric regressed, 2 on
   structural mismatch (missing keys, changed identity fields, changed
   list lengths) or usage/parse errors. The engine and its tolerance bands
   live in Mt_workload.Bench_compare. *)

module Json = Mt_obs.Json
module BC = Mt_workload.Bench_compare

let usage = "usage: bench_diff BASELINE CURRENT"

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

let read_json path =
  let ic = try open_in_bin path with Sys_error e -> fail "%s" e in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  try Json.of_string s
  with Json.Parse_error msg -> fail "%s: invalid JSON: %s" path msg

let () =
  let base_file, cur_file =
    match List.tl (Array.to_list Sys.argv) with
    | [ b; c ] -> (b, c)
    | _ -> fail "%s" usage
  in
  let baseline = read_json base_file and current = read_json cur_file in
  let r = BC.compare_docs ~baseline ~current () in
  List.iter (Printf.printf "STRUCTURAL %s\n") r.BC.structural;
  List.iter
    (fun (f : BC.finding) ->
      Printf.printf "REGRESSED  %s: %g -> %g (allowed %g)\n" f.BC.path
        f.BC.base f.BC.cur f.BC.allowed)
    r.BC.regressed;
  List.iter
    (fun (f : BC.finding) ->
      Printf.printf "improved   %s: %g -> %g\n" f.BC.path f.BC.base f.BC.cur)
    r.BC.improved;
  Printf.printf
    "bench_diff: %d metrics compared, %d regressed, %d improved, %d \
     structural\n"
    r.BC.compared
    (List.length r.BC.regressed)
    (List.length r.BC.improved)
    (List.length r.BC.structural);
  if r.BC.structural <> [] then exit 2
  else if r.BC.regressed <> [] then exit 1
