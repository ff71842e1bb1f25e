(* Metric-by-metric comparison of two BENCH JSON documents (the
   regression sentinel's engine; bin/bench_diff.exe is the CLI).

   The two documents are walked structurally in parallel. Three kinds of
   disagreement are distinguished:

   - {b structural}: a key present in the baseline is missing from the
     current document, a list changed length, or an identity field (an
     implementation name, a workload label, the "quick" flag) changed.
     The schema contract is extend-don't-remove, so any of these means
     the documents are not comparable — the diff fails loudly rather
     than reporting a half-comparison.

   - {b regression}: a known performance metric moved outside its
     tolerance band in the bad direction (throughput down, tail latency
     up, ...). Bands are generous by design: the sentinel exists to
     catch accidental order-of-magnitude damage (a lost optimization, a
     retry storm), not to freeze every third decimal — deterministic
     sim counters shift whenever any scheduling detail changes, and
     that churn must not block unrelated work.

   - {b improvement}: the same band test, passed in the good direction
     by more than the tolerance. Reported but never fatal (regenerating
     the committed baseline is still worthwhile so future regressions
     are measured from the better level).

   One watched metric is derived rather than read: L1 misses per op,
   from [counters.l1_misses] and [ops].

   Every other leaf — raw event counts, histogram buckets, energy
   totals, spec echoes — is deliberately ignored: those drift with any
   behavioural change and carry no direction. *)

module Json = Mt_obs.Json

type direction = Higher_better | Lower_better

type band = {
  dir : direction;
  rel : float;  (** allowed relative drift in the bad direction *)
  abs : float;  (** absolute slack added on top (units of the metric) *)
}

(* The watched metrics, keyed by JSON field name wherever they appear in
   the document. Latency percentiles get absolute slack on top of the
   relative band: a p50 of 40 cycles doubling to 80 is noise, a p99 of
   40k cycles doubling is a saturation collapse. *)
let bands : (string * band) list =
  [
    ("throughput_per_kcycle", { dir = Higher_better; rel = 0.30; abs = 0.0 });
    ("goodput_per_kcycle", { dir = Higher_better; rel = 0.30; abs = 0.0 });
    ("measured_peak_speedup", { dir = Higher_better; rel = 0.30; abs = 0.0 });
    ("energy_per_op", { dir = Lower_better; rel = 0.30; abs = 0.0 });
    ("l1_misses_per_op", { dir = Lower_better; rel = 0.30; abs = 0.0 });
    ("drop_rate", { dir = Lower_better; rel = 0.0; abs = 0.05 });
    ("p50", { dir = Lower_better; rel = 0.50; abs = 64.0 });
    ("p90", { dir = Lower_better; rel = 0.50; abs = 64.0 });
    ("p99", { dir = Lower_better; rel = 0.50; abs = 64.0 });
    ("p999", { dir = Lower_better; rel = 0.50; abs = 64.0 });
    ("mean", { dir = Lower_better; rel = 0.50; abs = 64.0 });
  ]

(* Fields whose change means the two documents describe different
   experiments, not different performance. *)
let identity_keys =
  [
    "impl"; "backend"; "comparison"; "workload"; "scenario"; "mode";
    "arrival"; "paper_claim"; "fault_spec"; "generator"; "quick"; "skipped";
    "calibration"; "policy"; "theta";
  ]

type finding = {
  path : string;
  metric : string;
  base : float;
  cur : float;
  allowed : float;  (** the band edge the bad direction is tested against *)
}

type report = {
  mutable compared : int;  (** watched metrics tested against their band *)
  mutable improved : finding list;
  mutable regressed : finding list;
  mutable structural : string list;
}

let path_str rev = String.concat "" (List.rev rev)

let number = function
  | Json.Int i -> Some (float_of_int i)
  | Json.Float f -> Some f
  | _ -> None

(* L1 misses per op, derived wherever an object carries [ops] and
   [counters.l1_misses]. The stored [l1_miss_rate] is not watched: its
   denominator is the loads, so a change that only removes L1 hits raises
   the rate while the misses per op stay put. *)
let l1_misses_per_op fields =
  match (List.assoc_opt "ops" fields, List.assoc_opt "counters" fields) with
  | Some ops, Some (Json.Obj c) -> (
      match (number ops, Option.bind (List.assoc_opt "l1_misses" c) number) with
      | Some o, Some m when o > 0.0 -> Some (m /. o)
      | _ -> None)
  | _ -> None

let check_metric r ~path ~metric band base cur =
  r.compared <- r.compared + 1;
  let slack = (band.rel *. Float.abs base) +. band.abs in
  let bad_edge, good_edge =
    match band.dir with
    | Higher_better -> (base -. slack, base +. slack)
    | Lower_better -> (base +. slack, base -. slack)
  in
  let finding allowed = { path; metric; base; cur; allowed } in
  match band.dir with
  | Higher_better ->
      if cur < bad_edge then r.regressed <- finding bad_edge :: r.regressed
      else if cur > good_edge then r.improved <- finding good_edge :: r.improved
  | Lower_better ->
      if cur > bad_edge then r.regressed <- finding bad_edge :: r.regressed
      else if cur < good_edge then r.improved <- finding good_edge :: r.improved

let compare_docs ~baseline ~current () =
  let r = { compared = 0; improved = []; regressed = []; structural = [] } in
  let structural rev fmt =
    Printf.ksprintf
      (fun s -> r.structural <- (path_str rev ^ ": " ^ s) :: r.structural)
      fmt
  in
  let field_of rev =
    match rev with
    | last :: _ when String.length last > 1 && last.[0] = '.' ->
        String.sub last 1 (String.length last - 1)
    | _ -> ""
  in
  let rec walk rev base cur =
    match (base, cur) with
    | Json.Obj bf, Json.Obj cf ->
        (match
           ( l1_misses_per_op bf,
             l1_misses_per_op cf,
             List.assoc_opt "l1_misses_per_op" bands )
         with
        | Some b, Some c, Some band ->
            check_metric r
              ~path:(path_str (".l1_misses_per_op" :: rev))
              ~metric:"l1_misses_per_op" band b c
        | _ -> ());
        List.iter
          (fun (k, bv) ->
            match List.assoc_opt k cf with
            | None -> structural (("." ^ k) :: rev) "missing from current"
            | Some cv -> walk (("." ^ k) :: rev) bv cv)
          bf
    | Json.List bl, Json.List cl ->
        let nb = List.length bl and nc = List.length cl in
        if nb <> nc then structural rev "list length changed (%d -> %d)" nb nc
        else
          List.iteri
            (fun i (b, c) -> walk (Printf.sprintf "[%d]" i :: rev) b c)
            (List.combine bl cl)
    | (Json.Int _ | Json.Float _), (Json.Int _ | Json.Float _) -> (
        let metric = field_of rev in
        let b = Option.get (number base) and c = Option.get (number cur) in
        match List.assoc_opt metric bands with
        | Some band -> check_metric r ~path:(path_str rev) ~metric band b c
        | None ->
            if List.mem metric identity_keys && b <> c then
              structural rev "identity value changed (%g -> %g)" b c)
    | Json.String b, Json.String c ->
        if List.mem (field_of rev) identity_keys && b <> c then
          structural rev "identity value changed (%S -> %S)" b c
    | Json.Bool b, Json.Bool c ->
        if List.mem (field_of rev) identity_keys && b <> c then
          structural rev "identity value changed (%b -> %b)" b c
    | Json.Null, Json.Null -> ()
    | _ -> structural rev "value kind changed"
  in
  walk [] baseline current;
  { r with improved = List.rev r.improved; regressed = List.rev r.regressed;
           structural = List.rev r.structural }

let ok r = r.regressed = [] && r.structural = []
