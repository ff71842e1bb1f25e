(** The regression sentinel's engine: metric-by-metric comparison of two
    BENCH JSON documents ([bin/bench_diff.exe] is the CLI).

    The baseline and current documents are walked structurally in
    parallel. Watched performance metrics (throughput, goodput, latency
    percentiles, drop rates, peak speedups, and L1 misses per op, derived
    from [counters.l1_misses] and [ops] wherever an object has both) are
    tested against per-metric tolerance {!band}s; a move outside the band
    in the bad direction is a {e regression}, in the good direction an {e
    improvement} (reported, never fatal). A baseline key missing from the
    current document, a changed list length, or a changed identity field
    (implementation name, workload label, ...) is a {e structural}
    failure — the documents are not comparable. All other leaves (raw
    counters, histogram buckets, spec echoes) are ignored: they drift
    with any behavioural change and carry no better/worse direction. *)

module Json = Mt_obs.Json

type direction = Higher_better | Lower_better

type band = {
  dir : direction;
  rel : float;  (** allowed relative drift in the bad direction *)
  abs : float;  (** absolute slack added on top (units of the metric) *)
}

(** Field name -> band for every watched metric (latency percentiles get
    absolute slack so small-count histograms don't trip the relative
    band). Override per metric via the [?bands] argument or the CLI's
    [--tol]. *)
val default_bands : (string * band) list

type finding = {
  path : string;  (** dotted path of the leaf in the document *)
  metric : string;  (** the watched field name *)
  base : float;
  cur : float;
  allowed : float;  (** the band edge the bad direction is tested against *)
}

type report = {
  mutable compared : int;  (** watched metrics tested against their band *)
  mutable improved : finding list;
  mutable regressed : finding list;
  mutable structural : string list;  (** human-readable mismatch messages *)
}

(** [compare_docs ?bands ~baseline ~current ()] — walk both documents
    and classify every disagreement. Never raises on well-formed JSON. *)
val compare_docs :
  ?bands:(string * band) list -> baseline:Json.t -> current:Json.t -> unit ->
  report

(** No regressions and no structural mismatches (improvements are ok). *)
val ok : report -> bool
