(** Schedule exploration: run one set workload under many distinct,
    individually reproducible interleavings and linearizability-check each
    recorded history.

    One {!run} = one seed: a fresh machine, a fresh
    {!Mt_sim.Runtime.random_policy} built from the seed (yield injection +
    priority perturbation), thread PRNGs derived from the same seed, and a
    full history check against the sequential set oracle — including the
    structure's actual final contents. Everything is a pure function of
    the parameters, so a failing seed replays to a byte-identical
    history.

    A run may carry an {!Inject.spec} fault plan (the adversary): it
    shrinks the machine's caches, fires faults from the policy and skews
    the key draw, and the run stays a pure function of
    [(spec, params, seed)]. {!Inject.none} is the plain run. *)

type params = {
  threads : int;
  ops : int;  (** operations per thread *)
  range : int;  (** keys drawn from [0, range) *)
  prefill : int;  (** random inserts performed sequentially before the run *)
  max_delay : int;  (** scheduler yield-injection bound, in cycles *)
}

val default_params : params

type outcome = {
  seed : int;
  history : History.event array;
  init : int list;  (** contents after prefill, before the measured run *)
  final : int list;  (** contents after the run, read off quiescent memory *)
  duration : int;  (** simulated cycles *)
  verdict : (unit, Linearize.violation) result;
}

(** [run ?obs ?spec (module S) ~params ~seed] — execute the workload
    under the seed's schedule, with the fault plan [spec] (default
    {!Inject.none}) armed, and check the history. A recording [obs]
    captures the full simulator event stream of the run (tracing never
    perturbs the schedule, so a traced replay reproduces the untraced
    history — with or without injected faults). *)
val run :
  ?obs:Mt_obs.Obs.t ->
  ?spec:Inject.spec ->
  (module Mt_list.Set_intf.SET) ->
  params:params ->
  seed:int ->
  outcome

(** [sweep ?jobs ?start ?spec_of (module S) ~params ~seeds] — the
    first-failure sweep over seeds [start .. start+seeds-1] (default
    [start = 0]), each run with the fault plan [spec_of seed] (default
    {!Inject.none}; {!Inject.of_seed} is the standard adversary,
    [Fun.const spec] pins one plan), stopping at the first violation.
    Returns the number of clean runs before the failure (= [seeds] if
    none) and the failing outcome, if any. With [jobs > 1] the seed space
    is scanned by [jobs] OCaml domains over contiguous ascending chunks;
    the first failure reported is still the globally smallest failing
    seed, so the result is identical to the sequential sweep — only
    faster. *)
val sweep :
  ?jobs:int ->
  ?start:int ->
  ?spec_of:(int -> Inject.spec) ->
  (module Mt_list.Set_intf.SET) ->
  params:params ->
  seeds:int ->
  int * outcome option
