(** Automatic shrinking of failing scenarios to minimal repros
    (delta-debugging over the scenario configuration space).

    Given a failing configuration — workload parameters, fault spec, seed
    — the shrinker greedily searches for a strictly smaller configuration
    that still fails, one dimension at a time: thread count (smallest
    first), ops per thread, key range, prefill, the yield-injection bound,
    each injected fault component (squeeze, straggler, distribution,
    geometry, adaptivity — dropped one at a time), and finally the seed.
    Numeric dimensions probe an ascending ladder (1, 2, 4, …, cur-1) so
    the accepted value is the smallest failing one at geometric
    resolution; passes repeat to a fixpoint, so the final config is
    stable under re-shrinking ({e idempotent}).

    A candidate is accepted iff some seed in [0, 12) makes it
    fail (any violation counts — shrinking chases {e a} failure, not
    necessarily the original one); the first failing seed becomes the
    candidate's seed, so seeds end up small too. Every probe is a
    deterministic {!Explore.run}, so the whole shrink — and the final
    minimal repro — is a pure function of the inputs and replays
    byte-identically. *)

type config = {
  params : Explore.params;
  spec : Inject.spec;
  seed : int;
}

type result = {
  config : config;  (** the minimal failing configuration *)
  outcome : Explore.outcome;  (** its (still failing) run *)
  runs : int;  (** total candidate executions spent *)
  initial : config;  (** what shrinking started from *)
}

val pp_config : Format.formatter -> config -> unit

(** [shrink (module S) config] — delta-debug [config] (which must fail;
    raises [Invalid_argument] otherwise) to a minimal failing
    configuration. *)
val shrink :
  (module Explore.TARGET) ->
  config ->
  result
