(** Fault-injection plans (what the adversary does to one run) and how
    {!Explore.run} arms them.

    A {!spec} names the faults to inject — everything else (when exactly
    a straggler pauses, which keys a skewed draw picks) comes from PRNG
    streams derived from the run's seed, so an injected run is a pure
    function of [(spec, params, seed)] and replays byte-identically.

    Arming a spec touches three things: the {b machine} (cache-geometry
    perturbation at build time, {!make_machine}), the {b policy} (a
    decorator over {!Mt_sim.Runtime.random_policy} firing the Max_Tags
    squeeze pulse and straggler pauses, {!make_policy}) and the {b keys}
    (Zipfian or flash-crowd draws instead of uniform, {!draw_key}).

    {b Load-adaptive rule}: every 64 stalls the policy sums the machine's
    failed validations/CAS/VAS/IAS and inbound invalidations; the delta
    [d] since the previous sample scales the straggler probability by
    [1 + min 7 (d/4)] (capped at 0.9) — faults concentrate exactly when
    the mechanisms under test are already hot.

    {b Determinism contract}: injection decisions draw from a private
    PRNG stream derived from the run seed, are made in scheduler order,
    and read only simulation state — so tracing still changes nothing. *)

type distribution =
  | Uniform
  | Zipfian of { theta : float }
      (** hot-key skew: rank [r] drawn with mass [∝ 1/(r+1)^theta], rank =
          key (rank 0 is the hottest key). *)
  | Flash_crowd of { hot : int; period : int; duty : int }
      (** every [period] ops (per thread), the first [duty] ops draw from
          a [hot]-key window that rotates each period — a moving
          flash crowd. Remaining ops draw uniformly. *)

type squeeze = {
  at : int;  (** trigger: first stall whose fiber clock reaches [at] *)
  max_tags : int;  (** the squeezed Max_Tags ceiling *)
  hold : int;  (** cycles until the original ceiling is restored *)
}
(** A tag-capacity pressure pulse: mid-run, every core's Max_Tags drops to
    [max_tags] for [hold] cycles, then is restored. Pulsed rather than
    permanent so retry loops that cannot fit their window under the
    squeezed ceiling always drain once the pulse ends. *)

type straggler = { prob : float; pause : int }
(** Straggler cores: at each stall, with probability [prob] (scaled up by
    the load-adaptive rule when enabled), the stalling fiber's clock is
    paused for an extra [pause] cycles. *)

type geometry = {
  l1_sets_log2 : int;
  l1_ways : int;
  l2_sets_log2 : int;
  l2_ways : int;
}

type spec = {
  squeeze : squeeze option;
  straggler : straggler option;
  distribution : distribution;
  geometry : geometry option;  (** cache-geometry perturbation at build time *)
  adaptive : bool;
      (** load-adaptive injection: scale straggler probability by the
          observed abort/invalidation heat (see above). *)
}

(** No faults: the plain run. *)
val none : spec

val is_none : spec -> bool

(** The moderate small-cache perturbation {!of_seed} uses. *)
val small_geometry : geometry

(** [of_seed ~seed] — the seed's adversary plan, a pure function of
    [seed] drawn from a private PRNG stream: ~1/2 of seeds squeeze
    Max_Tags (floor in {4,8,16}, pulsed), ~1/2 run stragglers, ~2/3 skew
    keys (Zipfian or flash crowd), ~1/3 shrink the caches; adaptivity is
    always on. *)
val of_seed : seed:int -> spec

(** Compact round-tripping syntax ([to_string >> of_string] is the
    identity), e.g. ["squeeze=832,8,3000;straggler=0.05,2000;dist=zipf,1.1;adaptive"];
    {!none} prints as ["plain"]. This is how a shrunk spec — which no
    seed generates — is named on the [memtag_fuzz --spec] command line. *)
val to_string : spec -> string

(** [of_string s] parses {!to_string}'s syntax. A geometry larger than
    {!Mt_sim.Config.default}'s in any component (L1 2^6 sets x 8 ways, L2
    2^8 sets x 16 ways) is an [Error]: the injector only shrinks caches.
    So is one smaller than {!small_geometry}'s in any component (L1 2^3
    sets x 4 ways, L2 2^6 sets x 8 ways), the smallest the adversary
    draws: below it a hand-over-hand tag window can outgrow a set and
    livelock the run. *)
val of_string : string -> (spec, string) result

(** [make_machine spec ~obs ~num_cores] — {!Mt_sim.Config.default} with
    the spec's cache geometry, if any. *)
val make_machine :
  spec -> obs:Mt_obs.Obs.t -> num_cores:int -> Mt_sim.Machine.t

(** The armed policy decorator — also for driving fault pulses under the
    closed-loop {!Mt_workload.Driver} or the serve layer (pass as
    [?make_policy] with a closure supplying [seed]/[max_delay]). The
    squeeze pulse fires once per policy value, and every fault instant
    is emitted as an [Obs.Fault] timeline mark on the machine's sink.
    With neither squeeze nor straggler it is the base policy itself;
    [max_delay:0] keeps the base schedule undisturbed. *)
val make_policy :
  spec ->
  machine:Mt_sim.Machine.t ->
  seed:int ->
  max_delay:int ->
  Mt_sim.Runtime.policy

(** [draw_key spec ~range] picks the [nth] (0-based, per thread)
    operation's key in [\[0, range)] from the thread's PRNG. Apply it to
    [~range] once per run: a Zipfian table is built there. *)
val draw_key : spec -> range:int -> prng:Mt_sim.Prng.t -> nth:int -> int
