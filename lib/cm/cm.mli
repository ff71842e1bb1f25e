(** Pluggable contention management for optimistic retry loops.

    The retry loops of the tagged structures, NOrec, kCAS and the store
    consult one policy object (threaded through [Mt_core.Ctx]) instead of
    spinning. The two published baselines, [Harris_list] and
    [Abtree_llx], do not: they retry at once by design, because they are
    measured as published. A policy computes a wait in {e simulated cycles};
    the context charges it through the existing stall path, so runs stay
    byte-identical for any [--jobs] value and with tracing on or off.

    The determinism baseline is {!Immediate}: it computes no waits, draws
    nothing from any PRNG, and keeps no state, so threading it through a
    retry loop is observationally a no-op — today's behavior exactly.
    Sites that already carried a hand-rolled backoff (the NOrec abort
    loop, [Store]'s shard retries) keep it as their site {e default},
    evaluated only under [Immediate]; any other policy replaces it.

    [Backoff] and [Politeness] follow Dice–Hendler–Mirsky ("Lightweight
    Contention Management for Efficient Compare-and-Swap Operations"):
    capped exponential backoff with seeded jitter, and time-division
    politeness — constant slots keyed on core id, so contending cores
    take turns instead of colliding. *)

(** Policy specification — pure data, shared across cores; each core
    materializes its own {!t} (private jitter stream). *)
type spec =
  | Immediate
      (** Retry at once; the baseline. No waits, no PRNG draws, no state. *)
  | Backoff of { base : int; cap : int }
      (** Capped exponential: attempt [n] waits in
          [[b/2, b]] where [b = min cap (base * 2^n)], jitter drawn from
          the core's private PRNG stream. *)
  | Politeness of { slot : int; slots : int }
      (** Time-division: simulated time is divided into rounds of
          [slots] slots of [slot] cycles; a failing core waits until its
          own slot ([core mod slots]) comes around. Deterministic — no
          randomness at all. *)

val immediate : spec

(** Defaults: [base = 32], [cap = 4096]. *)
val backoff : ?base:int -> ?cap:int -> unit -> spec

(** Defaults: [slot = 192], [slots = 8]. *)
val politeness : ?slot:int -> ?slots:int -> unit -> spec

val spec_name : spec -> string

(** {1 Per-core instances} *)

type t

(** [make spec ~core ~prng] materializes [spec] for one core. [prng]
    feeds backoff jitter and must be a private stream (split off the
    context's); it is unused — and may be omitted — for [Immediate] and
    [Politeness]. Without a PRNG, backoff waits are the deterministic
    upper bound [b]. *)
val make : ?prng:Mt_sim.Prng.t -> spec -> core:int -> t

val spec : t -> spec

(** True iff the policy is [Immediate]; retry sites use this to decide
    whether to run their hand-rolled default wait. *)
val is_immediate : t -> bool

(** [wait t ~attempt ~now] is the number of simulated cycles to wait
    before retry number [attempt] (0-based) at simulated time [now].
    [Immediate] always returns 0. The caller charges the cycles and
    records the failure — this call itself only draws backoff jitter
    from the policy's private stream. *)
val wait : t -> attempt:int -> now:int -> int

(** {1 Shared backoff arithmetic} *)

(** [capped_backoff ~base ~cap ~attempt] is
    [min cap (base * 2^attempt)] computed without overflow: correct for
    any [attempt >= 0] (including ones where the shift would wrap) and
    never negative. The [Backoff] policy's waits are built on it. *)
val capped_backoff : base:int -> cap:int -> attempt:int -> int
