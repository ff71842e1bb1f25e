(** Seeded deterministic Poisson arrivals in simulated time.

    An arrival stream turns an offered load (requests per 1000 simulated
    cycles) into a monotone stream of absolute arrival timestamps with
    exponential inter-arrival gaps. All randomness comes from a
    {!Mt_sim.Prng} seeded at creation, so a stream is a pure function of
    its parameters — the same seed replays the same request stream, which
    is what makes open-loop sweeps byte-identical across [--jobs] values
    and with tracing on or off. *)

(** The one arrival process: exponential inter-arrival gaps (memoryless
    traffic). The type, and {!Server.config}'s [process] field, remain
    only because the repository benchmark under [perfbench/] reads
    [cfg.Server.process]. *)
type process = Poisson

type t

(** [create ~process ~rate_per_kcycle ~seed] — a fresh stream starting at
    simulated time 0 (the first arrival is one gap in). Raises
    [Invalid_argument] if the rate is not positive. *)
val create : process:process -> rate_per_kcycle:float -> seed:int -> t

(** The absolute simulated time (cycles) of the next arrival. Consecutive
    calls are monotone non-decreasing. *)
val next : t -> int

(** "poisson" — used in reports and JSON. *)
val process_name : process -> string
