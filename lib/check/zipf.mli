(** Seed-deterministic Zipfian rank sampler.

    Ranks [0 .. n-1] carry weights proportional to [1/(rank+1)^theta]
    (rank 0 is the hottest), normalized into a cumulative table at
    construction; sampling is one PRNG draw plus a binary search, so a
    sample stream is a pure function of the PRNG seed and the stream of
    draws it shares with other consumers. Rank ordering is exact by
    construction: [pmf t i >= pmf t j] whenever [i <= j]. *)

type t

(** [create ~n ~theta] — [n >= 1] ranks, skew [theta >= 0] ([0] is
    uniform; common hot-key workloads use [0.8 .. 1.5]). *)
val create : n:int -> theta:float -> t

(** Probability mass of a rank (exact, from the normalized table). *)
val pmf : t -> int -> float

(** [sample t g] draws a rank in [0, n) — one [Prng.float] consumed. *)
val sample : t -> Mt_sim.Prng.t -> int
