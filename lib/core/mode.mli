(** The HLE-style fallback Mode line (paper Section 3, "Fall-Back Path").

    A dedicated cache line holds the value FAST or SLOW. Fast-path
    operations tag this line as part of their tag set, so flipping the mode
    to SLOW invalidates the line everywhere and makes every in-flight
    fast-path validation fail. Operations that fail validation too many
    consecutive times flip to SLOW, run the software fallback, and the mode
    is reset to FAST after [slow_period] successful slow-path operations. *)

type t

val fast : int
val slow : int

(** Allocate the mode line in state FAST. *)
val create : Mt_sim.Machine.t -> t

(** Word address of the mode line (for tagging). *)
val addr : t -> Ctx.addr

(** Read the current mode. *)
val is_fast : Ctx.t -> t -> bool

(** Flip to SLOW (idempotent; a plain store, invalidating all taggers). *)
val set_slow : Ctx.t -> t -> unit

(** Flip back to FAST. *)
val set_fast : Ctx.t -> t -> unit
