(** Per-run operation histories.

    A recorder is a thin instrumentation layer over [Ctx]/[Harness]: each
    set operation is wrapped in {!record}, which logs its invocation and
    response timestamps (simulated cycles), the executing core, the
    operation and its result. Because the simulator is deterministic, the
    recorded history is a pure function of (workload seed, scheduling
    policy) — replaying a seed reproduces the history byte for byte.

    The runtime is single-OS-threaded and fibers are only preempted when
    they stall, so the recorder needs no synchronization of its own. *)

type op = Insert of int | Delete of int | Contains of int

type event = {
  core : int;  (** executing core / fiber id *)
  op : op;
  result : bool;
  t_inv : int;  (** simulated time at invocation *)
  t_res : int;  (** simulated time at response *)
}

type t

val create : unit -> t

(** [record t ctx op f] runs [f ()] (the real operation), logging its
    invocation/response interval, and passes its result through. *)
val record : t -> Mt_core.Ctx.t -> op -> (unit -> bool) -> bool

(** All recorded events in canonical order (sorted by invocation time,
    then response time, then core). Call after the run completes. *)
val events : t -> event array

(** [key_of op] is the key the operation touches. *)
val key_of : op -> int

val pp_event : Format.formatter -> event -> unit

(** Render a history one event per line — the byte-for-byte replay format
    used by the fuzzer's determinism check. *)
val to_string : event array -> string
