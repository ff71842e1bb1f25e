(** Specification of a set-benchmark run (the paper's standard
    search/insert/remove workload, Section 6).

    On every iteration each thread picks a uniformly random key in
    [\[0, key_range)] and performs insert / delete / contains according to
    the percentage mix. The structure is pre-filled to half of the range
    so that roughly half of the updates return [false], keeping the size
    stationary, as in the paper. *)

type t = {
  key_range : int;
  init_fill : float;       (** fraction of the range inserted at setup
                               (always 0.5) *)
  insert_pct : int;        (** percentage of insert operations *)
  delete_pct : int;        (** percentage of delete operations; the
                               remainder are contains *)
  threads : int;
  warmup_cycles : int;     (** simulated cycles discarded before measuring *)
  measure_cycles : int;    (** simulated cycles of the measured window *)
  seed : int;
}

(** [make ~key_range ~insert_pct ~delete_pct ~threads ()] with defaults:
    [warmup_cycles = 30_000], [measure_cycles = 150_000], [seed = 1];
    [init_fill] is 0.5. Raises [Invalid_argument] on nonsensical
    percentages or sizes, a negative [warmup_cycles] or a non-positive
    [measure_cycles]. *)
val make :
  ?warmup_cycles:int ->
  ?measure_cycles:int ->
  ?seed:int ->
  key_range:int ->
  insert_pct:int ->
  delete_pct:int ->
  threads:int ->
  unit ->
  t

(** e.g. ["35i/35d/30c r1024 t8"]. *)
val to_string : t -> string
