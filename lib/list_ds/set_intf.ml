(** Common signature for every concurrent ordered-set implementation in this
    repository (lists and trees alike), as consumed by the workload driver
    in [lib/workload].

    Keys are non-negative ints that fit a {!Mt_core.Half}: the lists take
    [\[0, Half.limit - 1)] (the tail sentinel holds [Half.limit - 1]), the
    trees [\[0, Half.limit)]. [insert] raises [Invalid_argument] on a key
    outside the domain; [contains] and [delete] of such a key return
    [false]. All operations must be called from within a simulated fiber
    (they stall). *)

module type SET = sig
  type t

  (** Short human-readable name used in benchmark tables. *)
  val name : string

  (** [create ctx] builds an empty set (sentinels only). *)
  val create : Mt_core.Ctx.t -> t

  (** [insert ctx t k] adds [k]; returns [false] if already present. *)
  val insert : Mt_core.Ctx.t -> t -> int -> bool

  (** [delete ctx t k] removes [k]; returns [false] if absent. *)
  val delete : Mt_core.Ctx.t -> t -> int -> bool

  (** [contains ctx t k] — membership test. *)
  val contains : Mt_core.Ctx.t -> t -> int -> bool

  (** [to_list_unsafe machine t] reads the set contents directly from
      simulated memory, bypassing the timing model. Only meaningful when no
      fibers are running (test oracles, invariant checks). Returns keys in
      ascending order, sentinels excluded. *)
  val to_list_unsafe : Mt_sim.Machine.t -> t -> int list
end

(** [prefilled (module S) ctx ~seed ~key_range ~fill] builds an empty set
    and inserts each key of [\[0, key_range)], in ascending order, with
    probability [fill] drawn from a fresh PRNG seeded with [seed] — the
    setup phase the closed-loop driver, the serve layer and the bench
    panels share. *)
let prefilled (type s) (module S : SET with type t = s) ctx ~seed ~key_range
    ~fill : s =
  let s = S.create ctx in
  let g = Mt_sim.Prng.create ~seed in
  for k = 0 to key_range - 1 do
    if Mt_sim.Prng.float g < fill then ignore (S.insert ctx s k)
  done;
  s
