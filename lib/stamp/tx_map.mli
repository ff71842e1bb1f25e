(** A transactional ordered map in simulated memory (key -> value ints),
    accessed exclusively through an STM's read/write primitives.

    STAMP's vacation uses red-black trees for its relation tables; with the
    uniformly random ids the benchmark generates, an unbalanced BST has the
    same expected depth profile (O(log n)) and identical transactional
    footprint character, so we use one (documented in DESIGN.md). *)

module Make (S : Mt_stm.Stm_intf.S) : sig
  type t

  (** Allocate an empty map (call outside or inside a transaction). *)
  val create : Mt_core.Ctx.t -> t

  val find : S.tx -> t -> int -> int option

  (** [insert tx t k v] — false if [k] already bound. *)
  val insert : S.tx -> t -> int -> int -> bool

  (** [update tx t k v] — false if [k] unbound. *)
  val update : S.tx -> t -> int -> int -> bool

  (** [remove tx t k] — the removed value, if any. *)
  val remove : S.tx -> t -> int -> int option

  (** In-transaction fold over all bindings in ascending key order. *)
  val fold : S.tx -> t -> init:'a -> f:('a -> int -> int -> 'a) -> 'a

  (** Timing-free contents for test oracles (quiescent machine only). *)
  val to_alist_unsafe : Mt_sim.Machine.t -> t -> (int * int) list
end
