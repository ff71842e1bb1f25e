(** Pluggable shard backends for the sharded store.

    A backend is a set structure driven under the store's per-shard
    version lock, plus two plain-read walks, a range collect and a
    one-key descent. Its contract with the store:
    - only the holder of the shard lock calls [insert] and [delete];
    - every other access uses [mem_plain] or [scan_plain].
    The store never asks a backend for [contains].

    {b Why the norec-tagged shard needs no synchronization of its own.}
    {!Norec_map} writes its tree directly ({!Tx_btree.Direct}); no STM
    runs on the store path. That is sound because:
    + Every [insert]/[delete] call in [store.ml] runs while the shard's
      version is odd and held by the calling core: a point write between
      its lock CAS and its release CAS, a transaction's sub-op between
      its acquisition and its releases.
    + Every other access to a shard's tree is one of:
      - a plain walk whose result is used only between two equal even
        reads of the version (a get, a write's no-op proof, a scan's
        collect), so no update ran during it;
      - a walk under the caller's own lock (a transaction's [Get]);
      - a walk whose result is discarded (the warm-up walk of a write
        or a transaction).
    + A plain walk terminates against direct writes made in program
      order, for the reasons it terminates against NOrec's in-order
      write-back: a node's header is its first write, a child half holds
      only null or a node address, and counts are clamped
      ({!Tx_btree}, "Plain walks").

    The HoH backends keep their own tagged synchronization (they are the
    paper's structures); under the lock it is simply uncontended. *)

module type S = sig
  type t

  (** Short name used in benchmark tables and store run names. *)
  val name : string

  (** [create ctx] builds an empty shard. *)
  val create : Mt_core.Ctx.t -> t

  (** [insert ctx t k] adds [k]; false if already present. Called only
      by the holder of the shard lock. *)
  val insert : Mt_core.Ctx.t -> t -> int -> bool

  (** [delete ctx t k] removes [k]; false if absent. Called only by the
      holder of the shard lock. *)
  val delete : Mt_core.Ctx.t -> t -> int -> bool

  (** Plain (untagged, unvalidated) walk collecting the keys in
      [\[lo, hi\]], visiting at most [budget] nodes. Only atomic under an
      external quiescence proof (the store's version protocol). It has
      two users: scans collect shards with it, and writes and
      transactions walk each key with the one-key walk [~lo:k ~hi:k]
      (which must return [\[k\]] when [k] is present and [\[\]]
      otherwise) before taking any shard lock: a write to prove itself a
      no-op or to warm its lines, a transaction only to warm them. *)
  val scan_plain :
    Mt_core.Ctx.t -> t -> lo:int -> hi:int -> budget:int -> int list

  (** Plain (untagged, unvalidated) one-key membership descent,
      terminating against a concurrent lock holder's updates but exact
      only under the same quiescence proof as [scan_plain]. Gets run it
      between two equal even reads of the shard version, and a
      transaction's [Get] sub-ops under the held shard locks. *)
  val mem_plain : Mt_core.Ctx.t -> t -> int -> bool

  (** Timing-free contents, ascending, for test oracles (quiescent
      machine only). *)
  val to_list_unsafe : Mt_sim.Machine.t -> t -> int list
end

(** The hand-over-hand tagged list ({!Mt_list.Hoh_list}). *)
module Hoh_list : S

(** The HoH-tagged relaxed (a,b)-tree, {!Mt_abtree.Abtree_hoh.Paper}
    under the name ["hoh-abtree"]. *)
module Hoh_abtree : S

(** A B+-tree ({!Tx_btree.Direct}, one cache line per node, two 31-bit
    fields per word: fanout 8, 14-key leaves) written directly under the
    shard lock. The name ["norec-tagged"] dates from when each shard ran
    it on a private tagged-NOrec instance; it is kept because benchmark
    identities are keyed on it. *)
module Norec_map : S

val name : (module S) -> string
