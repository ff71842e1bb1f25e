(** Pluggable shard backends for the sharded store.

    A backend is a set structure driven under the store's per-shard
    version lock, plus a range collect written over its load (plain or
    tagged, {!Mt_core.Ctx.load}), a plain one-key descent ([find]) that
    reports the leaf it ended at, and updates on that leaf. Its contract
    with the store:
    - only the holder of the shard lock calls [insert], [delete],
      [insert_at], [delete_at] and [mem_at];
    - every other access uses [find] or [collect].
    The store never asks a backend for [contains].

    {b Why the norec-tagged shard needs no synchronization of its own.}
    {!Norec_map} writes its tree directly ({!Tx_btree.Direct}); no STM
    runs on the store path. That is sound because:
    + Every update in [store.ml] runs while the shard's version is odd
      and held by the calling core: a point write between its lock CAS
      and its release CAS, a transaction's sub-op between its
      acquisition and its releases.
    + Every other access to a shard's tree is one of:
      - a plain walk whose result is used only between two equal even
        reads of the version (a get, a write's no-op proof, a fallback
        scan's collect), so no update ran during it;
      - a scan's tagged collect, certified as below;
      - a walk under the caller's own lock (a transaction's [Get], a
        scan's locked pass);
      - a walk reused under the caller's lock when the lock CAS found
        the version the walk started from: a write's or a transaction's
        [find], whose leaf the locked [insert_at], [delete_at] and
        [mem_at] then use. The version was an even [v] before the walk
        and the CAS took [v] to [v + 1]; versions only grow, so no lock
        was held and nothing was written in between, and the walk is
        exact for the state the lock holder starts from;
      - a walk whose result is discarded (a transaction's [find] on a
        shard whose version moved before its lock).
    + A walk terminates against direct writes made in program order, for
      the reasons it terminates against NOrec's in-order write-back: a
      node's header is its first write, a child half holds only null or
      a node address, and counts are clamped ({!Tx_btree}, "Plain
      walks").

    {b Why a tagged collect is a snapshot.} A scan runs [collect] with a
    tagged load on every relevant shard, so each line a walk read is in
    the tag set from its read on. After the walks it reads each shard's
    version until it is even, at some instant [t_v] of its own, and then
    validates once, at [t_val]. The argument has two parts.
    + The tags: a validate that succeeds proves that no line the scan read
      was written between its read and [t_val]. A walk is a deterministic
      function of the words it reads, so a walk over memory as it stands
      at any instant in [\[t_v, t_val\]] reads the same lines, sees the
      same words and returns the same keys.
    + The even version: only lock holders write a shard, and at [t_v] no
      core held its lock, so memory at [t_v] is a committed state of the
      shard. A writer that locks after [t_v] and commits before [t_val]
      wrote none of the lines read (or the validate fails), so the state
      it commits holds the same range contents.
    Together these make each shard's range contents constant from its
    [t_v] to [t_val], and equal to what its walk returned. [t_val] lies
    in every shard's interval, so that one instant serves every shard at
    once; the scan linearizes there. Without the even read the tags alone
    are not enough: memory at [t_val] may be a lock holder's half-done
    update (a B+-tree split written node by node) whose remaining writes
    fall after [t_val], so a walk can read a state no committed history
    ever held.

    The HoH tree keeps its own tagged synchronization (it is the paper's
    structure); under the lock it is simply uncontended. *)

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

  (** [collect load ctx t ~lo ~hi ~budget] walks the keys in
      [\[lo, hi\]], visiting at most [budget] nodes, and reads the first
      word of every line it depends on with [load]: a tagged load tags
      each such line (the root or head cell, then every node), so one
      validate certifies the walk as above. With
      {!Mt_core.Ctx.plain_load} it is a plain walk, only atomic under an
      external quiescence proof (the store's version protocol): a scan's
      fallback rounds and its locked pass. *)
  val collect :
    Mt_core.Ctx.load ->
    Mt_core.Ctx.t ->
    t ->
    lo:int ->
    hi:int ->
    budget:int ->
    int list

  (** Plain (untagged, unvalidated) one-key descent: whether the key is
      present and, when the backend has one, the leaf that holds its
      range. It terminates against a concurrent lock holder's updates but
      is exact only under the same quiescence proof as a plain [collect].
      Gets run it between two equal even reads of the shard version,
      writes to prove themselves no-ops and to find their leaf, and
      transactions to find their sub-ops' leaves and warm their lines
      before locking. *)
  val find : Mt_core.Ctx.t -> t -> int -> Tx_btree.found

  (** [insert_at ctx t f k], [delete_at ctx t f k] and [mem_at ctx t f k]:
      {!Tx_btree.TREE.insert_at} and its siblings on the leaf of [f], a
      [find] of a shard that has changed since only through the caller's
      own [*_at] updates. A backend without leaves answers [Full_path]
      (the store then runs [insert] or [delete]) and searches from the
      root in [mem_at]. Called only by the holder of the shard lock. *)
  val insert_at : Mt_core.Ctx.t -> t -> Tx_btree.found -> int -> Tx_btree.at

  val delete_at : Mt_core.Ctx.t -> t -> Tx_btree.found -> int -> Tx_btree.at
  val mem_at : Mt_core.Ctx.t -> t -> Tx_btree.found -> int -> bool

  (** Timing-free contents, ascending, for test oracles (quiescent
      machine only). *)
  val to_list_unsafe : Mt_sim.Machine.t -> t -> int list
end

(** The HoH-tagged relaxed (a,b)-tree, {!Mt_abtree.Abtree_hoh.Paper}
    under the name ["hoh-abtree"]. Its [find] is its [contains] and
    reports no leaf; its updates commit through its own IAS, so its
    [insert_at] and [delete_at] answer [Full_path]. *)
module Hoh_abtree : S

(** A B+-tree ({!Tx_btree.Direct}, one cache line per node, two 31-bit
    fields per word: fanout 8, 14-key leaves) written directly under the
    shard lock. The name ["norec-tagged"] dates from when each shard ran
    it on a private tagged-NOrec instance; it is kept because benchmark
    identities are keyed on it. *)
module Norec_map : S

val name : (module S) -> string
