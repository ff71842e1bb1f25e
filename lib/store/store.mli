(** The sharded store.

    Range-partitions a key space across per-core shards (with [span =
    ceil(key_space / shards)], key [k] lives in shard [k / span]), each a
    B+-tree ({!Backend.S}) that only the shard-lock holder updates. All
    cross-operation coordination lives in one plain {e version word} per
    shard (even = unlocked, odd = locked, monotonically increasing):

    - {b point ops} touch exactly one shard with zero cross-shard
      coordination, and descend once. A write first walks its key with
      the tree's plain one-key descent ([find]) between two reads of
      the shard version; an insert of a present key or a delete of an
      absent key whose reads agree on an even value returns [false]
      without the lock (no CAS). Every other write takes the shard's
      version lock with a single-word CAS and, when that CAS took the
      version read before the walk, updates the leaf the walk found;
      otherwise it descends again. A get runs [find] between two reads of
      the version, and retries unless they agree on an even value;
    - {b transactions} first read each touched shard's version and walk
      each sub-op's key with [find] (warming the cache outside the
      critical section), then take every touched shard's lock with one
      tagged load of each version and a VAS of each from even v to v+1 in
      shard order (the chain completes only if no tagged version moved),
      run the sub-ops (on the found leaves in each shard whose version
      did not move since it was read), and release each lock with a
      single-word CAS after the last one.
      Every lock is held across every sub-op (strict two-phase locking),
      so the commit is atomic. When the tagged acquisition keeps losing
      races, or the transaction touches more shards than the tag set
      holds, the transaction takes the store's fallback lock, then the
      shard locks one at a time; only one transaction at a time holds
      the fallback lock, so fallbacks never wait on each other and a
      transaction always commits;
    - {b scans} walk only the shards their window meets (one, or two
      where it crosses a shard boundary) with the tree's collect
      over tagged loads, so the tag set holds exactly the lines walked
      (no version word), read each touched shard's version until it is
      even, and certify the whole scan with one validate; a write
      elsewhere in a shard does not break it. A failed validate, a lock
      that never clears or a walk longer than [Max_Tags] lines falls
      back to monotone-version re-read rounds that re-collect only the
      shards that actually moved (a round skips a shard it finds locked
      instead of waiting, and walks it in a later round), so tag
      pressure degrades a scan
      instead of failing it. When writers move some shard in every one
      of 8 rounds, the scan takes the touched shards' locks like a
      fallback transaction and finishes under them.

    Progress and accounting are deterministic: a run is a pure function
    of the simulation, byte-identical for any [--jobs] and with tracing
    on or off. Obs hooks: [Store_op], [Txn_commit], [Scan_validate]. *)

type op = Get | Insert | Delete

(** Host-level operation counters (a pure function of the simulation).
    {!stats} returns a copy; the store keeps counting into its own. *)
type stats = {
  mutable point_ops : int;
  mutable txn_commits : int;
  mutable txn_aborts : int;
      (** always 0: a transaction falls back to serialized locking
          instead of aborting (the field is kept for readers of the
          counters) *)
  mutable txn_sub_ops : int;
  mutable txn_retries : int;
      (** failed tagged acquisitions; a transaction that fails 9 (the
          first attempt and 8 retries), or touches more shards than
          [Max_Tags], takes the fallback, so
          [txn_retries = txn_retries_locked + txn_retries_version] *)
  mutable txn_retries_locked : int;  (** retries caused by a locked shard *)
  mutable txn_retries_version : int;  (** retries caused by a version change *)
  mutable scans : int;
  mutable scan_collects : int;  (** per-shard walk executions (>= touched shards) *)
  mutable scan_tag_fallbacks : int;
      (** scans whose tag-certified pass failed (a failed validate, a
          lock that never cleared, or a walk past [Max_Tags]) and that
          took the plain re-read rounds *)
  mutable scan_shard_retries : int;
      (** shards the re-read rounds found moved, or locked and skipped,
          and so walk again *)
  shard_ops : int array;  (** routed ops per shard (imbalance source) *)
  mutable txn_locked_cycles : int;
      (** simulated cycles from lock acquisition to release, summed over
          committed transactions *)
}

type t

(** [create backend ctx ~shards ~key_space] — keys are [0 .. key_space-1].
    Call from a quiescent context (e.g. serve setup) before sharing.
    Raises [Invalid_argument] when [key_space > 2^31]: keys must fit a
    31-bit field (the B+-tree packs two per word). *)
val create :
  (module Backend.S) ->
  Mt_core.Ctx.t ->
  shards:int ->
  key_space:int ->
  t

val num_shards : t -> int
val key_space : t -> int

(** The shard routing function: [k / span], where [span =
    ceil(key_space / num_shards)]. A shard past [(key_space - 1) / span]
    holds no key: 5 keys over 4 shards fill shards 0-2. Raises
    [Invalid_argument] for a key outside [\[0, key_space)]. *)
val shard_of : t -> int -> int

(** Point ops: shard-local, linearizable. [get] runs the tree's
    plain [find] descent between two reads of the shard version and
    returns once they agree on an even value; it takes no lock, tag or
    STM transaction. A write that would change nothing returns [false]
    without locking when its shard is quiet. *)
val get : Mt_core.Ctx.t -> t -> int -> bool

val insert : Mt_core.Ctx.t -> t -> int -> bool
val delete : Mt_core.Ctx.t -> t -> int -> bool

(** [txn ctx t ops] — atomic multi-key transaction across shards: every
    sub-op runs under all touched shard locks, released after the last, and
    the per-sub-op results come back in the order the sub-ops were given.
    It always commits. Before its first acquisition attempt it reads each
    touched shard's version and runs [find] on each sub-op's key, so the
    locked sub-ops hit in L1 and the locks are held briefly (see
    [txn_locked_cycles]). Under the locks a shard whose version did not
    move since that read runs its sub-ops on the found leaves
    ([insert_at], [delete_at], [mem_at]) until one needs the full path;
    other shards run the tree's [insert], [delete] and [find]. *)
val txn : Mt_core.Ctx.t -> t -> (int * op) list -> bool list

(** [scan ctx t ~lo ~hi] — an atomic snapshot of the keys in [\[lo, hi\]]
    (both within the key space), in ascending order. It walks shards
    [lo / span .. hi / span] only and concatenates their keys in shard
    order. Certified by one validate over the lines its walks read; its
    fallback retries only the shards whose version moved. *)
val scan : Mt_core.Ctx.t -> t -> lo:int -> hi:int -> int list

val stats : t -> stats
val reset_stats : t -> unit

(** Hottest shard's share of routed ops, normalized: 1.0 = perfectly
    uniform, [num_shards] = everything on one shard. *)
val imbalance : stats -> float

(** Timing-free contents for test oracles (quiescent machine only). *)
val to_list_unsafe : Mt_sim.Machine.t -> t -> int list
