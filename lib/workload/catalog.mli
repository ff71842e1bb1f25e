(** The one table of runnable structures.

    Every front-end that picks a structure by name ([memtag_bench],
    [memtag_fuzz], [bench/main.exe], the store tests) reads it here, so a
    new structure costs one entry. Canonical names are the fuzzer's
    ([abtree_hoh]); the names the other front-ends used before
    ([abtree-hoh], the store's [hoh-abtree]) stay accepted as aliases. *)

type entry = {
  name : string;  (** canonical name, as [memtag_fuzz] prints it *)
  aliases : string list;
  set : (module Mt_list.Set_intf.SET);
      (** the instance the benchmarks run; the trees at the paper's (4,8) *)
  fuzz : (module Mt_check.Explore.TARGET);
      (** the fuzzer's instance: [set], except the trees at (2,4), whose
          final structure every run also audits *)
  backend : (module Mt_store.Backend.S) option;  (** the store shard backend *)
  canary : bool;
      (** a deliberately broken structure: fuzzed to prove the checker can
          fail, never benchmarked *)
}

val harris_list : entry
val vas_list : entry
val hoh_list : entry
val elided_list : entry
val abtree_hoh : entry
val abtree_llx : entry

(** The store's B+-tree ({!Mt_store.Tx_btree}) as a standalone set, each
    operation one tagged-NOrec transaction; its store backend is
    {!Mt_store.Backend.Norec_map}, the same tree written directly under
    the shard lock. *)
val norec_btree : entry

(** Every entry, the canaries last. *)
val all : entry list

(** The entries that are not canaries, in {!all}'s order: what [--all]
    runs in both CLIs. *)
val runnable : entry list

(** [find among name] is the entry of [among] whose name or alias is
    [name]. *)
val find : entry list -> string -> entry option

(** [known among] lists [among]'s names for help texts and errors:
    ["harris_list|harris, vas_list|vas, ..."]. *)
val known : entry list -> string

(** The store's shard backends, in {!all}'s order: [hoh-abtree],
    [norec-tagged]. *)
val backends : (module Mt_store.Backend.S) list
