open Mt_core
module Obs = Mt_obs.Obs

(* A sharded store. Keys hash-partition (k mod shards) across per-core
   shards, each a B+-tree (Backend, over Tx_btree). Concurrency control
   lives entirely in one plain *version word* per shard (its own cache
   line): even = unlocked, odd = locked, and the value only ever
   increases, so there is no ABA. Every tree update below runs while this
   core holds its shard's lock, and every other tree access is a plain
   walk, so a shard needs no synchronization of its own: it writes its
   B+-tree directly (backend.mli has the argument).

   - Point writes descend once. Read the version, walk the key with the
     tree's plain one-key descent ([find], which also returns the leaf it
     ended at), and, when the key is already as the write would
     leave it, re-read the version. An insert of a present key or a
     delete of an absent key whose two reads agree on an even version
     returns [false] having written nothing: it linearizes between the
     reads, by [get]'s argument, and leaves the version line shared, so
     it breaks no scan's tag and no transaction's acquisition. Every
     other write locks its one shard with a single-word CAS (even v ->
     v+1). When that CAS took the version read before the walk, nothing
     was written since before the walk, so the update runs on the leaf
     the walk found; otherwise it descends again, on the lines the walk
     warmed. It releases with v+1 -> v+2. Zero cross-shard coordination.
   - Point gets are optimistic: read the version (even), walk the key
     with [find], re-read the version; equal means no writer held or
     took the shard lock during the walk, so the shard was frozen and the
     value seen is committed state. The version reads are the whole
     proof: the walk reads no tag, lock or STM sequence lock of its own,
     so a get touches only the version line and the nodes on its key's
     path. (Without the closing read a get could observe a cross-shard
     transaction's sub-op before the transaction's release —
     unlinearizable, see test_store.)
   - Transactions read each touched shard's version, then [find] each
     sub-op's key outside any lock, so the critical section runs on
     cached lines. They then take every touched shard's lock with the
     paper's VAS: one tagged load of each version word, then a VAS of
     each from even v to v+1 in shard order. VAS validates the whole tag
     set, so the chain completes only if no touched version moved since
     it was tagged; a chain broken after its first VAS releases what it
     took (v+1 -> v+2, keeping versions monotone). Sub-ops run under the
     locks, on the found leaves in each shard whose lock took the version
     read before the finds (as for a point write), from the root in the
     others; a shard's sub-ops return to the root after one of them
     splits a leaf. Each lock is then released with the point writers'
     single-word CAS. Every shard stays locked from before the first
     sub-op until after the last — strict two-phase locking — so the
     commit linearizes at any instant all the locks are held. When the
     first acquisition and [txn_max_retries] retries all fail, or the
     transaction touches more shards than the tag set holds, it takes
     the store's fallback lock (one more lock word), then the same shard
     locks one at a time with the point writers' spinning [acquire],
     drops the fallback lock and commits the same way. Only the
     fallback-lock holder ever waits while holding a shard lock, so
     there is no deadlock and a transaction never aborts.
   - Scans walk every touched shard with the tree's collect over a
     tagged load, so the tag set holds exactly the lines the walks read
     and no version word; then read each touched shard's version until
     it is even (at most [txn_max_retries] waits), then validate once.
     The tags prove no line read was written before the validate, and
     the even versions that no writer was mid-update, so each shard's
     range contents held still from its version read to the validate:
     one instant for every shard (backend.mli has the proof). A write
     elsewhere in a shard breaks nothing. A failed validate, a lock that
     never clears or a walk that would outgrow [Max_Tags] falls back to
     plain re-read rounds: versions are monotone, so a version unchanged
     between a shard's pre-walk pin and the re-read pass proves that
     shard quiescent over an interval containing the pass start, again
     a common instant. Only shards whose version moved are walked
     again. After [txn_max_retries] rounds in which some shard moved,
     the scan takes the shards' locks the way a fallback transaction
     does, so it finishes however busy the writers are. *)

type op = Get | Insert | Delete


(* Host-level accounting: a pure function of the simulation, so it is
   byte-identical for any --jobs and with tracing on or off. *)
type stats = {
  mutable point_ops : int;
  mutable txn_commits : int;
  mutable txn_aborts : int;
  mutable txn_sub_ops : int;
  mutable txn_retries : int;
  mutable txn_retries_locked : int;  (* failed acquisitions, by cause *)
  mutable txn_retries_version : int;
  mutable scans : int;
  mutable scan_collects : int;
  mutable scan_tag_fallbacks : int;
  mutable scan_shard_retries : int;
  shard_ops : int array;
  mutable txn_locked_cycles : int;  (* acquisition -> release, commits *)
}

let zero_stats ~shards =
  {
    point_ops = 0;
    txn_commits = 0;
    txn_aborts = 0;
    txn_sub_ops = 0;
    txn_retries = 0;
    txn_retries_locked = 0;
    txn_retries_version = 0;
    scans = 0;
    scan_collects = 0;
    scan_tag_fallbacks = 0;
    scan_shard_retries = 0;
    shard_ops = Array.make shards 0;
    txn_locked_cycles = 0;
  }

(* Shard imbalance: hottest shard's share of routed ops, normalized so a
   perfectly uniform split is 1.0 and "everything on one shard" is
   [num_shards]. *)
let imbalance st =
  let total = Array.fold_left ( + ) 0 st.shard_ops in
  if total = 0 then 1.0
  else
    let hottest = Array.fold_left max 0 st.shard_ops in
    float_of_int (hottest * Array.length st.shard_ops) /. float_of_int total

type t =
  | T : {
      backend : (module Backend.S with type t = 'b);
      shards : 'b array;
      versions : Ctx.addr array;
      fallback : Ctx.addr;  (* lock word serializing locking fallbacks *)
      key_space : int;
      scan_budget : int;
      mutable c : stats;
    }
      -> t

(* Tagged acquisition retries a transaction makes, and plain re-read
   rounds a scan makes, before falling back to serialized locking. *)
let txn_max_retries = 8

(* Keys share a word with another 31-bit field in the B+-tree's
   nodes. *)
let key_space_limit = 1 lsl 31

let create (backend : (module Backend.S)) ctx ~shards ~key_space =
  if shards <= 0 then invalid_arg "Store.create: shards must be positive";
  if key_space < shards then invalid_arg "Store.create: key_space < shards";
  if key_space > key_space_limit then
    invalid_arg "Store.create: key_space > 2^31, past the 31-bit key field";
  let (module B) = backend in
  (* One word per line, so shard locks never false-share; memory comes
     zeroed, so every lock starts free at version 0. *)
  let versions =
    Array.init shards (fun _ -> Ctx.alloc ~label:"store-version" ctx ~words:1)
  in
  let fallback = Ctx.alloc ~label:"store-fallback" ctx ~words:1 in
  let per_shard = ((key_space + shards - 1) / shards) + 1 in
  T
    {
      backend = (module B : Backend.S with type t = B.t);
      shards = Array.init shards (fun _ -> B.create ctx);
      versions;
      fallback;
      key_space;
      (* Enough fuel to walk a whole shard (a walk visits at most ~2
         nodes per resident key) plus slack; a doomed racy walk burning
         it out just fails the version check and retries. *)
      scan_budget = (2 * per_shard) + 64;
      c = zero_stats ~shards;
    }

let num_shards (T s) = Array.length s.versions
let key_space (T s) = s.key_space

let shard_of (T s) k =
  if k < 0 then invalid_arg "Store.shard_of: negative key";
  k mod Array.length s.versions

let stats (T s) = { s.c with shard_ops = Array.copy s.c.shard_ops }
let reset_stats (T s) = s.c <- zero_stats ~shards:(Array.length s.versions)

(* Event records are built only under [tracing], so an untraced run
   allocates none. *)
let tracing ctx = Obs.enabled (Ctx.obs ctx)
let emit ctx kind =
  Obs.emit (Ctx.obs ctx) ~core:(Ctx.core ctx) ~time:(Ctx.now ctx) kind

let check_key key_space k =
  if k < 0 || k >= key_space then invalid_arg "Store: key out of range"

let locked v = v land 1 = 1
let backoff_cycles attempt = min 512 (16 lsl min attempt 5)

(* The historical capped-shift backoff is each retry site's [immediate]
   default; a non-immediate contention policy replaces it (keyed on the
   shard's version word as the contended location). *)
let retry_wait ctx ~site ~attempt =
  Ctx.cm_wait_default ~site ctx ~attempt ~default:(fun () ->
      backoff_cycles attempt)

(* Spin until the lock word [a] is even and our CAS takes it odd.
   Returns the locked (odd) value. Every lock holder releases without
   waiting, except the one fallback transaction holding the store's
   fallback lock; so this terminates under any fair schedule. The loop
   is a top-level function so that a lock taken at once builds no
   closure. *)
let rec acquire_from ctx a attempt =
  let v = Ctx.read ctx a in
  if (not (locked v)) && Ctx.cas ctx a ~expected:v ~desired:(v + 1) then v + 1
  else begin
    retry_wait ctx ~site:a ~attempt;
    acquire_from ctx a (attempt + 1)
  end

let acquire ctx a = acquire_from ctx a 0

let release ctx a vlocked =
  (* We hold the lock: nothing else may move the word, and a
     transaction's VAS only fires on even values. *)
  let ok = Ctx.cas ctx a ~expected:vlocked ~desired:(vlocked + 1) in
  if not ok then failwith "Store: release CAS lost while holding the lock"

let point_done ctx c sh =
  c.point_ops <- c.point_ops + 1;
  c.shard_ops.(sh) <- c.shard_ops.(sh) + 1;
  if tracing ctx then emit ctx (Obs.Store_op { shard = sh })

(* An insert ([~insert:true]) or delete of [k], with one descent. The
   unlocked [find] either proves the write a no-op at an instant between
   two equal even version reads — the shard was frozen across the walk —
   or finds the leaf the locked update then writes. The lock CAS decides
   which leaf: when it took the version read before the walk (lock value
   v + 1, so v was even), versions only grow and only lock holders
   write, so the shard has not changed since before the walk and the
   update runs on the leaf the walk found. Otherwise (the first read
   found the shard locked, or the version moved) the walk only warmed
   the lines, and the update descends again from the root. A leaf too
   full to take the key also sends an insert to the root, to split. *)
let write ctx (T s) k ~insert =
  check_key s.key_space k;
  let module B = (val s.backend) in
  let sh = k mod Array.length s.versions in
  let a = s.versions.(sh) and shard = s.shards.(sh) in
  let v = Ctx.read ctx a in
  let f = B.find ctx shard k in
  let r =
    if Tx_btree.present f = insert && (not (locked v)) && Ctx.read ctx a = v
    then false
    else begin
      let vl = acquire ctx a in
      let r =
        match
          if vl <> v + 1 then Tx_btree.Full_path
          else (if insert then B.insert_at else B.delete_at) ctx f k
        with
        | Changed -> true
        | Unchanged -> false
        | Full_path -> (if insert then B.insert else B.delete) ctx shard k
      in
      release ctx a vl;
      r
    end
  in
  point_done ctx s.c sh;
  r

let insert ctx t k = write ctx t k ~insert:true
let delete ctx t k = write ctx t k ~insert:false

let get ctx (T s) k =
  check_key s.key_space k;
  let module B = (val s.backend) in
  let sh = k mod Array.length s.versions in
  let rec attempt tries =
    let v = Ctx.read ctx s.versions.(sh) in
    if locked v then begin
      retry_wait ctx ~site:s.versions.(sh) ~attempt:tries;
      attempt (tries + 1)
    end
    else begin
      let r = Tx_btree.present (B.find ctx s.shards.(sh) k) in
      (* Version unchanged across the walk: no writer held or took the
         shard lock meanwhile, so [r] is committed state. *)
      if Ctx.read ctx s.versions.(sh) = v then r
      else begin
        retry_wait ctx ~site:s.versions.(sh) ~attempt:tries;
        attempt (tries + 1)
      end
    end
  in
  let r = attempt 0 in
  point_done ctx s.c sh;
  r

(* Serialized locking, for a transaction that could not take its locks
   with tags and a scan whose re-read rounds kept losing to writers:
   under the store's fallback lock, spin on each shard lock of
   [shard_ids] (ascending, non-empty) in turn. Only the fallback-lock
   holder ever waits while holding a shard lock, and every holder it
   waits for releases without waiting, so this makes progress where
   optimism kept losing races. One fallback at a time keeps lock holders
   from queueing behind each other on the hot shards. Returns each shard
   with the even version its lock CAS took, in order, and the time the
   first lock was taken. *)
let lock_serially ctx ~fallback versions shard_ids =
  let fl = acquire ctx fallback in
  let first = List.hd shard_ids in
  let v0 = acquire ctx versions.(first) - 1 in
  let t_locked = Ctx.now ctx in
  let rest =
    List.map (fun sh -> (sh, acquire ctx versions.(sh) - 1)) (List.tl shard_ids)
  in
  release ctx fallback fl;
  ((first, v0) :: rest, t_locked)

let txn ctx (T s) ops =
  List.iter (fun (k, _) -> check_key s.key_space k) ops;
  match ops with
  | [] -> []
  | _ ->
      let module B = (val s.backend) in
      let nsh = Array.length s.versions in
      let shard_ids =
        List.sort_uniq compare (List.map (fun (k, _) -> k mod nsh) ops)
      in
      let t0 = Ctx.now ctx in
      (* Find before locking: one plain descent per sub-op key finds the
         leaf its sub-op will touch and pulls the path into this core's
         cache, so the critical section below hits in L1 instead of
         paying directory misses while every touched shard is locked.
         Each touched shard's version is read first: a shard whose lock
         takes that version has not changed since, and runs its sub-ops
         on the found leaves. The read also brings the version line in,
         so the acquisition's tagged load hits. *)
      let before =
        List.map (fun sh -> Ctx.read ctx s.versions.(sh)) shard_ids
      in
      let found =
        List.map (fun (k, _) -> B.find ctx s.shards.(k mod nsh) k) ops
      in
      let rec acquire_all attempt =
        if
          attempt > txn_max_retries
          || List.length shard_ids > Mt_sim.Machine.max_tags (Ctx.machine ctx)
        then begin
          let vs, t_locked =
            lock_serially ctx ~fallback:s.fallback s.versions shard_ids
          in
          (vs, attempt, t_locked)
        end
        else begin
          (* All-or-nothing acquisition: tag every touched version, then
             VAS each even v -> odd v+1 in shard order. Each VAS
             validates the whole tag set, so the chain only completes if
             no tagged version moved; a failed first VAS writes nothing,
             and a later failure releases the locks already taken to
             v+2, not v, keeping versions monotone. *)
          Ctx.clear_tag_set ctx;
          let vs =
            List.map
              (fun sh -> (sh, Ctx.add_tag_read ctx s.versions.(sh) ~words:1))
              shard_ids
          in
          let rec take = function
            | [] -> true
            | (sh, v) :: rest ->
                if Ctx.vas ctx s.versions.(sh) (v + 1) then take rest
                else begin
                  List.iter
                    (fun (sh', v') ->
                      if sh' < sh then release ctx s.versions.(sh') (v' + 1))
                    vs;
                  false
                end
          in
          let busy = List.exists (fun (_, v) -> locked v) vs in
          let taken = (not busy) && take vs in
          Ctx.clear_tag_set ctx;
          if taken then (vs, attempt, Ctx.now ctx)
          else begin
            if busy then s.c.txn_retries_locked <- s.c.txn_retries_locked + 1
            else s.c.txn_retries_version <- s.c.txn_retries_version + 1;
            retry_wait ctx ~site:s.versions.(List.hd shard_ids) ~attempt;
            acquire_all (attempt + 1)
          end
        end
      in
      let vs, retries, t_locked = acquire_all 0 in
      s.c.txn_retries <- s.c.txn_retries + retries;
      (* Sub-ops run under every touched shard's lock. Only lock holders
         change a shard, so a shard whose lock CAS took the version read
         before the finds is as they found it, apart from this
         transaction's own sub-ops: those run on the found leaves, each
         re-searching its leaf, until one needs the full path (an insert
         splitting a full leaf), after which the shard's sub-ops descend
         from the root. *)
      let fresh = Array.make nsh false in
      List.iter2 (fun (sh, v) v0 -> fresh.(sh) <- v = v0) vs before;
      let results =
        List.map2
          (fun (k, o) f ->
            let sh = k mod nsh in
            let shard = s.shards.(sh) in
            s.c.txn_sub_ops <- s.c.txn_sub_ops + 1;
            s.c.shard_ops.(sh) <- s.c.shard_ops.(sh) + 1;
            if tracing ctx then emit ctx (Obs.Store_op { shard = sh });
            match o with
            | Get ->
                if fresh.(sh) then B.mem_at ctx f k
                else Tx_btree.present (B.find ctx shard k)
            | Insert | Delete -> (
                let insert = o = Insert in
                match
                  if fresh.(sh) then
                    (if insert then B.insert_at else B.delete_at) ctx f k
                  else Tx_btree.Full_path
                with
                | Changed -> true
                | Unchanged -> false
                | Full_path ->
                    fresh.(sh) <- false;
                    (if insert then B.insert else B.delete) ctx shard k))
          ops found
      in
      (* Release only after the last sub-op: every lock was held across
         all of them (two-phase locking), so the commit needs no atomic
         release and each lock goes with one CAS. *)
      List.iter (fun (sh, v) -> release ctx s.versions.(sh) (v + 1)) vs;
      s.c.txn_commits <- s.c.txn_commits + 1;
      s.c.txn_locked_cycles <-
        s.c.txn_locked_cycles + (Ctx.now ctx - t_locked);
      if tracing ctx then
        emit ctx
          (Obs.Txn_commit
             { shards = List.length shard_ids; cycles = Ctx.now ctx - t0 });
      results

(* Relevant shards of a scan over [lo, hi]: the residue classes the
   window meets, every shard unless it is narrower than the shard
   count. *)
let relevant nsh ~lo ~width sh =
  width >= nsh || (sh - (lo mod nsh) + nsh) mod nsh < width

(* Reads version word [a] until it is even, waiting out a held lock for
   at most [txn_max_retries] tries; false if it never cleared. *)
let rec settled ctx a tries =
  (not (locked (Ctx.read ctx a)))
  || tries < txn_max_retries
     && begin
          retry_wait ctx ~site:a ~attempt:tries;
          settled ctx a (tries + 1)
        end

(* True when every relevant shard from [sh] on is [settled]. *)
let rec all_settled ctx versions ~lo ~width sh =
  let nsh = Array.length versions in
  sh >= nsh
  || ((not (relevant nsh ~lo ~width sh)) || settled ctx versions.(sh) 0)
     && all_settled ctx versions ~lo ~width (sh + 1)

(* The tag-certified pass: walk every relevant shard with tagged loads
   into [res], read each one's version until it is even, then validate
   once. True when that validate certified the whole scan. *)
let tagged_pass ctx c collect shards versions ~budget res ~lo ~hi ~width =
  let nsh = Array.length shards in
  Ctx.clear_tag_set ctx;
  let walked =
    match
      for sh = 0 to nsh - 1 do
        if relevant nsh ~lo ~width sh then begin
          res.(sh) <- collect Ctx.tagged_load ctx shards.(sh) ~lo ~hi ~budget;
          c.scan_collects <- c.scan_collects + 1
        end
      done
    with
    | () -> true
    | exception Ctx.Tag_set_full -> false
  in
  let ok =
    walked && all_settled ctx versions ~lo ~width 0 && Ctx.validate ctx
  in
  Ctx.clear_tag_set ctx;
  ok

(* The fallback: plain re-read rounds. Pin an even version, walk with
   plain reads, then re-read every version. Every walk precedes the
   re-read pass and every re-read follows its start, so an unchanged
   (monotone) version pins each shard's frozen interval around the pass
   start — a common instant. Only the shards that moved are walked
   again. Writers that keep moving a shard can beat every round, so after
   [txn_max_retries] rounds the scan stops optimizing: it takes the
   relevant shards' locks as a fallback transaction does, walks again
   each shard whose lock CAS did not take the version its last walk was
   pinned at, and releases. Every result then holds while all the locks
   are held. *)
let plain_rounds ctx c collect shards versions ~fallback ~budget res ~lo ~hi
    ~width =
  let nsh = Array.length shards in
  let vers = Array.make nsh 0 in
  let dirty = Array.init nsh (relevant nsh ~lo ~width) in
  let rec pin a tries =
    let v = Ctx.read ctx a in
    if locked v then begin
      retry_wait ctx ~site:a ~attempt:tries;
      pin a (tries + 1)
    end
    else v
  in
  let walk sh =
    res.(sh) <- collect Ctx.plain_load ctx shards.(sh) ~lo ~hi ~budget;
    c.scan_collects <- c.scan_collects + 1
  in
  let rec round n =
    for sh = 0 to nsh - 1 do
      if dirty.(sh) then begin
        vers.(sh) <- pin versions.(sh) 0;
        walk sh;
        dirty.(sh) <- false
      end
    done;
    let moved = ref false in
    for sh = 0 to nsh - 1 do
      if relevant nsh ~lo ~width sh && Ctx.read ctx versions.(sh) <> vers.(sh)
      then begin
        dirty.(sh) <- true;
        moved := true;
        c.scan_shard_retries <- c.scan_shard_retries + 1;
        if tracing ctx then
          emit ctx (Obs.Scan_validate { shard = sh; ok = false })
      end
    done;
    if !moved then
      if n < txn_max_retries then round (n + 1)
      else begin
        let vs, _ =
          lock_serially ctx ~fallback versions
            (List.filter (relevant nsh ~lo ~width) (List.init nsh Fun.id))
        in
        List.iter (fun (sh, v) -> if v <> vers.(sh) then walk sh) vs;
        List.iter (fun (sh, v) -> release ctx versions.(sh) (v + 1)) vs
      end
  in
  round 1

(* The index of the shard whose remaining keys start lowest, or -1. *)
let rec lowest res sh best k0 =
  if sh < 0 then best
  else
    match res.(sh) with
    | k :: _ when best < 0 || k < k0 -> lowest res (sh - 1) sh k
    | _ -> lowest res (sh - 1) best k0

(* Merges the shards' ascending, disjoint key lists, consuming [res]. *)
let[@tail_mod_cons] rec merge res =
  let sh = lowest res (Array.length res - 1) (-1) 0 in
  if sh < 0 then []
  else
    match res.(sh) with
    | [] -> []
    | k :: rest ->
        res.(sh) <- rest;
        k :: merge res

let scan ctx (T s) ~lo ~hi =
  check_key s.key_space lo;
  check_key s.key_space hi;
  if lo > hi then invalid_arg "Store.scan: lo > hi";
  let module B = (val s.backend) in
  let nsh = Array.length s.versions in
  let width = hi - lo + 1 in
  let budget = s.scan_budget in
  let res : int list array = Array.make nsh [] in
  if
    not
      (tagged_pass ctx s.c B.collect s.shards s.versions ~budget res ~lo ~hi
         ~width)
  then begin
    s.c.scan_tag_fallbacks <- s.c.scan_tag_fallbacks + 1;
    plain_rounds ctx s.c B.collect s.shards s.versions ~fallback:s.fallback
      ~budget res ~lo ~hi ~width
  end;
  if tracing ctx then
    for sh = 0 to nsh - 1 do
      if relevant nsh ~lo ~width sh then
        emit ctx (Obs.Scan_validate { shard = sh; ok = true })
    done;
  s.c.scans <- s.c.scans + 1;
  merge res

let to_list_unsafe machine (T s) =
  let module B = (val s.backend) in
  List.sort compare
    (List.concat_map
       (fun shard -> B.to_list_unsafe machine shard)
       (Array.to_list s.shards))
