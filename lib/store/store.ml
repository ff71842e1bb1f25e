open Mt_core
module Obs = Mt_obs.Obs

(* A sharded multi-structure store. Keys hash-partition (k mod shards)
   across per-core shards, each backed by a pluggable structure.
   Concurrency control lives entirely in one plain *version word* per
   shard (its own cache line): even = unlocked, odd = locked, and the
   value only ever increases, so there is no ABA. Every backend
   [insert]/[delete] below runs while this core holds its shard's lock,
   and every other backend access is a plain walk, so a backend needs no
   synchronization of its own: the norec-tagged shard writes its B+-tree
   directly (backend.mli has the argument).

   - Point writes first try to prove themselves no-ops without the
     lock: read the version, walk the key with the backend's plain
     one-key walk ([scan_plain ~lo:k ~hi:k]), re-read the version. An
     insert of a present key or a delete of an absent key whose two
     reads agree on an even version returns [false] having written
     nothing: it linearizes between the reads, by [get]'s argument, and
     leaves the version line shared, so it breaks no scan's tag and no
     transaction's acquisition. Every other write locks its one shard
     with a single-word CAS (even v -> v+1), runs the backend op on the
     lines the walk warmed, and releases (v+1 -> v+2). Zero cross-shard
     coordination.
   - Point gets are optimistic: read the version (even), walk the key
     with the backend's plain one-key descent ([mem_plain]), re-read the
     version; equal means no writer held or took the shard lock during
     the walk, so the shard was frozen and the value seen is committed
     state. The version reads are the whole proof: the walk reads no
     tag, lock or STM sequence lock of its own, so a get touches only the
     version line and the nodes on its key's path. (Without the closing
     read a get could observe a cross-shard transaction's sub-op before
     the transaction's release — unlinearizable, see test_store.)
   - Transactions first warm their keys: one plain point walk per
     sub-op, outside any lock, so the critical section runs on cached
     lines. They then take every touched shard's lock with the paper's
     VAS: one tagged load of each version word, then a VAS of each from
     even v to v+1 in shard order. VAS validates the whole tag set, so
     the chain completes only if no touched version moved since it was
     tagged; a chain broken after its first VAS releases what it took
     (v+1 -> v+2, keeping versions monotone). Sub-ops run under the
     locks (a [Get] is the plain [mem_plain] walk: the held lock freezes
     its shard), then each lock is released with the point writers'
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
   - Scans tag each touched shard's version word, walk the shard with
     the backend's plain collect, then validate the whole tag set once.
     On a broken or capacity-evicted tag the plain re-read fallback
     discriminates: versions are monotone, so a version unchanged
     between a shard's pre-walk read and the re-read pass proves that
     shard quiescent over an interval containing the pass start — a
     common instant for every shard. Only shards whose version moved
     are re-collected. *)

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
      fallback : Ctx.addr;  (* lock word serializing txn fallbacks *)
      key_space : int;
      scan_budget : int;
      mutable c : stats;
    }
      -> t

(* Tagged acquisition retries a transaction makes before it falls back to
   serialized locking. *)
let txn_max_retries = 8

(* Keys share a word with another 31-bit field in the norec-tagged
   shard's B+-tree nodes; every backend gets the same limit. *)
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
      (* Enough fuel to walk a whole shard (every structure visits at most
         ~2 nodes per resident key) plus slack; a doomed racy walk burning
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

let emit ctx kind =
  let o = Ctx.obs ctx in
  if Obs.enabled o then Obs.emit o ~core:(Ctx.core ctx) ~time:(Ctx.now ctx) kind

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
  emit ctx (Obs.Store_op { shard = sh })

(* An insert ([~insert:true]) or delete of [k]. The unlocked walk either
   proves the write a no-op at an instant between two equal even version
   reads — the shard was frozen across the walk — or warms the lines the
   locked backend op then touches. It runs even when the first read finds
   the shard locked: then it only warms, while the holder works. *)
let write ctx (T s) k ~insert =
  check_key s.key_space k;
  let module B = (val s.backend) in
  let sh = k mod Array.length s.versions in
  let v = Ctx.read ctx s.versions.(sh) in
  let present =
    B.scan_plain ctx s.shards.(sh) ~lo:k ~hi:k ~budget:s.scan_budget <> []
  in
  let r =
    if present = insert && (not (locked v)) && Ctx.read ctx s.versions.(sh) = v
    then false
    else begin
      let vl = acquire ctx s.versions.(sh) in
      let r = (if insert then B.insert else B.delete) ctx s.shards.(sh) k in
      release ctx s.versions.(sh) vl;
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
      let r = B.mem_plain ctx s.shards.(sh) k in
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
      (* Warm before locking: one plain point walk per sub-op key pulls the
         nodes its sub-op will touch into this core's cache, so the
         critical section below hits in L1 instead of paying directory
         misses while every touched shard is locked. The walk's result is
         discarded; correctness rests on the locked sub-ops alone. *)
      List.iter
        (fun (k, _) ->
          ignore
            (B.scan_plain ctx s.shards.(k mod nsh) ~lo:k ~hi:k
               ~budget:s.scan_budget))
        ops;
      let rec acquire_all attempt =
        if
          attempt > txn_max_retries
          || List.length shard_ids > Mt_sim.Machine.max_tags (Ctx.machine ctx)
        then begin
          (* Serialized fallback: under the store's fallback lock, spin
             on each shard lock in turn. Only the fallback-lock holder
             ever waits while holding a shard lock, and every holder it
             waits for releases without waiting, so this makes progress
             where the tagged acquisition kept losing races, or could
             not tag every version at once. One fallback at a time keeps
             lock holders from queueing behind each other on the hot
             shards. *)
          let fl = acquire ctx s.fallback in
          let first = List.hd shard_ids in
          let v0 = acquire ctx s.versions.(first) - 1 in
          let t_locked = Ctx.now ctx in
          let rest =
            List.map
              (fun sh -> (sh, acquire ctx s.versions.(sh) - 1))
              (List.tl shard_ids)
          in
          release ctx s.fallback fl;
          ((first, v0) :: rest, attempt, t_locked)
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
         change a shard, so a [Get] walks it plainly. *)
      let results =
        List.map
          (fun (k, o) ->
            let sh = k mod nsh in
            s.c.txn_sub_ops <- s.c.txn_sub_ops + 1;
            s.c.shard_ops.(sh) <- s.c.shard_ops.(sh) + 1;
            emit ctx (Obs.Store_op { shard = sh });
            match o with
            | Get -> B.mem_plain ctx s.shards.(sh) k
            | Insert -> B.insert ctx s.shards.(sh) k
            | Delete -> B.delete ctx s.shards.(sh) k)
          ops
      in
      (* Release only after the last sub-op: every lock was held across
         all of them (two-phase locking), so the commit needs no atomic
         release and each lock goes with one CAS. *)
      List.iter (fun (sh, v) -> release ctx s.versions.(sh) (v + 1)) vs;
      s.c.txn_commits <- s.c.txn_commits + 1;
      s.c.txn_locked_cycles <-
        s.c.txn_locked_cycles + (Ctx.now ctx - t_locked);
      emit ctx
        (Obs.Txn_commit
           { shards = List.length shard_ids; cycles = Ctx.now ctx - t0 });
      results

let scan ctx (T s) ~lo ~hi =
  check_key s.key_space lo;
  check_key s.key_space hi;
  if lo > hi then invalid_arg "Store.scan: lo > hi";
  let module B = (val s.backend) in
  let nsh = Array.length s.versions in
  (* Residue classes intersecting [lo, hi]: all of them unless the window
     is narrower than the shard count. *)
  let relevant =
    if hi - lo + 1 >= nsh then List.init nsh (fun i -> i)
    else List.sort_uniq compare (List.init (hi - lo + 1) (fun i -> (lo + i) mod nsh))
  in
  let nrel = List.length relevant in
  let machine = Ctx.machine ctx in
  let vers = Array.make nsh 0 in
  let res : int list array = Array.make nsh [] in
  let dirty = Array.make nsh false in
  List.iter (fun sh -> dirty.(sh) <- true) relevant;
  let rec round () =
    (* Tags certify the whole shard set at one instant only if every
       version word fits the tag set; past capacity (or under a squeeze)
       we go straight to the monotone-version fallback. *)
    let use_tags = nrel <= Mt_sim.Machine.max_tags machine in
    if use_tags then Ctx.clear_tag_set ctx;
    let read_version sh =
      if use_tags then Ctx.add_tag_read ctx s.versions.(sh) ~words:1
      else Ctx.read ctx s.versions.(sh)
    in
    (* Re-pin shards kept from earlier rounds: versions are monotone, so
       an unchanged version means the shard never moved since its walk. *)
    List.iter
      (fun sh ->
        if not dirty.(sh) then begin
          let v = read_version sh in
          if v <> vers.(sh) then begin
            dirty.(sh) <- true;
            s.c.scan_shard_retries <- s.c.scan_shard_retries + 1;
            emit ctx (Obs.Scan_validate { shard = sh; ok = false })
          end
        end)
      relevant;
    (* Collect invalidated shards: pin an even version, then walk with
       plain reads. *)
    List.iter
      (fun sh ->
        if dirty.(sh) then begin
          let rec pin tries =
            let v = read_version sh in
            if locked v then begin
              retry_wait ctx ~site:s.versions.(sh) ~attempt:tries;
              pin (tries + 1)
            end
            else v
          in
          vers.(sh) <- pin 0;
          res.(sh) <- B.scan_plain ctx s.shards.(sh) ~lo ~hi ~budget:s.scan_budget;
          s.c.scan_collects <- s.c.scan_collects + 1;
          dirty.(sh) <- false
        end)
      relevant;
    if use_tags && Ctx.validate ctx then begin
      (* Fast path: one validate proves every tagged version word
         unchanged since its (re-)read — all shards quiescent from their
         walks through this single instant. *)
      Ctx.clear_tag_set ctx;
      List.iter
        (fun sh -> emit ctx (Obs.Scan_validate { shard = sh; ok = true }))
        relevant
    end
    else begin
      if use_tags then begin
        Ctx.clear_tag_set ctx;
        s.c.scan_tag_fallbacks <- s.c.scan_tag_fallbacks + 1
      end;
      (* Plain re-read pass, sound without tags: every walk precedes the
         pass and every re-read follows its start, so an unchanged
         (monotone) version pins each shard's frozen interval around the
         pass start — a common instant. Discriminates spurious tag
         failures (capacity evictions) from real shard movement, and
         re-collects only the movers. *)
      let all_ok = ref true in
      List.iter
        (fun sh ->
          let v = Ctx.read ctx s.versions.(sh) in
          if v <> vers.(sh) then begin
            dirty.(sh) <- true;
            all_ok := false;
            s.c.scan_shard_retries <- s.c.scan_shard_retries + 1;
            emit ctx (Obs.Scan_validate { shard = sh; ok = false })
          end)
        relevant;
      if !all_ok then
        List.iter
          (fun sh -> emit ctx (Obs.Scan_validate { shard = sh; ok = true }))
          relevant
      else round ()
    end
  in
  round ();
  s.c.scans <- s.c.scans + 1;
  List.sort compare (List.concat_map (fun sh -> res.(sh)) relevant)

let to_list_unsafe machine (T s) =
  let module B = (val s.backend) in
  List.sort compare
    (List.concat_map
       (fun shard -> B.to_list_unsafe machine shard)
       (Array.to_list s.shards))
