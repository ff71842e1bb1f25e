module Obs = Mt_obs.Obs

type core = {
  id : int;
  l1 : Cache.t;
  l2 : Cache.t;
  tags : Memtag_unit.t;
  stats : Stats.t;
}

type latency = { mutable last : int }

type t = {
  cfg : Config.t;
  mem : Memory.t;
  dir : Directory.t;
  cores : core array;
  obs : Obs.t;
  evented : bool;  (* Obs.enabled obs *)
  lat : latency;
}

let create ?(obs = Obs.null) cfg =
  if Obs.enabled obs && Obs.num_cores obs < cfg.Config.num_cores then
    invalid_arg
      (Printf.sprintf
         "Machine.create: the obs sink records %d cores but the machine has %d"
         (Obs.num_cores obs) cfg.Config.num_cores);
  {
    cfg;
    mem = Memory.create cfg;
    dir = Directory.create ~line_words_log2:cfg.line_words_log2 ();
    cores =
      Array.init cfg.num_cores (fun id ->
          {
            id;
            l1 = Cache.create ~sets_log2:cfg.l1_sets_log2 ~ways:cfg.l1_ways;
            l2 = Cache.create ~sets_log2:cfg.l2_sets_log2 ~ways:cfg.l2_ways;
            tags = Memtag_unit.create ~max_tags:cfg.max_tags;
            stats = Stats.create ();
          });
    obs;
    evented = Obs.enabled obs;
    lat = { last = 0 };
  }

let cfg t = t.cfg
let memory t = t.mem
let num_cores t = Array.length t.cores
let obs t = t.obs
let last_latency t = t.lat.last
let latency t = t.lat

(* Hook helper: every call site guards with [on t] so a disabled sink
   never allocates an event. Timestamps are the simulated clock. *)
let ev t core kind = Obs.emit t.obs ~core ~time:(Runtime.now ()) kind
let[@inline] on t = t.evented

let[@inline never] bad_core core =
  invalid_arg (Printf.sprintf "Machine: bad core id %d" core)

let[@inline] core t core =
  if core < 0 || core >= Array.length t.cores then bad_core core
  else Array.unsafe_get t.cores core

let stats t ~core:c = (core t c).stats
let total_stats t = Stats.sum (Array.map (fun c -> c.stats) t.cores)
let reset_stats t = Array.iter (fun c -> Stats.reset c.stats) t.cores

let alloc ?label t ~words =
  let addr = Memory.alloc t.mem ~words in
  (match label with
  | Some label when on t ->
      Obs.label_lines t.obs
        ~line_lo:(Config.line_of_addr t.cfg addr)
        ~line_hi:(Config.line_of_addr t.cfg (addr + words - 1))
        label
  | _ -> ());
  addr
let peek t addr = Memory.get t.mem addr
let poke t addr v = Memory.set t.mem addr v

(* ------------------------------------------------------------------ *)
(* Coherence actions on remote cores.                                  *)

(* Remove [line] from [victim]'s whole private hierarchy: a remote core is
   taking exclusive ownership. Kills any tag the victim held on the line. *)
let invalidate_remote t victim line =
  let v = t.cores.(victim) in
  let dirty = Cache.find v.l2 line = M in
  Cache.remove v.l1 line;
  Cache.remove v.l2 line;
  if dirty then v.stats.writebacks <- v.stats.writebacks + 1;
  if on t then begin
    ev t victim (Obs.Inval_received { line });
    if dirty then ev t victim (Obs.Writeback { line });
    if Memtag_unit.live v.tags line then
      ev t victim (Obs.Tag_evict { line; conflict = true })
  end;
  Memtag_unit.on_evict v.tags line Memtag_unit.Conflict;
  v.stats.invalidations_received <- v.stats.invalidations_received + 1;
  Directory.drop t.dir line victim

(* Demote [line] to S at [victim]: a remote core wants read access. Tags
   survive — a downgrade is not an invalidation. *)
let downgrade_remote t victim line =
  let v = t.cores.(victim) in
  let dirty = Cache.find v.l2 line = M in
  if dirty then v.stats.writebacks <- v.stats.writebacks + 1;
  if on t then begin
    ev t victim (Obs.Downgrade { line; victim });
    if dirty then ev t victim (Obs.Writeback { line })
  end;
  Cache.set_state v.l2 line Cache.S;
  Cache.set_state v.l1 line Cache.S;
  v.stats.downgrades_received <- v.stats.downgrades_received + 1

(* ------------------------------------------------------------------ *)
(* Fills with victim handling.                                         *)

(* L1 victim stays in L2 (inclusive hierarchy), but its tag dies: MemTags
   live at the L1 level, so falling out of L1 is a (spurious) eviction. *)
let l1_insert t c line st =
  let vline = Cache.insert c.l1 line st in
  if vline >= 0 then begin
    if on t && Memtag_unit.live c.tags vline then
      ev t c.id (Obs.Tag_evict { line = vline; conflict = false });
    Memtag_unit.on_evict c.tags vline Memtag_unit.Capacity
  end

(* An L2 victim leaves the whole hierarchy: back-invalidate the L1 copy
   (inclusion), write back if dirty, and tell the directory. *)
let l2_insert t c line st =
  let vline = Cache.insert c.l2 line st in
  if vline >= 0 then begin
    if Cache.find c.l1 vline <> Cache.I then begin
      Cache.remove c.l1 vline;
      if on t && Memtag_unit.live c.tags vline then
        ev t c.id (Obs.Tag_evict { line = vline; conflict = false });
      Memtag_unit.on_evict c.tags vline Memtag_unit.Capacity
    end;
    if Cache.evicted_state c.l2 = Cache.M then begin
      c.stats.writebacks <- c.stats.writebacks + 1;
      if on t then ev t c.id (Obs.Writeback { line = vline })
    end;
    Directory.drop t.dir vline c.id
  end

(* ------------------------------------------------------------------ *)
(* The central access routine: make [line] resident in [c]'s L1 with read
   rights ([excl = false]) or exclusive rights ([excl = true]); drive the
   MESI transitions, count events, and return the latency in cycles. *)

let inval_round_lat cfg n_sharers =
  if n_sharers = 0 then 0
  else cfg.Config.lat_inval + (cfg.Config.lat_inval_per_sharer * n_sharers)

(* Invalidate the holders in sharer mask [m] (bit [i] = core [base + i])
   in ascending id order; returns [n] plus their number. A loop over the
   bits with its state in arguments, so a sweep allocates nothing. *)
let rec invalidate_mask t c line base m n =
  if m = 0 then n
  else begin
    let o = base + Directory.lowest_core m in
    if on t then ev t c.id (Obs.Inval_sent { line; victim = o });
    invalidate_remote t o line;
    c.stats.invalidations_sent <- c.stats.invalidations_sent + 1;
    invalidate_mask t c line base (m land (m - 1)) (n + 1)
  end

(* Invalidate every other holder; visits cores in ascending id order. Both
   masks are read before the sweep because [invalidate_remote] drops each
   victim from the directory as it goes. *)
let invalidate_others t c line =
  let lo = Directory.others_lo t.dir line c.id in
  let hi = Directory.others_hi t.dir line c.id in
  let n = invalidate_mask t c line 0 lo 0 in
  invalidate_mask t c line 32 hi n

let upgrade_from_shared t c line =
  let cfg = t.cfg in
  let n = invalidate_others t c line in
  Directory.set_excl t.dir line c.id;
  c.stats.coherence_msgs <- c.stats.coherence_msgs + 1;
  cfg.lat_dir + inval_round_lat cfg n

let acquire_general t c line ~excl =
  let cfg = t.cfg in
  let s1 = Cache.probe c.l1 line in
  if s1 >= 0 then begin
    (* L1 hit: the probed slot stays valid across the match (only remote
       caches are touched by an upgrade round). *)
    match Cache.state_at c.l1 s1 with
    | Cache.M ->
        Cache.touch_at c.l1 s1;
        c.stats.l1_hits <- c.stats.l1_hits + 1;
        cfg.lat_l1
    | Cache.E ->
        if excl then begin
          (* silent E -> M promotion *)
          Cache.set_state_at c.l1 s1 Cache.M;
          Cache.set_state c.l2 line Cache.M
        end
        else Cache.touch_at c.l1 s1;
        c.stats.l1_hits <- c.stats.l1_hits + 1;
        cfg.lat_l1
    | Cache.S when not excl ->
        Cache.touch_at c.l1 s1;
        c.stats.l1_hits <- c.stats.l1_hits + 1;
        cfg.lat_l1
    | Cache.S ->
        (* S -> M upgrade: permission round through the directory. *)
        c.stats.l1_hits <- c.stats.l1_hits + 1;
        let lat = upgrade_from_shared t c line in
        Cache.set_state_at c.l1 s1 Cache.M;
        Cache.set_state c.l2 line Cache.M;
        cfg.lat_l1 + lat
    | Cache.I -> assert false
  end
  else begin
      c.stats.l1_misses <- c.stats.l1_misses + 1;
      if on t then ev t c.id (Obs.L1_miss { line });
      let s2 = Cache.probe c.l2 line in
      match (if s2 >= 0 then Cache.state_at c.l2 s2 else Cache.I) with
      | (Cache.M | Cache.E) as st2 ->
          c.stats.l2_hits <- c.stats.l2_hits + 1;
          let st = if excl then Cache.M else st2 in
          if excl && st2 = Cache.E then Cache.set_state_at c.l2 s2 Cache.M;
          l1_insert t c line st;
          cfg.lat_l2
      | Cache.S when not excl ->
          c.stats.l2_hits <- c.stats.l2_hits + 1;
          l1_insert t c line Cache.S;
          cfg.lat_l2
      | Cache.S ->
          c.stats.l2_hits <- c.stats.l2_hits + 1;
          let lat = upgrade_from_shared t c line in
          Cache.set_state_at c.l2 s2 Cache.M;
          l1_insert t c line Cache.M;
          cfg.lat_l2 + lat
      | Cache.I ->
          (* Full miss: directory transaction. *)
          c.stats.l2_misses <- c.stats.l2_misses + 1;
          c.stats.coherence_msgs <- c.stats.coherence_msgs + 1;
          if on t then ev t c.id (Obs.L2_miss { line });
          if excl then begin
            let xlat =
              if Directory.is_uncached t.dir line then cfg.lat_mem
              else begin
                let o = Directory.excl_owner t.dir line in
                if o >= 0 then begin
                  if Debug.on () && o = c.id then
                    invalid_arg "Machine.acquire: self-owned full miss";
                  if on t then ev t c.id (Obs.Inval_sent { line; victim = o });
                  invalidate_remote t o line;
                  c.stats.invalidations_sent <- c.stats.invalidations_sent + 1;
                  cfg.lat_remote
                end
                else begin
                  let n = invalidate_others t c line in
                  cfg.lat_mem + inval_round_lat cfg n
                end
              end
            in
            Directory.set_excl t.dir line c.id;
            l2_insert t c line Cache.M;
            l1_insert t c line Cache.M;
            cfg.lat_dir + xlat
          end
          else if Directory.is_uncached t.dir line then begin
            Directory.set_excl t.dir line c.id;
            l2_insert t c line Cache.E;
            l1_insert t c line Cache.E;
            cfg.lat_dir + cfg.lat_mem
          end
          else begin
            let o = Directory.excl_owner t.dir line in
            if o >= 0 then begin
              if Debug.on () && o = c.id then
                invalid_arg "Machine.acquire: self-owned full miss";
              downgrade_remote t o line;
              Directory.set_shared_pair t.dir line o c.id;
              l2_insert t c line Cache.S;
              l1_insert t c line Cache.S;
              cfg.lat_dir + cfg.lat_remote
            end
            else begin
              Directory.add_sharer t.dir line c.id;
              l2_insert t c line Cache.S;
              l1_insert t c line Cache.S;
              cfg.lat_dir + cfg.lat_mem
            end
          end
    end

(* The L1-hit branch: the latency of serving [line] from [c]'s L1 — any
   resident state for a read, M for exclusive rights — or -1 when the
   access needs [acquire_general] (a miss, an E/S -> M promotion, or a
   recording sink). *)
let[@inline] l1_hit t c line ~excl =
  if on t then -1
  else begin
    let s1 = Cache.probe c.l1 line in
    if s1 >= 0 && ((not excl) || Cache.state_at c.l1 s1 = Cache.M) then begin
      Cache.touch_at c.l1 s1;
      c.stats.l1_hits <- c.stats.l1_hits + 1;
      t.cfg.lat_l1
    end
    else -1
  end

let[@inline] acquire t c line ~excl =
  let lat = l1_hit t c line ~excl in
  if lat >= 0 then lat else acquire_general t c line ~excl

(* Kill [line] at every other core that has it *tagged* (IAS invalidation
   step, tag-targeted variant). Returns the latency charged to the issuer:
   a directory interrogation plus one invalidation round if any remote
   tagger existed. Each probed tagger counts as a tag-directory probe
   ([tag_probes_*]); [invalidations_sent/received] additionally count only
   the probes that found — and killed — a cached copy, so the two counter
   families separate "taggers interrogated" (what the latency formula
   charges per sharer) from "copies invalidated". *)
let invalidate_taggers t c line =
  let n_cores = Array.length t.cores in
  let rec go i hit =
    if i >= n_cores then hit
    else begin
      let v = t.cores.(i) in
      if
        v.id <> c.id && Memtag_unit.is_tagged v.tags line
      then begin
        c.stats.tag_probes_sent <- c.stats.tag_probes_sent + 1;
        v.stats.tag_probes_received <- v.stats.tag_probes_received + 1;
        if Cache.find v.l2 line <> Cache.I || Cache.find v.l1 line <> Cache.I
        then begin
          if Cache.find v.l2 line = Cache.M then begin
            v.stats.writebacks <- v.stats.writebacks + 1;
            if on t then ev t v.id (Obs.Writeback { line })
          end;
          Cache.remove v.l1 line;
          Cache.remove v.l2 line;
          Directory.drop t.dir line v.id;
          v.stats.invalidations_received <- v.stats.invalidations_received + 1;
          c.stats.invalidations_sent <- c.stats.invalidations_sent + 1;
          if on t then begin
            ev t c.id (Obs.Inval_sent { line; victim = v.id });
            ev t v.id (Obs.Inval_received { line })
          end
        end;
        if on t && Memtag_unit.live v.tags line then
          ev t v.id (Obs.Tag_evict { line; conflict = true });
        Memtag_unit.on_evict v.tags line Memtag_unit.Conflict;
        go (i + 1) (hit + 1)
      end
      else go (i + 1) hit
    end
  in
  let hit = go 0 0 in
  c.stats.coherence_msgs <- c.stats.coherence_msgs + 1;
  t.cfg.lat_dir + inval_round_lat t.cfg hit

(* ------------------------------------------------------------------ *)
(* Word-level operations.                                              *)

let[@inline] line_of t addr = addr lsr t.cfg.line_words_log2

let read t ~core:cid addr =
  let c = core t cid in
  t.lat.last <- acquire t c (line_of t addr) ~excl:false;
  c.stats.loads <- c.stats.loads + 1;
  Memory.get t.mem addr

let write t ~core:cid addr v =
  let c = core t cid in
  let lat = acquire t c (line_of t addr) ~excl:true in
  c.stats.stores <- c.stats.stores + 1;
  Memory.set t.mem addr v;
  (* The store buffer hides the miss from the pipeline; coherence side
     effects above still happened in full. *)
  let lat = if lat < t.cfg.lat_store_buffered then lat else t.cfg.lat_store_buffered in
  t.lat.last <- lat;
  lat

let cas t ~core:cid addr ~expected ~desired =
  let c = core t cid in
  t.lat.last <- acquire t c (line_of t addr) ~excl:true;
  c.stats.cas_ops <- c.stats.cas_ops + 1;
  let old = Memory.get t.mem addr in
  if old = expected then begin
    Memory.set t.mem addr desired;
    true
  end
  else begin
    c.stats.cas_failures <- c.stats.cas_failures + 1;
    false
  end

let faa t ~core:cid addr delta =
  let c = core t cid in
  t.lat.last <- acquire t c (line_of t addr) ~excl:true;
  let old = Memory.get t.mem addr in
  Memory.set t.mem addr (old + delta);
  c.stats.stores <- c.stats.stores + 1;
  old

(* ------------------------------------------------------------------ *)
(* MemTags operations.                                                 *)

let check_range words =
  if words <= 0 then invalid_arg "Machine: empty tag range"

(* Tag every line of [first..last], fetching each with read rights. *)
let rec tag_lines t c line last acc =
  if line > last then acc
  else begin
    let l = acquire t c line ~excl:false in
    Memtag_unit.add c.tags line;
    c.stats.tag_adds <- c.stats.tag_adds + 1;
    if on t then ev t c.id (Obs.Tag_add { line });
    tag_lines t c (line + 1) last (acc + l + t.cfg.lat_tag_op)
  end

let add_tag t ~core:cid addr ~words =
  check_range words;
  let c = core t cid in
  let lat =
    tag_lines t c (line_of t addr) (line_of t (addr + words - 1)) 0
  in
  t.lat.last <- lat;
  lat

(* The hit branch is [tag_lines] for one L1-resident line. *)
let add_tag_read t ~core:cid addr ~words =
  check_range words;
  let c = core t cid in
  let first = line_of t addr and last = line_of t (addr + words - 1) in
  let l = if first = last then l1_hit t c first ~excl:false else -1 in
  t.lat.last <-
    (if l >= 0 then begin
       Memtag_unit.add c.tags first;
       c.stats.tag_adds <- c.stats.tag_adds + 1;
       l + t.cfg.lat_tag_op
     end
     else tag_lines t c first last 0);
  c.stats.loads <- c.stats.loads + 1;
  Memory.get t.mem addr

let rec untag_lines t c line last acc =
  if line > last then acc
  else begin
    Memtag_unit.remove c.tags line;
    c.stats.tag_removes <- c.stats.tag_removes + 1;
    if on t then ev t c.id (Obs.Tag_remove { line });
    untag_lines t c (line + 1) last (acc + t.cfg.lat_tag_op)
  end

let remove_tag t ~core:cid addr ~words =
  check_range words;
  let c = core t cid in
  let lat = untag_lines t c (line_of t addr) (line_of t (addr + words - 1)) 0 in
  t.lat.last <- lat;
  lat

let[@inline] record_verdict t c (verdict : Memtag_unit.verdict) =
  c.stats.validates <- c.stats.validates + 1;
  (match verdict with
  | Memtag_unit.Ok -> ()
  | Memtag_unit.Fail_conflict ->
      c.stats.validate_failures <- c.stats.validate_failures + 1
  | Memtag_unit.Fail_spurious ->
      c.stats.validate_failures <- c.stats.validate_failures + 1;
      c.stats.validate_failures_spurious <- c.stats.validate_failures_spurious + 1);
  if Memtag_unit.overflowed c.tags then c.stats.tag_overflows <- c.stats.tag_overflows + 1;
  if on t then
    ev t c.id
      (Obs.Validate
         {
           ok = verdict = Memtag_unit.Ok;
           spurious = verdict = Memtag_unit.Fail_spurious;
         });
  verdict = Memtag_unit.Ok

let validate t ~core:cid =
  let c = core t cid in
  t.lat.last <- t.cfg.lat_validate;
  record_verdict t c (Memtag_unit.check c.tags)

let clear_tag_set t ~core:cid =
  let c = core t cid in
  (* The bulk release ends the attempt's tag footprint in one step; the
     event carries the live count so occupancy accounting stays exact. *)
  (if on t then
     let count = Memtag_unit.count c.tags in
     if count > 0 then ev t c.id (Obs.Tag_clear { count }));
  Memtag_unit.clear c.tags;
  t.lat.last <- t.cfg.lat_tag_op;
  t.cfg.lat_tag_op

let tag_count t ~core:cid = Memtag_unit.count (core t cid).tags

(* Fault-injection hook: retarget every core's tag-capacity ceiling at
   once (mid-run Max_Tags shrink / restore). Purely architectural state —
   no coherence traffic, no latency, no events. *)
let set_max_tags t n = Array.iter (fun c -> Memtag_unit.set_max_tags c.tags n) t.cores

let max_tags t = Memtag_unit.max_tags t.cores.(0).tags

let vas t ~core:cid addr v =
  let c = core t cid in
  c.stats.vas_ops <- c.stats.vas_ops + 1;
  if not (record_verdict t c (Memtag_unit.check c.tags)) then begin
    (* Fail-fast: purely local, no coherence traffic at all. *)
    c.stats.vas_failures <- c.stats.vas_failures + 1;
    if on t then ev t c.id (Obs.Vas { ok = false });
    t.lat.last <- t.cfg.lat_validate;
    false
  end
  else begin
    let lat = acquire t c (line_of t addr) ~excl:true in
    t.lat.last <- t.cfg.lat_validate + lat;
    (* The fill above may itself have capacity-evicted a tagged line, so
       re-check; own writes never evict own tags. *)
    if Memtag_unit.check c.tags <> Memtag_unit.Ok then begin
      c.stats.vas_failures <- c.stats.vas_failures + 1;
      if on t then ev t c.id (Obs.Vas { ok = false });
      false
    end
    else begin
      Memory.set t.mem addr v;
      if on t then ev t c.id (Obs.Vas { ok = true });
      true
    end
  end

let ias t ~core:cid addr v =
  let c = core t cid in
  c.stats.ias_ops <- c.stats.ias_ops + 1;
  if not (record_verdict t c (Memtag_unit.check c.tags)) then begin
    c.stats.ias_failures <- c.stats.ias_failures + 1;
    if on t then ev t c.id (Obs.Ias { ok = false });
    t.lat.last <- t.cfg.lat_validate;
    false
  end
  else begin
    (* Walk the issuer's own entries in ascending line order, the order
       the committed baselines were measured with. The kill loop adds and
       removes no entry of that set (an eviction only changes an entry's
       state), so the sort holds throughout. *)
    Memtag_unit.sort c.tags;
    let n = Memtag_unit.count c.tags in
    let target = line_of t addr in
    let tag_targeted = t.cfg.ias_tag_targeted in
    (* Tag-targeted semantics kill each tagged line only at cores that
       have it tagged — untagged sharers keep their (byte-identical)
       copies; only the target line's write invalidates everyone. The
       conservative variant elevates every tagged line to M. *)
    let rec kill i lat =
      if i >= n then lat
      else begin
        let line = Memtag_unit.line c.tags i in
        if line = target then kill (i + 1) lat
        else if tag_targeted then kill (i + 1) (lat + invalidate_taggers t c line)
        else kill (i + 1) (lat + acquire t c line ~excl:true)
      end
    in
    let lat = kill 0 0 + acquire t c target ~excl:true in
    t.lat.last <- t.cfg.lat_validate + lat;
    if Memtag_unit.check c.tags <> Memtag_unit.Ok then begin
      c.stats.ias_failures <- c.stats.ias_failures + 1;
      if on t then ev t c.id (Obs.Ias { ok = false });
      false
    end
    else begin
      Memory.set t.mem addr v;
      if on t then ev t c.id (Obs.Ias { ok = true });
      true
    end
  end

(* ------------------------------------------------------------------ *)
(* Coherence invariant checker (tests and fuzzing; never on the hot     *)
(* path).                                                              *)

let check_coherence t =
  let fail fmt = Printf.ksprintf failwith fmt in
  let st_name = function
    | Cache.I -> "I"
    | Cache.S -> "S"
    | Cache.E -> "E"
    | Cache.M -> "M"
  in
  Array.iter
    (fun c ->
      (* Inclusion: every L1-resident line is L2-resident, in the same
         state (fills propagate the L2 state; upgrades, promotions and
         downgrades always touch both levels). *)
      Cache.iter c.l1 (fun line st1 ->
          let st2 = Cache.find c.l2 line in
          if st2 = Cache.I then
            fail "core %d: L1 holds line %d (%s) absent from L2" c.id line
              (st_name st1);
          if st2 <> st1 then
            fail "core %d: line %d is %s in L1 but %s in L2" c.id line
              (st_name st1) (st_name st2));
      (* Every resident line is known to the directory, with matching
         rights. Together with the directory pass below this also gives
         M/E uniqueness: an M/E holder must be the directory's exclusive
         owner, and Excl admits no other resident copy. *)
      Cache.iter c.l2 (fun line st2 ->
          match Directory.sharing t.dir line with
          | Directory.Uncached ->
              fail "core %d: holds line %d (%s) but directory says uncached"
                c.id line (st_name st2)
          | Directory.Excl o ->
              if o <> c.id then
                fail "core %d: holds line %d but directory owner is core %d"
                  c.id line o;
              if st2 = Cache.S then
                fail "core %d: line %d is S in L2 but directory says Excl"
                  c.id line
          | Directory.Shared cores ->
              if not (List.mem c.id cores) then
                fail "core %d: holds line %d but is not in the sharer set"
                  c.id line;
              if st2 <> Cache.S then
                fail "core %d: line %d is %s in L2 but directory says Shared"
                  c.id line (st_name st2)))
    t.cores;
  (* The directory lists no phantom holders. *)
  Directory.iter_lines t.dir (fun line ->
      match Directory.sharing t.dir line with
      | Directory.Uncached -> ()
      | Directory.Excl o ->
          if o < 0 || o >= Array.length t.cores then
            fail "directory: line %d owned by bogus core %d" line o;
          if Cache.find t.cores.(o).l2 line = Cache.I then
            fail "directory: line %d Excl at core %d but not resident there"
              line o
      | Directory.Shared cores ->
          List.iter
            (fun o ->
              if o < 0 || o >= Array.length t.cores then
                fail "directory: line %d shared by bogus core %d" line o;
              if Cache.find t.cores.(o).l2 line = Cache.I then
                fail "directory: line %d shared at core %d but not resident there"
                  line o)
            cores)
