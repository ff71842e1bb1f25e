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

(* [c]'s L1 lost [line]: a tag on it dies for [cause]. MemTags live at
   the L1 level, so any way out of L1 kills the tag. *)
let[@inline] lose_tag t c line cause =
  if on t && Memtag_unit.live c.tags line then
    ev t c.id (Obs.Tag_evict { line; conflict = cause = Memtag_unit.Conflict });
  Memtag_unit.on_evict c.tags line cause

(* [c] removes [line] from [victim]'s whole private hierarchy: [c] is
   taking exclusive ownership. Kills any tag the victim held on the line. *)
let invalidate_remote t c victim line =
  let v = t.cores.(victim) in
  let dirty = Cache.find v.l2 line = M in
  Cache.remove v.l1 line;
  Cache.remove v.l2 line;
  if dirty then v.stats.writebacks <- v.stats.writebacks + 1;
  if on t then begin
    ev t c.id (Obs.Inval_sent { line; victim });
    ev t victim (Obs.Inval_received { line });
    if dirty then ev t victim (Obs.Writeback { line })
  end;
  lose_tag t v line Memtag_unit.Conflict;
  c.stats.invalidations_sent <- c.stats.invalidations_sent + 1;
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

(* L1 victim stays in L2 (inclusive hierarchy), but its tag dies: falling
   out of L1 is a (spurious) eviction. *)
let l1_insert t c line st =
  let vline = Cache.insert c.l1 line st in
  if vline >= 0 then lose_tag t c vline Memtag_unit.Capacity

(* An L2 victim leaves the whole hierarchy: back-invalidate the L1 copy
   (inclusion), write back if dirty, and tell the directory. *)
let l2_insert t c line st =
  let vline = Cache.insert c.l2 line st in
  if vline >= 0 then begin
    if Cache.find c.l1 vline <> Cache.I then begin
      Cache.remove c.l1 vline;
      lose_tag t c vline Memtag_unit.Capacity
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
    invalidate_remote t c (base + Directory.lowest_core m) line;
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

(* The directory step of a full miss on a line some core caches: serve it
   from its exclusive owner (downgraded for a read, invalidated for a
   write) or, past any sharers, from memory. Returns the latency beyond
   the directory lookup. *)
let fetch_cached t c line ~excl =
  let cfg = t.cfg in
  let o = Directory.excl_owner t.dir line in
  if Debug.on () && o = c.id then
    invalid_arg "Machine.acquire: self-owned full miss";
  if not excl then
    if o >= 0 then begin
      downgrade_remote t o line;
      Directory.set_shared_pair t.dir line o c.id;
      cfg.lat_remote
    end
    else begin
      Directory.add_sharer t.dir line c.id;
      cfg.lat_mem
    end
  else begin
    let lat =
      if o >= 0 then begin
        invalidate_remote t c o line;
        cfg.lat_remote
      end
      else cfg.lat_mem + inval_round_lat cfg (invalidate_others t c line)
    in
    Directory.set_excl t.dir line c.id;
    lat
  end

(* Every access [acquire]'s L1 hit does not serve: [s1] is [line]'s L1
   slot for an E/S -> M promotion, or -1 on an L1 miss. *)
let acquire_slow t c line s1 ~excl =
  let cfg = t.cfg in
  if s1 >= 0 then begin
    (* E -> M silently, S -> M through a permission round. The slot stays
       valid: an upgrade round touches only remote caches. *)
    c.stats.l1_hits <- c.stats.l1_hits + 1;
    let lat =
      if Cache.state_at c.l1 s1 = Cache.E then 0 else upgrade_from_shared t c line
    in
    Cache.set_state_at c.l1 s1 Cache.M;
    Cache.set_state c.l2 line Cache.M;
    cfg.lat_l1 + lat
  end
  else begin
    c.stats.l1_misses <- c.stats.l1_misses + 1;
    if on t then ev t c.id (Obs.L1_miss { line });
    let s2 = Cache.probe c.l2 line in
    if s2 >= 0 then begin
      c.stats.l2_hits <- c.stats.l2_hits + 1;
      let st2 = Cache.state_at c.l2 s2 in
      let lat = if excl && st2 = Cache.S then upgrade_from_shared t c line else 0 in
      if excl && st2 <> Cache.M then Cache.set_state_at c.l2 s2 Cache.M;
      l1_insert t c line (if excl then Cache.M else st2);
      cfg.lat_l2 + lat
    end
    else begin
      (* Full miss: directory transaction, then the fill. *)
      c.stats.l2_misses <- c.stats.l2_misses + 1;
      c.stats.coherence_msgs <- c.stats.coherence_msgs + 1;
      if on t then ev t c.id (Obs.L2_miss { line });
      let uncached = Directory.is_uncached t.dir line in
      let lat =
        if uncached then begin
          Directory.set_excl t.dir line c.id;
          cfg.lat_mem
        end
        else fetch_cached t c line ~excl
      in
      let st = if excl then Cache.M else if uncached then Cache.E else Cache.S in
      l2_insert t c line st;
      l1_insert t c line st;
      cfg.lat_dir + lat
    end
  end

(* One L1 probe; the hit branch — any resident state for a read, M for
   exclusive rights — emits no event, so it serves every sink. *)
let[@inline] acquire t c line ~excl =
  let s1 = Cache.probe c.l1 line in
  if s1 >= 0 && ((not excl) || Cache.state_at c.l1 s1 = Cache.M) then begin
    Cache.touch_at c.l1 s1;
    c.stats.l1_hits <- c.stats.l1_hits + 1;
    t.cfg.lat_l1
  end
  else acquire_slow t c line s1 ~excl

(* Kill [line] at every other core that has it *tagged* (IAS invalidation
   step, tag-targeted variant). Returns the latency charged to the issuer:
   a directory interrogation plus one invalidation round if any remote
   tagger existed. Each probed tagger counts as a tag-directory probe
   ([tag_probes_*]); [invalidations_sent/received] additionally count only
   the probes that found — and killed — a cached copy, so the two counter
   families separate "taggers interrogated" (what the latency formula
   charges per sharer) from "copies invalidated". *)
let invalidate_taggers t c line =
  let hit = ref 0 in
  for i = 0 to Array.length t.cores - 1 do
    let v = t.cores.(i) in
    if i <> c.id && Memtag_unit.is_tagged v.tags line then begin
      c.stats.tag_probes_sent <- c.stats.tag_probes_sent + 1;
      v.stats.tag_probes_received <- v.stats.tag_probes_received + 1;
      (* Inclusion: a line in L1 is in L2. *)
      if Cache.find v.l2 line <> Cache.I then invalidate_remote t c i line
      else lose_tag t v line Memtag_unit.Conflict;
      incr hit
    end
  done;
  c.stats.coherence_msgs <- c.stats.coherence_msgs + 1;
  t.cfg.lat_dir + inval_round_lat t.cfg !hit

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

(* Tag [line], fetching it with read rights. *)
let[@inline] tag_line t c line =
  let l = acquire t c line ~excl:false in
  Memtag_unit.add c.tags line;
  c.stats.tag_adds <- c.stats.tag_adds + 1;
  if on t then ev t c.id (Obs.Tag_add { line });
  l + t.cfg.lat_tag_op

(* Tag lines [line..last], adding their latencies to [acc]. *)
let rec tag_more t c line last acc =
  if line > last then acc else tag_more t c (line + 1) last (acc + tag_line t c line)

(* Tag every line of [first..last] in ascending order; a one-line range
   is one inlined [tag_line]. *)
let[@inline] tag_lines t c first last =
  if first = last then tag_line t c first else tag_more t c first last 0

let add_tag t ~core:cid addr ~words =
  check_range words;
  let c = core t cid in
  let lat = tag_lines t c (line_of t addr) (line_of t (addr + words - 1)) in
  t.lat.last <- lat;
  lat

let add_tag_read t ~core:cid addr ~words =
  check_range words;
  let c = core t cid in
  t.lat.last <- tag_lines t c (line_of t addr) (line_of t (addr + words - 1));
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

(* Tag-targeted semantics kill each tagged line only at cores that have
   it tagged — untagged sharers keep their (byte-identical) copies; only
   the target line's write invalidates everyone. The conservative variant
   elevates every tagged line to M. The issuer's own entries are walked
   in ascending line order, the order the committed baselines were
   measured with; the kills add and remove no entry of that set (an
   eviction only changes an entry's state), so the sort holds
   throughout. *)
let kill_tagged t c target =
  Memtag_unit.sort c.tags;
  let lat = ref 0 in
  for i = 0 to Memtag_unit.count c.tags - 1 do
    let line = Memtag_unit.line c.tags i in
    if line <> target then
      lat :=
        !lat
        + (if t.cfg.ias_tag_targeted then invalidate_taggers t c line
           else acquire t c line ~excl:true)
  done;
  !lat

let store_failed t c ~ias =
  if ias then c.stats.ias_failures <- c.stats.ias_failures + 1
  else c.stats.vas_failures <- c.stats.vas_failures + 1;
  if on t then ev t c.id (if ias then Obs.Ias { ok = false } else Obs.Vas { ok = false });
  false

(* VAS ([ias = false]) and IAS: validate, acquire the target with
   exclusive rights (IAS then kills its other tagged lines), re-check the
   tags, store. Inlined into each, so the [ias] tests fold away. *)
let[@inline] validated_store t c addr v ~ias =
  if not (record_verdict t c (Memtag_unit.check c.tags)) then begin
    (* Fail-fast: purely local, no coherence traffic at all. *)
    t.lat.last <- t.cfg.lat_validate;
    store_failed t c ~ias
  end
  else begin
    let target = line_of t addr in
    let lat = acquire t c target ~excl:true in
    let lat = if ias then kill_tagged t c target + lat else lat in
    t.lat.last <- t.cfg.lat_validate + lat;
    (* The fills above may themselves have capacity-evicted a tagged
       line, so re-check; own writes never evict own tags. *)
    if Memtag_unit.check c.tags <> Memtag_unit.Ok then store_failed t c ~ias
    else begin
      Memory.set t.mem addr v;
      if on t then ev t c.id (if ias then Obs.Ias { ok = true } else Obs.Vas { ok = true });
      true
    end
  end

let vas t ~core:cid addr v =
  let c = core t cid in
  c.stats.vas_ops <- c.stats.vas_ops + 1;
  validated_store t c addr v ~ias:false

let ias t ~core:cid addr v =
  let c = core t cid in
  c.stats.ias_ops <- c.stats.ias_ops + 1;
  validated_store t c addr v ~ias:true

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
