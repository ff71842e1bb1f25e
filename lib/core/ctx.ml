open Mt_sim

type addr = Memory.addr

(* [stats], [lane] and [lat] are cached at [make] so that charging an
   access reads record fields instead of calling into [Mt_sim]. *)
type t = {
  machine : Machine.t;
  rt : Runtime.t;
  core : int;
  prng : Prng.t;
  stats : Stats.t;  (* the core's counters *)
  lane : Runtime.lane;  (* the runtime's stall lane *)
  lat : Machine.latency;  (* the machine's last-latency cell *)
  cm : Mt_cm.Cm.t;  (* contention-management policy for this core *)
}

(* Fixed instruction cost of a heap allocation (bump allocator + header). *)
let alloc_cycles = 8

let make ?cm machine ~rt ~core ~prng =
  if core < 0 || core >= Machine.num_cores machine then
    invalid_arg "Ctx.make: core id out of range";
  let cm =
    match cm with
    | Some c -> c
    | None -> Mt_cm.Cm.make Mt_cm.Cm.immediate ~core
  in
  {
    machine;
    rt;
    core;
    prng;
    stats = Machine.stats machine ~core;
    lane = Runtime.lane rt;
    lat = Machine.latency machine;
    cm;
  }

let machine t = t.machine
let runtime t = t.rt
let core t = t.core
let prng t = t.prng
let obs t = Machine.obs t.machine
let now t = t.lane.now

(* The stall lane (DESIGN §12): below the lane's limit a stall only
   advances the clock, so it is done here without a call; at the limit
   (another fiber is due, a non-default policy or a recording sink)
   [Runtime.stall_on] takes it. *)
let[@inline] charge t lat =
  if lat > 0 then begin
    t.stats.busy_cycles <- t.stats.busy_cycles + lat;
    let lane = t.lane in
    let nc = lane.now + lat in
    if nc < lane.limit then lane.now <- nc else Runtime.stall_on t.rt lat
  end

(* Charge the latency the machine just recorded for an operation. *)
let[@inline] charge_last t = charge t t.lat.last

let work t n = if n > 0 then charge t n

let alloc ?label t ~words =
  let a = Machine.alloc ?label t.machine ~words in
  charge t alloc_cycles;
  a

let read t addr =
  let v = Machine.read t.machine ~core:t.core addr in
  charge_last t;
  v

let write t addr v =
  let lat = Machine.write t.machine ~core:t.core addr v in
  charge t lat

let cas t addr ~expected ~desired =
  let ok = Machine.cas t.machine ~core:t.core addr ~expected ~desired in
  charge_last t;
  ok

let faa t addr delta =
  let old = Machine.faa t.machine ~core:t.core addr delta in
  charge_last t;
  old

let tag_count t = Machine.tag_count t.machine ~core:t.core

let add_tag_read t addr ~words =
  let v = Machine.add_tag_read t.machine ~core:t.core addr ~words in
  charge_last t;
  v

type load = t -> addr -> words:int -> int

let plain_load t addr ~words:_ = read t addr

exception Tag_set_full

(* Refuses to tag past the live ceiling (which the adversary's squeeze
   may lower mid-run), so a walk that would outgrow the tag set stops at
   once instead of latching overflow. *)
let tagged_load t addr ~words =
  if tag_count t >= Machine.max_tags t.machine then raise_notrace Tag_set_full;
  add_tag_read t addr ~words

let remove_tag t addr ~words =
  let lat = Machine.remove_tag t.machine ~core:t.core addr ~words in
  charge t lat

let validate t =
  let ok = Machine.validate t.machine ~core:t.core in
  charge_last t;
  ok

let clear_tag_set t =
  let lat = Machine.clear_tag_set t.machine ~core:t.core in
  charge t lat

let vas t addr v =
  let ok = Machine.vas t.machine ~core:t.core addr v in
  charge_last t;
  ok

let ias t addr v =
  let ok = Machine.ias t.machine ~core:t.core addr v in
  charge_last t;
  ok

(* ------------------------------------------------------------------ *)
(* Contention management (DESIGN §14). *)

let cm_immediate t = Mt_cm.Cm.is_immediate t.cm

(* Charge a policy-imposed wait through the ordinary stall path. Under
   [Immediate] the policy returns 0 without touching any state, so this
   is observationally a no-op — no stall, no counters, no event — and
   runs under the default policy stay byte-identical to a tree that
   retries unconditionally. *)
let cm_wait ?(site = 0) t ~attempt =
  let w = Mt_cm.Cm.wait t.cm ~attempt ~now:t.lane.now in
  if w > 0 then begin
    t.stats.cm_waits <- t.stats.cm_waits + 1;
    t.stats.cm_wait_cycles <- t.stats.cm_wait_cycles + w;
    (let o = Machine.obs t.machine in
     if Mt_obs.Obs.enabled o then
       Mt_obs.Obs.emit o ~core:t.core ~time:t.lane.now
         (Mt_obs.Obs.Cm_wait { site; cycles = w; attempt }));
    charge t w
  end

(* For retry sites that already carried a hand-rolled backoff (NOrec's
   randomized doubling, Store's capped shift): [default] IS today's
   behavior and runs — including its PRNG draws — only under
   [Immediate]; any other policy computes the wait itself and the
   default (and its draws) is skipped entirely. *)
let cm_wait_default ?(site = 0) t ~attempt ~default =
  if cm_immediate t then work t (default ()) else cm_wait ~site t ~attempt

exception Restart

let restart _t = raise Restart

(* The shared optimistic-retry combinator: the structures' former
   copy-pasted [exception Restart -> clear; retry] loops, with the
   policy hook in one place. Under [Immediate] the expansion is exactly
   the old loop: clear the tag set and go again. *)
let with_restarts ?(site = 0) t f =
  let rec go attempt =
    match f () with
    | r -> r
    | exception Restart ->
        clear_tag_set t;
        cm_wait ~site t ~attempt;
        go (attempt + 1)
  in
  go 0

(* The paper's Section 3 read: tag everything the walk reads, then
   validate once. A multi-line load can still carry the set past the
   ceiling; that too is a walk too big to certify, not a conflict. *)
let certified ?site t walk =
  with_restarts ?site t (fun () ->
      let r =
        match walk tagged_load with
        | r when tag_count t <= Machine.max_tags t.machine -> Some r
        | _ | (exception Tag_set_full) -> None
      in
      if Option.is_some r && not (validate t) then restart t;
      clear_tag_set t;
      r)
