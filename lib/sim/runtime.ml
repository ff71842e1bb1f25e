open Effect
open Effect.Deep

(* The effect is nullary: the stalling fiber's (new local clock, readiness
   tie) are precomputed by [stall_on] and parked in the runtime's
   [pend_time]/[pend_tie] fields, so a suspension allocates nothing beyond
   the continuation itself. The effect is the slow path: [stall_on] performs it
   only when another fiber is scheduled next (see the fast path below). *)
type _ Effect.t += Stall : unit Effect.t

exception Aborted

type policy = {
  extra_delay : tid:int -> now:int -> int;
  tie_of : tid:int -> int;
}

(* Both default hooks are pure and stateless, so under [default_policy]
   (tested physically: [is_default]) the scheduler skips calling them
   entirely (no PRNG stream to keep in sync) — the hot path uses
   [delay = n] and [tie = tid] directly. *)
let default_policy =
  { extra_delay = (fun ~tid:_ ~now:_ -> 0); tie_of = (fun ~tid -> tid) }

let is_default p = p == default_policy

(* Seeded schedule perturbation: every stall gets an extra random delay in
   [0, max_delay], and readiness ties are broken by a random priority
   instead of the fiber id. Both draws come from one private PRNG stream,
   consumed in scheduler order — itself deterministic — so a given seed
   always produces the same interleaving. The tie key keeps the fiber id
   in its low bits so distinct fibers never compare equal. *)
let random_policy ?(max_delay = 64) ~seed () =
  if max_delay < 0 then invalid_arg "Runtime.random_policy: negative max_delay";
  let g = Prng.create ~seed:(seed lxor 0x5CEDC0DE) in
  {
    extra_delay =
      (fun ~tid:_ ~now:_ -> if max_delay = 0 then 0 else Prng.int g (max_delay + 1));
    tie_of = (fun ~tid -> (Prng.int g 0x4000 lsl 16) lor (tid land 0xFFFF));
  }

let decorate_policy base ~extra_delay =
  {
    extra_delay =
      (fun ~tid ~now ->
        let b = base.extra_delay ~tid ~now in
        extra_delay ~tid ~now ~base:b);
    tie_of = base.tie_of;
  }

(* A ready-queue entry is either a fiber that has not started yet (a plain
   thunk — there is no continuation to unwind) or one suspended mid-stall,
   whose continuation must be [discontinue]d if the run is torn down. The
   kind rides in the low bit of the queue's int side-channel ([aux =
   (tid lsl 1) lor kind], kind 1 = suspended continuation, 0 = start
   thunk) and the value plane holds the thunk or continuation untagged,
   so enqueueing a suspension allocates nothing at all.

   The running fiber's clock and how far it may advance inline (DESIGN
   §12): [now] is the simulated clock; [limit] is published at every
   dispatch. *)
type lane = { mutable now : int; mutable limit : int }

type t = {
  mutable bodies : (unit -> unit) list;  (* reversed spawn order *)
  mutable n_fibers : int;
  ready : Obj.t Pqueue.t;  (* aux = (fiber id lsl 1) lor is_continuation *)
  (* Scheduler state, scoped to this runtime so independent machines can
     run concurrently on different domains. [current_fiber] is -1 outside
     any fiber; [active] guards against the same value being run twice
     concurrently (e.g. shared across domains by mistake). The remaining
     fields are run-scoped (installed by [run], reset on finish); they
     live here rather than in [run]'s closure so that [stall_on]'s fast
     path can reach them. The running fiber's local clock
     is always the global one ([lane.now]): a fiber only runs once its
     key is the schedule minimum. *)
  lane : lane;
  mutable current_fiber : int;
  mutable active : bool;
  mutable draining : bool;  (* tear-down in progress: stalls must suspend *)
  mutable policy : policy;
  mutable obs : Mt_obs.Obs.t;
  mutable obs_on : bool;  (* Obs.enabled obs, cached off the stall path *)
  mutable pend_time : int;  (* Stall payload: stalling fiber's new clock *)
  mutable pend_tie : int;  (* … and its readiness tie *)
  (* The suspension handler pops the next task while it inserts the
     suspending one (a single fused heap sift) and parks it here; the
     scheduler loop runs a parked task before consulting the heap.
     [handoff_aux < 0] = nothing parked. *)
  mutable handoff_time : int;
  mutable handoff_aux : int;
  mutable handoff_task : Obj.t;
  (* Preallocated effect-handler branch: returning the same closure for
     every [Stall] keeps the suspension path allocation-free. Set once in
     [create] (it captures the runtime itself). *)
  mutable on_stall : ((unit, unit) continuation -> unit) option;
}

(* The runtime currently executing on *this* domain, plus the final clock
   of the domain's last completed run (what [now ()] reports between runs).
   Domain-local by construction: runs on other domains are invisible here,
   which is precisely the one-machine-per-domain concurrency contract. *)
let current_key : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)
let last_clock_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

let create () =
  let t =
    {
      bodies = [];
      n_fibers = 0;
      ready = Pqueue.create ();
      lane = { now = 0; limit = min_int };
      current_fiber = -1;
      active = false;
      draining = false;
      policy = default_policy;
      obs = Mt_obs.Obs.null;
      obs_on = false;
      pend_time = 0;
      pend_tie = 0;
      handoff_time = 0;
      handoff_aux = -1;
      handoff_task = Obj.repr 0;
      on_stall = None;
    }
  in
  t.on_stall <-
    Some
      (fun k ->
        let aux = (t.current_fiber lsl 1) lor 1 in
        if t.draining then
          (* Tear-down: just park the re-suspended fiber in the queue for
             [drain_aborted]'s sweep — no task may bypass it. *)
          Pqueue.add_aux t.ready ~time:t.pend_time ~tie:t.pend_tie ~aux
            (Obj.repr k)
        else begin
          let v =
            Pqueue.exchange t.ready ~time:t.pend_time ~tie:t.pend_tie ~aux
              (Obj.repr k)
          in
          t.handoff_time <- Pqueue.xchg_time t.ready;
          t.handoff_aux <- Pqueue.xchg_aux t.ready;
          t.handoff_task <- v
        end);
  t

let current () = Domain.DLS.get current_key

let clock t = t.lane.now
let lane t = t.lane

let now () =
  match current () with
  | Some t -> t.lane.now
  | None -> Domain.DLS.get last_clock_key

let start t body () =
  match_with body ()
    {
      retc = (fun () -> ());
      exnc = (fun exn -> raise exn);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Stall -> (t.on_stall : ((a, unit) continuation -> unit) option)
          | _ -> None);
    }

(* A fiber joins the schedule only before [run]: every fiber starts at
   time 0, so the set of fibers is fixed for the whole run. *)
let spawn t body =
  if t.active then invalid_arg "Runtime.spawn: runtime is running";
  t.bodies <- body :: t.bodies;
  t.n_fibers <- t.n_fibers + 1

(* [stall_on t n]: the only stall entry. The caller must be a fiber of
   [t]'s active run. Ctx advances [lane.now] itself below the lane
   limit, so this is only reached to suspend, under a non-default
   policy or with a recording sink. *)
let stall_on t n =
  if n < 0 then invalid_arg "Runtime.stall_on: negative latency";
  let tid = t.current_fiber in
  if tid < 0 then invalid_arg "Runtime.stall_on: not inside a fiber";
  let lane = t.lane in
  let now = lane.now in
  let p = t.policy in
  let delay, tie =
    if is_default p then (n, tid)
    else begin
      (* Hook order (delay draw, then tie draw) is part of a stateful
         policy's PRNG stream contract — both are consulted at every
         stall, suspending or not. *)
      let d = n + p.extra_delay ~tid ~now in
      (d, p.tie_of ~tid)
    end
  in
  if t.obs_on then
    Mt_obs.Obs.emit t.obs ~core:tid ~time:now
      (Mt_obs.Obs.Fiber_stall { cycles = delay });
  let nc = now + delay in
  if (not t.draining) && nc < Pqueue.first_not_before t.ready ~tie then begin
    (* Fast path: this fiber's new key is still the schedule minimum,
       so enqueueing and popping it would resume it immediately. Skip
       the effect suspension entirely and replay what the scheduler
       loop would have done: advance the global clock and emit the
       resume event. Byte-identical to the slow path by construction. *)
    lane.now <- nc;
    if t.obs_on then
      Mt_obs.Obs.emit t.obs ~core:tid ~time:nc Mt_obs.Obs.Fiber_resume
  end
  else begin
    t.pend_time <- nc;
    t.pend_tie <- tie;
    perform Stall
  end

(* Tear-down after a fiber exception: every still-suspended fiber is
   resumed with [Aborted] raised at its stall point, so closures release
   their resources (Fun.protect finalizers run) and the continuations are
   not abandoned. A fiber that traps [Aborted] and stalls again simply
   re-enters the queue and is aborted again at its next suspension. *)
let drain_aborted t =
  t.draining <- true;
  t.lane.limit <- min_int;
  (* A task parked in the handoff slot is as live as a queued one; sweep
     it first (a trapped-and-restalled fiber re-enters the queue via the
     draining branch of [on_stall] and is caught by the loop below). *)
  if t.handoff_aux >= 0 then begin
    let aux = t.handoff_aux in
    let task = t.handoff_task in
    t.handoff_aux <- -1;
    t.handoff_task <- Obj.repr 0;
    if aux land 1 = 1 then begin
      t.current_fiber <- aux lsr 1;
      try discontinue (Obj.obj task : (unit, unit) continuation) Aborted
      with _ -> ()
    end
  end;
  while not (Pqueue.is_empty t.ready) do
    let aux = Pqueue.top_aux t.ready in
    let task = Pqueue.pop t.ready in
    if aux land 1 = 1 then begin
      (* suspended mid-stall: unwind it *)
      t.current_fiber <- aux lsr 1;
      try discontinue (Obj.obj task : (unit, unit) continuation) Aborted
      with _ -> ()
    end
    (* else: never ran, nothing to unwind *)
  done;
  t.draining <- false

let run ?(policy = default_policy) ?(obs = Mt_obs.Obs.null) t =
  (match current () with
  | Some _ -> invalid_arg "Runtime.run: a run is already active on this domain"
  | None -> ());
  if t.active then
    invalid_arg "Runtime.run: this runtime is already running on another domain";
  t.active <- true;
  t.lane.now <- 0;
  t.current_fiber <- -1;
  t.policy <- policy;
  t.obs <- obs;
  t.obs_on <- Mt_obs.Obs.enabled obs;
  (* The lane is off under a policy with hooks or a recording sink. *)
  let lane_on = is_default policy && not t.obs_on in
  Domain.DLS.set current_key (Some t);
  List.iteri
    (fun i body ->
      let tid = t.n_fibers - 1 - i in
      let tie = if is_default policy then tid else policy.tie_of ~tid in
      Pqueue.add_aux t.ready ~time:0 ~tie ~aux:(tid lsl 1)
        (Obj.repr (start t body)))
    t.bodies;
  let finish () =
    t.active <- false;
    t.lane.limit <- min_int;
    t.current_fiber <- -1;
    t.policy <- default_policy;
    t.obs <- Mt_obs.Obs.null;
    t.obs_on <- false;
    Domain.DLS.set last_clock_key t.lane.now;
    Domain.DLS.set current_key None
  in
  (* Trampoline: a suspension's handler parks the next task in the
     handoff slot and returns (the [continue]/thunk call below then
     returns normally), so [dispatch]'s recursive [drive] is a tail call
     and the native stack does not grow with schedule length. *)
  let rec drive () =
    if t.handoff_aux >= 0 then begin
      let time = t.handoff_time and aux = t.handoff_aux in
      let task = t.handoff_task in
      t.handoff_aux <- -1;
      t.handoff_task <- Obj.repr 0;
      dispatch time aux task
    end
    else if not (Pqueue.is_empty t.ready) then begin
      let time = Pqueue.top_time t.ready in
      let aux = Pqueue.top_aux t.ready in
      let task = Pqueue.pop t.ready in
      dispatch time aux task
    end
  and dispatch time aux task =
    t.lane.now <- time;
    let tid = aux lsr 1 in
    t.current_fiber <- tid;
    (* Publish the lane limit: the earliest clock at which another
       fiber's key would come first (the fiber's own tie is its id under
       the default policy). Below it, a stall is [lane.now <- lane.now +
       n] and nothing else, so [Ctx] does that inline; at or past it it
       calls [stall_on]. The limit only moves when the heap does. *)
    if lane_on then
      t.lane.limit <- Pqueue.first_not_before t.ready ~tie:tid;
    if t.obs_on then
      Mt_obs.Obs.emit t.obs ~core:tid ~time Mt_obs.Obs.Fiber_resume;
    if aux land 1 = 1 then
      continue (Obj.obj task : (unit, unit) continuation) ()
    else (Obj.obj task : unit -> unit) ();
    drive ()
  in
  (try drive ()
   with exn ->
     drain_aborted t;
     finish ();
     raise exn);
  finish ()
