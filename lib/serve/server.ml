open Mt_sim
open Mt_core
module Obs = Mt_obs.Obs
module Hist = Mt_obs.Hist
module Json = Mt_obs.Json

type queues = Shared | Per_worker of { steal : bool }

type admission =
  | Drop
  | Retry of { max_retries : int; backoff_base : int; backoff_cap : int }

type config = {
  workers : int;
  batch : int;
  queue_capacity : int;
  queues : queues;
  admission : admission;
  process : Arrival.process;
  rate_per_kcycle : float;
  horizon : int;
  dispatch_cycles : int;
  seed : int;
  record_dequeues : bool;
}

(* How long an idle worker waits before polling its queue again. *)
let idle_poll_cycles = 32

let config ?(batch = 1) ?(queue_capacity = 64) ?(queues = Shared)
    ?(admission = Drop) ?(process = Arrival.Poisson) ?(horizon = 150_000)
    ?(dispatch_cycles = 16) ?(seed = 1)
    ?(record_dequeues = false) ~workers ~rate_per_kcycle () =
  if workers <= 0 || workers > 63 then invalid_arg "Server.config: bad workers";
  if batch <= 0 then invalid_arg "Server.config: batch must be positive";
  if queue_capacity <= 0 then invalid_arg "Server.config: bad queue_capacity";
  if not (rate_per_kcycle > 0.0) then invalid_arg "Server.config: bad rate";
  if horizon <= 0 then invalid_arg "Server.config: bad horizon";
  if dispatch_cycles < 0 then invalid_arg "Server.config: bad cycle cost";
  (match admission with
  | Retry { max_retries; backoff_base; backoff_cap } ->
      if max_retries < 0 || backoff_base <= 0 || backoff_cap < backoff_base then
        invalid_arg "Server.config: bad retry policy"
  | Drop -> ());
  {
    workers;
    batch;
    queue_capacity;
    queues;
    admission;
    process;
    rate_per_kcycle;
    horizon;
    dispatch_cycles;
    seed;
    record_dequeues;
  }

type req = { id : int; arrival : int; payload : int; mutable attempts : int }

type result = {
  backend : string;
  config : config;
  generated : int;
  completed : int;
  dropped : int;
  rejects : int;
  steals : int;
  still_queued : int;
  duration : int;
  offered : float;
  goodput : float;
  drop_rate : float;
  queue_wait : Hist.t;
  service : Hist.t;
  e2e : Hist.t;
  batch_fill : Hist.t;
  max_depth : int;
  dequeue_log : (int * int) list;
  class_names : string array;
  class_counts : int array;
  class_service : Hist.t array;
  class_e2e : Hist.t array;
}

let run ?cfg ?(obs = Obs.null) ?make_policy ?series ?classes ~name ~setup ~op
    (c : config) =
  let threads = c.workers + 1 in
  let cfg =
    match cfg with Some m -> m | None -> Config.default ~num_cores:threads ()
  in
  if cfg.Config.num_cores < threads then
    invalid_arg "Server.run: machine has fewer cores than workers + 1";
  let m = Machine.create ~obs cfg in
  let state = Harness.exec1 m ~seed:c.seed (fun ctx -> setup ctx) in
  let nq = match c.queues with Shared -> 1 | Per_worker _ -> c.workers in
  let qs = Array.init nq (fun i -> Queue.create ~id:i ~capacity:c.queue_capacity) in
  let gen_done = ref false in
  let generated = ref 0
  and completed = ref 0
  and dropped = ref 0
  and steals = ref 0 in
  let queue_wait = Hist.create ()
  and service = Hist.create ()
  and e2e = Hist.create ()
  and batch_fill = Hist.create () in
  let dequeue_log = ref [] in
  (* Optional per-request-class breakdown: [classes = (names, classify)]
     buckets each completed request by [classify payload] — host-level
     accounting only, so it never perturbs the simulation. *)
  let class_names = match classes with Some (n, _) -> n | None -> [||] in
  let classify = match classes with Some (_, f) -> f | None -> fun _ -> -1 in
  let nclasses = Array.length class_names in
  let class_counts = Array.make nclasses 0 in
  let class_service = Array.init nclasses (fun _ -> Hist.create ()) in
  let class_e2e = Array.init nclasses (fun _ -> Hist.create ()) in

  (* The arrival fiber: generates timestamped requests from the arrival
     process until [horizon], runs admission (enqueue, or drop / schedule a
     client-side retry), then drains the retry heap. Retries never shift
     the arrival clock — the stream stays open-loop. *)
  let arrival_fiber ctx =
    let core = Ctx.core ctx in
    let arr =
      Arrival.create ~process:c.process ~rate_per_kcycle:c.rate_per_kcycle
        ~seed:(c.seed + 101)
    in
    let pay = Prng.create ~seed:(c.seed + 202) in
    (* Client-side retry buffer, ordered on (due time, request id) so
       retries fire in a deterministic order and never delay later
       arrivals. A request sits in it at most once, so keys are unique. *)
    let heap = Pqueue.create () in
    let qid_of req =
      match c.queues with Shared -> 0 | Per_worker _ -> req.id mod c.workers
    in
    let attempt req =
      let q = qs.(qid_of req) in
      if Queue.try_enqueue q req then begin
        if Obs.enabled obs then
          Obs.emit obs ~core ~time:(Ctx.now ctx)
            (Obs.Req_enqueue
               { id = req.id; queue = Queue.id q; depth = Queue.length q })
      end
      else
        match c.admission with
        | Retry { max_retries; backoff_base; backoff_cap }
          when req.attempts < max_retries ->
            let b =
              Mt_cm.Cm.capped_backoff ~base:backoff_base ~cap:backoff_cap
                ~attempt:req.attempts
            in
            req.attempts <- req.attempts + 1;
            if Obs.enabled obs then
              Obs.emit obs ~core ~time:(Ctx.now ctx)
                (Obs.Req_retry
                   {
                     id = req.id;
                     attempt = req.attempts;
                     cause = "queue-full";
                   });
            Pqueue.add heap ~time:(Ctx.now ctx + b) ~tie:req.id req
        | _ ->
            incr dropped;
            if Obs.enabled obs then
              Obs.emit obs ~core ~time:(Ctx.now ctx)
                (Obs.Req_drop
                   { id = req.id; queue = Queue.id q; cause = "queue-full" })
    in
    let next_arrival = ref (Arrival.next arr) in
    let next_id = ref 0 in
    let continue = ref true in
    while !continue do
      let arr_t = if !next_arrival < c.horizon then Some !next_arrival else None in
      let retry_t = Pqueue.min_time heap in
      let next_event =
        match (arr_t, retry_t) with
        | None, None -> None
        | Some a, None -> Some (a, true)
        | None, Some r -> Some (r, false)
        | Some a, Some r -> if a <= r then Some (a, true) else Some (r, false)
      in
      match next_event with
      | None -> continue := false
      | Some (t, is_arrival) ->
          let now = Ctx.now ctx in
          if t > now then Runtime.stall_on (Ctx.runtime ctx) (t - now);
          if is_arrival then begin
            let payload = Int64.to_int (Prng.next pay) land max_int in
            let req =
              { id = !next_id; arrival = Ctx.now ctx; payload; attempts = 0 }
            in
            incr next_id;
            incr generated;
            next_arrival := Arrival.next arr;
            if Obs.enabled obs then
              Obs.emit obs ~core ~time:req.arrival
                (Obs.Req_arrive { id = req.id });
            attempt req
          end
          else attempt (Pqueue.pop heap)
    done;
    gen_done := true
  in

  (* A worker fiber: form a batch (own queue first, then steal if enabled),
     charge the dispatch overhead once, execute each request, record
     wait / service / end-to-end. Exits once arrivals are done and every
     queue it can see is empty. *)
  let worker_fiber ctx w =
    let own = match c.queues with Shared -> qs.(0) | Per_worker _ -> qs.(w) in
    let can_steal =
      match c.queues with Per_worker { steal } -> steal | Shared -> false
    in
    (* Take up to [k] requests from [q], tagging each with the queue id. *)
    let take_from q k =
      let rec go k acc =
        if k = 0 then List.rev acc
        else
          match Queue.dequeue q with
          | None -> List.rev acc
          | Some r -> go (k - 1) ((r, Queue.id q) :: acc)
      in
      go k []
    in
    let steal_batch k =
      let rec scan i =
        if i >= nq - 1 then []
        else
          let v = (w + 1 + i) mod nq in
          let got = take_from qs.(v) k in
          if got = [] then scan (i + 1)
          else begin
            steals := !steals + List.length got;
            got
          end
      in
      scan 0
    in
    let finished () =
      !gen_done
      &&
      match c.queues with
      | Shared -> Queue.is_empty qs.(0)
      | Per_worker { steal = true } -> Array.for_all Queue.is_empty qs
      | Per_worker { steal = false } -> Queue.is_empty own
    in
    let continue = ref true in
    while !continue do
      let batch = take_from own c.batch in
      let batch = if batch = [] && can_steal then steal_batch c.batch else batch in
      match batch with
      | [] ->
          if finished () then continue := false
          else Runtime.stall_on (Ctx.runtime ctx) idle_poll_cycles
      | batch ->
          let t_dq = Ctx.now ctx in
          let n = List.length batch in
          Hist.add batch_fill n;
          if Obs.enabled obs then
            Obs.emit obs ~core:w ~time:t_dq (Obs.Batch { size = n });
          List.iter
            (fun (r, qid) ->
              Hist.add queue_wait (t_dq - r.arrival);
              if c.record_dequeues then dequeue_log := (qid, r.id) :: !dequeue_log;
              if Obs.enabled obs then
                Obs.emit obs ~core:w ~time:t_dq
                  (Obs.Req_dequeue
                     { id = r.id; queue = qid; wait = t_dq - r.arrival }))
            batch;
          Ctx.work ctx c.dispatch_cycles;
          List.iter
            (fun (r, _) ->
              let t0 = Ctx.now ctx in
              if Obs.enabled obs then
                Obs.emit obs ~core:w ~time:t0 (Obs.Span_begin { name });
              op ctx state r.payload;
              let t1 = Ctx.now ctx in
              if Obs.enabled obs then begin
                Obs.emit obs ~core:w ~time:t1 (Obs.Span_end { name });
                Obs.emit obs ~core:w ~time:t1 (Obs.Req_commit { id = r.id })
              end;
              Hist.add service (t1 - t0);
              Hist.add e2e (t1 - r.arrival);
              if nclasses > 0 then begin
                let cl = classify r.payload in
                if cl >= 0 && cl < nclasses then begin
                  class_counts.(cl) <- class_counts.(cl) + 1;
                  Hist.add class_service.(cl) (t1 - t0);
                  Hist.add class_e2e.(cl) (t1 - r.arrival)
                end
              end;
              incr completed)
            batch
    done
  in
  (* The series and a custom policy (fault injection) drive the serving
     phase only, never setup. *)
  let policy = Option.map (fun f -> f m) make_policy in
  let duration =
    Harness.exec m ~seed:c.seed ?policy ?series ~threads (fun ctx ->
        let core = Ctx.core ctx in
        if core = c.workers then arrival_fiber ctx else worker_fiber ctx core)
  in
  let still_queued = Array.fold_left (fun a q -> a + Queue.length q) 0 qs in
  let max_depth = Array.fold_left (fun a q -> max a (Queue.max_depth q)) 0 qs in
  let rejects = Array.fold_left (fun a q -> a + Queue.rejects q) 0 qs in
  {
    backend = name;
    config = c;
    generated = !generated;
    completed = !completed;
    dropped = !dropped;
    rejects;
    steals = !steals;
    still_queued;
    duration;
    offered = c.rate_per_kcycle;
    (* Sustained completion rate over the whole run, drain included: under
       overload the queues keep completing work past the horizon, and
       dividing by the horizon alone would credit that backlog as extra
       capacity. *)
    goodput =
      (if duration = 0 then 0.0
       else 1000.0 *. float_of_int !completed /. float_of_int duration);
    drop_rate =
      (if !generated = 0 then 0.0
       else float_of_int !dropped /. float_of_int !generated);
    queue_wait;
    service;
    e2e;
    batch_fill;
    max_depth;
    dequeue_log = List.rev !dequeue_log;
    class_names;
    class_counts;
    class_service;
    class_e2e;
  }

let run_set ?obs ?make_policy ?series ?(insert_pct = 35) ?(delete_pct = 35)
    (module S : Mt_list.Set_intf.SET) ~key_range (c : config) =
  if key_range <= 0 then invalid_arg "Server.run_set: bad key_range";
  if insert_pct < 0 || delete_pct < 0 || insert_pct + delete_pct > 100 then
    invalid_arg "Server.run_set: bad operation mix";
  let setup ctx =
    Mt_list.Set_intf.prefilled (module S) ctx ~seed:(c.seed + 1) ~key_range
      ~fill:0.5
  in
  let op ctx s payload =
    let k = (payload lsr 20) mod key_range in
    let r = payload mod 100 in
    if r < insert_pct then ignore (S.insert ctx s k)
    else if r < insert_pct + delete_pct then ignore (S.delete ctx s k)
    else ignore (S.contains ctx s k)
  in
  run ?obs ?make_policy ?series ~name:S.name ~setup ~op c

let queues_name = function
  | Shared -> "shared"
  | Per_worker { steal = false } -> "per-worker"
  | Per_worker { steal = true } -> "per-worker-steal"

let pp_result ppf r =
  Format.fprintf ppf
    "%-18s offered %8.3f/kcyc  goodput %8.3f/kcyc  drop %5.2f%%  wait p50 %d  \
     e2e p50/p99/p99.9 %d/%d/%d  batch %.2f"
    r.backend r.offered r.goodput
    (100.0 *. r.drop_rate)
    (Hist.percentile r.queue_wait 50.0)
    (Hist.percentile r.e2e 50.0)
    (Hist.percentile r.e2e 99.0)
    (Hist.percentile r.e2e 99.9)
    (Hist.mean r.batch_fill)

(* Stable machine-readable form: one service point. Field set and order
   are part of the latency-sweep schema — extend, don't reorder. *)
let config_to_json (c : config) =
  Json.Obj
    [
      ("workers", Json.Int c.workers);
      ("batch", Json.Int c.batch);
      ("queue_capacity", Json.Int c.queue_capacity);
      ("queues", Json.String (queues_name c.queues));
      ( "admission",
        match c.admission with
        | Drop -> Json.Obj [ ("policy", Json.String "drop") ]
        | Retry { max_retries; backoff_base; backoff_cap } ->
            Json.Obj
              [
                ("policy", Json.String "retry");
                ("max_retries", Json.Int max_retries);
                ("backoff_base", Json.Int backoff_base);
                ("backoff_cap", Json.Int backoff_cap);
              ] );
      ("arrival", Json.String (Arrival.process_name c.process));
      ("offered_per_kcycle", Json.Float c.rate_per_kcycle);
      ("horizon_cycles", Json.Int c.horizon);
      ("dispatch_cycles", Json.Int c.dispatch_cycles);
      ("idle_poll_cycles", Json.Int idle_poll_cycles);
      ("seed", Json.Int c.seed);
    ]

let result_to_json r =
  Json.Obj
    [
      ("backend", Json.String r.backend);
      ("serve", config_to_json r.config);
      ("generated", Json.Int r.generated);
      ("completed", Json.Int r.completed);
      ("dropped", Json.Int r.dropped);
      ("enqueue_rejects", Json.Int r.rejects);
      ("steals", Json.Int r.steals);
      ("still_queued", Json.Int r.still_queued);
      ("duration_cycles", Json.Int r.duration);
      ("offered_per_kcycle", Json.Float r.offered);
      ("goodput_per_kcycle", Json.Float r.goodput);
      ("drop_rate", Json.Float r.drop_rate);
      ("queue_wait_cycles", Hist.to_json r.queue_wait);
      ("service_cycles", Hist.to_json r.service);
      ("e2e_latency_cycles", Hist.to_json r.e2e);
      ("batch_fill", Hist.to_json r.batch_fill);
      ("max_queue_depth", Json.Int r.max_depth);
      ( "classes",
        Json.List
          (Array.to_list
             (Array.mapi
                (fun i n ->
                  Json.Obj
                    [
                      ("class", Json.String n);
                      ("count", Json.Int r.class_counts.(i));
                      ("service_cycles", Hist.to_json r.class_service.(i));
                      ("e2e_latency_cycles", Hist.to_json r.class_e2e.(i));
                    ])
                r.class_names)) );
    ]
