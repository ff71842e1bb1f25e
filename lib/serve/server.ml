open Mt_sim
open Mt_core
module Obs = Mt_obs.Obs
module Hist = Mt_obs.Hist
module Json = Mt_obs.Json

type config = {
  workers : int;
  batch : int;
  queue_capacity : int;
  process : Arrival.process;
  rate_per_kcycle : float;
  horizon : int;
  seed : int;
}

(* Fixed dequeue/dispatch overhead charged once per batch — what
   batching amortizes. *)
let dispatch_cycles = 16

(* How long an idle worker waits before polling the queue again. *)
let idle_poll_cycles = 32

let config ?(batch = 1) ?(queue_capacity = 64) ?(process = Arrival.Poisson)
    ?(horizon = 150_000) ?(seed = 1) ~workers ~rate_per_kcycle () =
  if workers <= 0 || workers > 63 then invalid_arg "Server.config: bad workers";
  if batch <= 0 then invalid_arg "Server.config: batch must be positive";
  if queue_capacity <= 0 then invalid_arg "Server.config: bad queue_capacity";
  if not (rate_per_kcycle > 0.0) then invalid_arg "Server.config: bad rate";
  if horizon <= 0 then invalid_arg "Server.config: bad horizon";
  { workers; batch; queue_capacity; process; rate_per_kcycle; horizon; seed }

type req = { id : int; arrival : int; payload : int }

type result = {
  backend : string;
  config : config;
  generated : int;
  completed : int;
  dropped : int;
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
  (* The one shared bounded FIFO. Host-level state, not simulated memory:
     fibers only switch at simulated stalls, so it needs no locking, and
     what it measures is queueing delay, not its own contention. *)
  let queue = Queue.create () in
  let max_depth = ref 0 in
  let gen_done = ref false in
  let generated = ref 0 and completed = ref 0 and dropped = ref 0 in
  let queue_wait = Hist.create ()
  and service = Hist.create ()
  and e2e = Hist.create ()
  and batch_fill = Hist.create () in
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
     process until [horizon] and admits each one — enqueued if the queue
     has room, dropped for good if it is full. *)
  let arrival_fiber ctx =
    let core = Ctx.core ctx in
    let arr =
      Arrival.create ~process:c.process ~rate_per_kcycle:c.rate_per_kcycle
        ~seed:(c.seed + 101)
    in
    let pay = Prng.create ~seed:(c.seed + 202) in
    let due = ref (Arrival.next arr) in
    while !due < c.horizon do
      let now = Ctx.now ctx in
      if !due > now then Runtime.stall_on (Ctx.runtime ctx) (!due - now);
      let payload = Int64.to_int (Prng.next pay) land max_int in
      let req = { id = !generated; arrival = Ctx.now ctx; payload } in
      incr generated;
      due := Arrival.next arr;
      if Obs.enabled obs then
        Obs.emit obs ~core ~time:req.arrival (Obs.Req_arrive { id = req.id });
      if Queue.length queue < c.queue_capacity then begin
        Queue.push req queue;
        let depth = Queue.length queue in
        if depth > !max_depth then max_depth := depth;
        if Obs.enabled obs then
          Obs.emit obs ~core ~time:req.arrival
            (Obs.Req_enqueue { id = req.id; depth })
      end
      else begin
        incr dropped;
        if Obs.enabled obs then
          Obs.emit obs ~core ~time:req.arrival (Obs.Req_drop { id = req.id })
      end
    done;
    gen_done := true
  in

  (* A worker fiber: take up to [batch] requests, charge the dispatch
     overhead once, execute each request, record wait / service /
     end-to-end. Exits once arrivals are done and the queue is empty. *)
  let worker_fiber ctx w =
    let rec take k acc =
      if k = 0 || Queue.is_empty queue then List.rev acc
      else take (k - 1) (Queue.pop queue :: acc)
    in
    let continue = ref true in
    while !continue do
      match take c.batch [] with
      | [] ->
          if !gen_done then continue := false
          else Runtime.stall_on (Ctx.runtime ctx) idle_poll_cycles
      | batch ->
          let t_dq = Ctx.now ctx in
          let n = List.length batch in
          Hist.add batch_fill n;
          if Obs.enabled obs then
            Obs.emit obs ~core:w ~time:t_dq (Obs.Batch { size = n });
          List.iter
            (fun r ->
              Hist.add queue_wait (t_dq - r.arrival);
              if Obs.enabled obs then
                Obs.emit obs ~core:w ~time:t_dq
                  (Obs.Req_dequeue { id = r.id; wait = t_dq - r.arrival }))
            batch;
          Ctx.work ctx dispatch_cycles;
          List.iter
            (fun r ->
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
  {
    backend = name;
    config = c;
    generated = !generated;
    completed = !completed;
    dropped = !dropped;
    still_queued = Queue.length queue;
    duration;
    offered = c.rate_per_kcycle;
    (* Sustained completion rate over the whole run, drain included: under
       overload the queue keeps completing work past the horizon, and
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
    max_depth = !max_depth;
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
      ("arrival", Json.String (Arrival.process_name c.process));
      ("offered_per_kcycle", Json.Float c.rate_per_kcycle);
      ("horizon_cycles", Json.Int c.horizon);
      ("dispatch_cycles", Json.Int dispatch_cycles);
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
