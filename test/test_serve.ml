(* Unit and integration tests for the open-loop service layer (lib/serve):
   the shared queue's FIFO order, capacity bound and counters,
   Poisson arrival statistics and determinism, request conservation
   (generated = completed + dropped + still-queued) and exactly-once
   completion over random configurations, same-seed byte-identical replay
   (with tracing on or off), the two dispatch rules (fixed priority: the
   lowest-numbered idle worker takes each request one cycle after it
   arrives; packed: worker w takes requests only while more than w are
   queued; under both, one wake per idle worker per arrival), and the two
   macroscopic sanity properties of an open-loop system: at low load
   end-to-end latency is dominated by service time, and past saturation
   goodput plateaus while requests get dropped. *)

open Mt_core
module Runtime = Mt_sim.Runtime
module Serve = Mt_serve.Server
module Arrival = Mt_serve.Arrival
module Hist = Mt_obs.Hist
module Json = Mt_obs.Json
module Obs = Mt_obs.Obs

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Poisson arrivals. *)

let times n arr = List.init n (fun _ -> Arrival.next arr)

let test_arrival_poisson () =
  let mk seed =
    Arrival.create ~process:Arrival.Poisson ~rate_per_kcycle:5.0 ~seed
  in
  let ts = times 10_000 (mk 42) in
  (* Monotone, and the empirical rate matches the offered rate. *)
  let rec mono = function
    | a :: (b :: _ as rest) -> a <= b && mono rest
    | _ -> true
  in
  check_bool "monotone" true (mono ts);
  let last = List.nth ts 9_999 in
  let mean_gap = float_of_int last /. 10_000.0 in
  check_bool "mean gap ~ 200"
    (abs_float (mean_gap -. 200.0) < 20.0)
    true;
  check_bool "same seed replays" true (ts = times 10_000 (mk 42));
  check_bool "different seed differs" false (ts = times 10_000 (mk 43))

(* ------------------------------------------------------------------ *)
(* Service runs against a synthetic fixed-cost backend: service time is
   exactly [work] cycles, so capacity = workers / work and every latency
   number is predictable. *)

let synthetic ?(work = 100) ?obs ?make_policy ?dispatch c =
  Serve.run ?obs ?make_policy ?dispatch ~name:"synthetic"
    ~setup:(fun _ctx -> ())
    ~op:(fun ctx () _payload -> Ctx.work ctx work)
    c

let conserved (r : Serve.result) =
  check_int "conservation" r.generated (r.completed + r.dropped + r.still_queued);
  check_int "drained" 0 r.still_queued

(* Ids of the events [f] selects, in emission order. *)
let ids_of f obs = List.filter_map (fun (e : Obs.event) -> f e.kind) (Obs.events obs)

let dequeued = ids_of (function Obs.Req_dequeue { id; _ } -> Some id | _ -> None)

let rec ascending = function
  | a :: (b :: _ as rest) -> a < b && ascending rest
  | _ -> true

let test_queue_fifo () =
  (* Overloaded (capacity ~20/kcycle at work=100, offered 60) into a
     4-slot queue: it fills to exactly its bound and no further, dequeues
     come out in arrival order, and every admitted request has its
     enqueue event. *)
  let c =
    Serve.config ~workers:2 ~rate_per_kcycle:60.0 ~queue_capacity:4
      ~horizon:20_000 ()
  in
  let obs = Obs.create ~num_cores:3 () in
  let r = synthetic ~obs c in
  let depths =
    ids_of (function Obs.Req_enqueue { depth; _ } -> Some depth | _ -> None) obs
  in
  check_int "max_depth reaches the bound" 4 r.max_depth;
  check_bool "no enqueue past the bound" true (List.for_all (fun d -> d <= 4) depths);
  check_bool "dequeues in arrival order" true (ascending (dequeued obs));
  check_int "enqueues" (r.generated - r.dropped) (List.length depths)

let test_conservation_drop () =
  (* Overloaded (capacity ~20/kcycle at work=100, offered 60), tiny queue:
     drops must appear and the accounting must balance. *)
  let c =
    Serve.config ~workers:2 ~rate_per_kcycle:60.0 ~queue_capacity:8
      ~horizon:30_000 ()
  in
  let r = synthetic c in
  conserved r;
  check_bool "generated some load" true (r.generated > 1_000);
  check_bool "dropped under overload" true (r.dropped > 0)

(* Over random accepted configs, under either dispatch rule and under the
   default or a seeded random policy: every generated request ends in
   exactly one commit or drop, the counters balance, nothing is left
   queued, the queue never outgrows its bound, and dequeues are globally
   FIFO (request ids strictly ascend). *)
let prop_exactly_once =
  (* [policy] is [None] for the default schedule, [Some s] for
     [random_policy ~seed:s]. *)
  let gen =
    QCheck.Gen.(
      map
        (fun ( ((workers, batch, queue_capacity), (rate, horizon, seed)),
               (dispatch, policy) ) ->
          ( Serve.config ~workers ~batch ~queue_capacity ~horizon ~seed
              ~rate_per_kcycle:(float_of_int rate) (),
            dispatch,
            policy ))
        (pair
           (pair
              (triple (int_range 1 8) (int_range 1 8) (int_range 1 64))
              (triple (int_range 1 80) (int_range 1 20_000)
                 (int_bound 1_000)))
           (pair
              (oneofl [ Serve.Fixed_priority; Serve.Packed ])
              (opt (int_bound 1_000)))))
  in
  let print ((c : Serve.config), dispatch, policy) =
    Printf.sprintf
      "workers %d batch %d cap %d rate %g horizon %d seed %d %s %s"
      c.workers c.batch c.queue_capacity c.rate_per_kcycle c.horizon c.seed
      (match dispatch with
       | Serve.Fixed_priority -> "fixed-priority"
       | Serve.Packed -> "packed")
      (match policy with
       | None -> "default policy"
       | Some s -> Printf.sprintf "random policy %d" s)
  in
  QCheck.Test.make ~name:"exactly-once, FIFO" ~count:100 (QCheck.make ~print gen)
    (fun (c, dispatch, policy) ->
      let obs = Obs.create ~num_cores:(c.workers + 1) () in
      let make_policy =
        Option.map (fun seed _m -> Runtime.random_policy ~seed ()) policy
      in
      let r = synthetic ~obs ?make_policy ~dispatch c in
      let ends = Array.make r.generated 0 in
      List.iter
        (fun id ->
          if id < 0 || id >= r.generated then
            QCheck.Test.fail_reportf "event for request %d of %d" id r.generated;
          ends.(id) <- ends.(id) + 1)
        (ids_of
           (function
             | Obs.Req_commit { id } | Obs.Req_drop { id } -> Some id | _ -> None)
           obs);
      Obs.dropped obs = 0
      && Array.for_all (( = ) 1) ends
      && r.generated = r.completed + r.dropped
      && r.still_queued = 0
      && r.max_depth <= c.queue_capacity
      && ascending (dequeued obs))

let test_same_seed_replay () =
  let c =
    Serve.config ~workers:3 ~rate_per_kcycle:40.0 ~queue_capacity:16 ~batch:2
      ~horizon:25_000 ~seed:5 ()
  in
  let j r = Json.to_string (Serve.result_to_json r) in
  let r1 = synthetic c and r2 = synthetic c in
  check_string "same seed, byte-identical result" (j r1) (j r2);
  (* Tracing must not perturb anything the result reports. *)
  let obs = Obs.create ~num_cores:4 () in
  let r3 = synthetic ~obs c in
  check_string "tracing changes nothing" (j r1) (j r3);
  (* A different seed gives a genuinely different run. *)
  let c' = { c with Serve.seed = 6 } in
  check_bool "different seed differs" false (j r1 = j (synthetic c'))

let test_events_match_counters () =
  let c =
    Serve.config ~workers:2 ~rate_per_kcycle:60.0 ~queue_capacity:8 ~batch:2
      ~horizon:15_000 ()
  in
  let obs = Obs.create ~num_cores:3 () in
  let r = synthetic ~obs c in
  let enq = ref 0 and deq = ref 0 and drop = ref 0 and batches = ref 0 in
  List.iter
    (fun (e : Obs.event) ->
      match e.kind with
      | Obs.Req_enqueue _ -> incr enq
      | Obs.Req_dequeue _ -> incr deq
      | Obs.Req_drop _ -> incr drop
      | Obs.Batch _ -> incr batches
      | _ -> ())
    (Obs.events obs);
  check_int "enqueue events" (r.generated - r.dropped) !enq;
  check_int "dequeue events" r.completed !deq;
  check_int "drop events" r.dropped !drop;
  check_bool "batch events" true (!batches > 0);
  check_int "nothing lost to ring wraparound" 0 (Obs.dropped obs)

let test_low_load_latency () =
  (* At 10% of capacity the queue is almost always empty: end-to-end p50
     is the service time plus dispatch overhead, not queueing. *)
  let c =
    Serve.config ~workers:2 ~rate_per_kcycle:2.0 ~horizon:100_000 ()
  in
  let r = synthetic c in
  check_int "no drops at low load" 0 r.dropped;
  let s50 = Hist.percentile r.service 50.0 in
  let e50 = Hist.percentile r.e2e 50.0 in
  check_bool "service p50 ~ work cycles" true (s50 >= 100 && s50 <= 115);
  check_bool "e2e p50 dominated by service" true (e50 < 2 * s50);
  check_int "median wait is one cycle" 1 (Hist.percentile r.queue_wait 50.0)

(* Low load under the default policy with a recording sink: Poisson at
   2 req/kcycle into 3 workers, each request 100 cycles of work. *)
let low_load_trace ?dispatch () =
  let c = Serve.config ~workers:3 ~rate_per_kcycle:2.0 ~horizon:100_000 () in
  let obs = Obs.create ~num_cores:4 () in
  let r = synthetic ~obs ?dispatch c in
  check_int "nothing lost to ring wraparound" 0 (Obs.dropped obs);
  conserved r;
  (c, r, Obs.events obs)

let test_dispatch_rule () =
  (* Fixed-priority dispatch: a request that arrives to an empty queue
     while worker 0 is idle is dequeued by worker 0 one cycle later. *)
  let _, r, events = low_load_trace () in
  let busy0 = ref false in
  let expected = ref [] and taken = Hashtbl.create 256 in
  List.iter
    (fun (e : Obs.event) ->
      match e.kind with
      | Obs.Req_enqueue { id; depth } ->
          if (not !busy0) && depth = 1 then expected := id :: !expected
      | Obs.Req_dequeue { id; wait } ->
          Hashtbl.replace taken id (e.core, wait);
          if e.core = 0 then busy0 := true
      | Obs.Req_commit _ when e.core = 0 -> busy0 := false
      | _ -> ())
    events;
  List.iter
    (fun id ->
      match Hashtbl.find_opt taken id with
      | Some (0, 1) -> ()
      | Some (core, wait) ->
          Alcotest.failf "request %d (worker 0 idle) went to worker %d after %d cycles"
            id core wait
      | None -> Alcotest.failf "request %d was never dequeued" id)
    !expected;
  (* Worker 0 is ~20% busy, so about four in five requests are checked. *)
  check_bool "most requests find worker 0 idle" true
    (4 * List.length !expected >= 3 * r.generated)

let test_wake_economy ?dispatch () =
  (* Idle workers sleep until the next arrival instead of polling: at low
     load each generated request costs at most one stall per worker
     outside service (the workers it does not go to re-sleep, the one it
     goes to sleeps once it is done). A fixed-interval poll stalls every
     idle worker many times per inter-arrival gap. Under packed dispatch
     a worker that finds too few requests queued sleeps the same way. *)
  let c, r, events = low_load_trace ?dispatch () in
  let busy = Array.make c.workers false and idle_stalls = ref 0 in
  List.iter
    (fun (e : Obs.event) ->
      if e.core < c.workers then
        match e.kind with
        | Obs.Req_dequeue _ -> busy.(e.core) <- true
        | Obs.Req_commit _ -> busy.(e.core) <- false
        | Obs.Fiber_stall _ -> if not busy.(e.core) then incr idle_stalls
        | _ -> ())
    events;
  check_bool "generated load" true (r.generated > 100);
  if !idle_stalls > c.workers * r.generated then
    Alcotest.failf "%d idle-worker stalls for %d requests (bound %d per request)"
      !idle_stalls r.generated c.workers

let test_packed_dispatch () =
  (* Packed dispatch, rebuilt from the event stream: the depth rises by
     one at each enqueue and falls by one at each dequeue, and a worker
     dequeues only while more requests are queued than its index. Work
     500 cycles at 5.5 req/kcycle into 4 workers is ~70% of capacity, so
     the backlog reaches every worker's threshold many times. *)
  let c =
    Serve.config ~workers:4 ~batch:2 ~queue_capacity:32 ~rate_per_kcycle:5.5
      ~horizon:60_000 ()
  in
  let obs = Obs.create ~num_cores:5 () in
  let r = synthetic ~work:500 ~obs ~dispatch:Serve.Packed c in
  check_int "nothing lost to ring wraparound" 0 (Obs.dropped obs);
  conserved r;
  let depth = ref 0 and per_worker = Array.make c.workers 0 in
  List.iter
    (fun (e : Obs.event) ->
      match e.kind with
      | Obs.Req_enqueue _ -> incr depth
      | Obs.Req_dequeue { id; _ } ->
          if !depth <= e.core then
            Alcotest.failf "worker %d dequeued request %d with %d queued" e.core
              id !depth;
          per_worker.(e.core) <- per_worker.(e.core) + 1;
          decr depth
      | _ -> ())
    (Obs.events obs);
  check_int "queue empty at the end" 0 !depth;
  (* Every worker served, and the lower a worker's index the more. *)
  Array.iteri
    (fun w n ->
      if n = 0 then Alcotest.failf "worker %d served nothing" w;
      if w > 0 && n > per_worker.(w - 1) then
        Alcotest.failf "worker %d served %d, more than worker %d's %d" w n
          (w - 1) per_worker.(w - 1))
    per_worker

let test_overload_saturation () =
  (* Past the knee: goodput plateaus (2x vs 4x offered changes goodput by
     <15%), drops appear, and the end-to-end tail explodes relative to a
     low-load run. *)
  let run rate =
    synthetic
      (Serve.config ~workers:2 ~rate_per_kcycle:rate ~queue_capacity:32
         ~horizon:60_000 ())
  in
  let low = run 4.0 and over1 = run 40.0 and over2 = run 80.0 in
  check_int "low load drops nothing" 0 low.dropped;
  check_bool "overload drops" true (over1.dropped > 0 && over2.dropped > 0);
  check_bool "goodput grew to saturation" true (over1.goodput > 2.0 *. low.goodput);
  let plateau =
    abs_float (over2.goodput -. over1.goodput) /. over1.goodput
  in
  check_bool "goodput plateaus past the knee" true (plateau < 0.15);
  let p99 r = Hist.percentile r.Serve.e2e 99.0 in
  check_bool "tail explodes past the knee" true (p99 over1 > 5 * p99 low);
  check_bool "drop rate grows with offered load" true
    (over2.drop_rate > over1.drop_rate)

let test_batching_amortizes_dispatch () =
  (* With the per-dequeue dispatch cost comparable to the work itself,
     batching must lift goodput under overload (that is the point of
     batching). *)
  let run batch =
    synthetic ~work:20
      (Serve.config ~workers:2 ~rate_per_kcycle:120.0 ~queue_capacity:64 ~batch
         ~horizon:60_000 ())
  in
  let b1 = run 1 and b8 = run 8 in
  check_bool "batching lifts goodput" true (b8.goodput > b1.goodput *. 1.2);
  check_bool "batches actually fill" true (Hist.mean b8.batch_fill > 2.0)

(* ------------------------------------------------------------------ *)
(* Integration: a real structure as the backend. *)

let test_real_backend () =
  let c =
    Serve.config ~workers:2 ~rate_per_kcycle:4.0 ~horizon:40_000 ()
  in
  let r = Serve.run_set (module Mt_list.Hoh_list) ~key_range:128 c in
  conserved r;
  check_string "backend name" "hoh-list" r.backend;
  check_bool "completed requests" true (r.completed > 50);
  check_bool "latency recorded" true (Hist.count r.e2e = r.completed)

let () =
  Alcotest.run "serve"
    [
      ( "queue",
        [ Alcotest.test_case "fifo, capacity, counters" `Quick test_queue_fifo ] );
      ( "arrival",
        [
          Alcotest.test_case "poisson rate + determinism" `Quick test_arrival_poisson;
        ] );
      ( "conservation",
        [
          Alcotest.test_case "drop admission" `Quick test_conservation_drop;
          QCheck_alcotest.to_alcotest prop_exactly_once;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same-seed replay, tracing-invariant" `Quick
            test_same_seed_replay;
          Alcotest.test_case "events match counters" `Quick
            test_events_match_counters;
        ] );
      ( "latency",
        [
          Alcotest.test_case "low load: e2e ~ service" `Quick test_low_load_latency;
          Alcotest.test_case "dispatch: lowest-numbered idle worker" `Quick
            test_dispatch_rule;
          Alcotest.test_case "packed: worker w needs more than w queued"
            `Quick test_packed_dispatch;
          Alcotest.test_case "idle workers wake once per arrival" `Quick
            (test_wake_economy ?dispatch:None);
          Alcotest.test_case "packed: one wake per idle worker per arrival"
            `Quick (test_wake_economy ~dispatch:Serve.Packed);
          Alcotest.test_case "overload: plateau + drops + tail" `Quick
            test_overload_saturation;
          Alcotest.test_case "batching amortizes dispatch" `Quick
            test_batching_amortizes_dispatch;
        ] );
      ( "integration",
        [ Alcotest.test_case "hoh-list backend" `Quick test_real_backend ] );
    ]
