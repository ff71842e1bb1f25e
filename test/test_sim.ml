(* Unit and property tests for the simulator substrate (lib/sim):
   PRNG, priority queue, memory, cache array, directory, MemTag unit,
   runtime scheduling, and the Machine coherence protocol itself. *)

open Mt_sim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Prng *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next a) (Prng.next b)
  done

let test_prng_split_independent () =
  let a = Prng.create ~seed:42 in
  let c = Prng.split a in
  let x = Prng.next a and y = Prng.next c in
  check_bool "split streams differ" true (x <> y)

let test_prng_int_bounds () =
  let a = Prng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Prng.int a 17 in
    check_bool "in range" true (v >= 0 && v < 17)
  done;
  Alcotest.check_raises "bound 0" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int a 0))

let prop_prng_float_range =
  QCheck.Test.make ~name:"prng float in [0,1)" ~count:500 QCheck.small_int (fun seed ->
      let g = Prng.create ~seed in
      let f = Prng.float g in
      f >= 0.0 && f < 1.0)

(* ------------------------------------------------------------------ *)
(* Pqueue *)

let test_pqueue_order () =
  let q = Pqueue.create () in
  Pqueue.add q ~time:5 ~tie:0 "e";
  Pqueue.add q ~time:1 ~tie:1 "a";
  Pqueue.add q ~time:3 ~tie:0 "c";
  Pqueue.add q ~time:1 ~tie:0 "b";
  let pop () =
    let _, _, v = Pqueue.pop_min q in
    v
  in
  let p1 = pop () in
  let p2 = pop () in
  let p3 = pop () in
  let p4 = pop () in
  Alcotest.(check (list string))
    "sorted by (time,tie)" [ "b"; "a"; "c"; "e" ] [ p1; p2; p3; p4 ];
  check_bool "empty" true (Pqueue.is_empty q)

let prop_pqueue_sorted =
  QCheck.Test.make ~name:"pqueue pops sorted" ~count:200
    QCheck.(list (pair small_nat small_nat))
    (fun entries ->
      let q = Pqueue.create () in
      List.iter (fun (t, tie) -> Pqueue.add q ~time:t ~tie ()) entries;
      let rec drain prev =
        if Pqueue.is_empty q then true
        else
          let t, tie, () = Pqueue.pop_min q in
          match prev with
          | Some (pt, ptie) when (t, tie) < (pt, ptie) -> false
          | _ -> drain (Some (t, tie))
      in
      drain None)

(* Interleaved adds and pops against a sorted reference model: every pop
   must return the key-minimum of what is currently enqueued (the heap
   property must survive arbitrary interleaving, not just bulk-load). *)
let prop_pqueue_model =
  QCheck.Test.make ~name:"pqueue matches model under add/pop interleaving"
    ~count:300
    QCheck.(list (option (pair small_nat small_nat)))
    (fun ops ->
      let q = Pqueue.create () in
      let model = ref [] in
      let id = ref 0 in
      List.for_all
        (function
          | Some (t, tie) ->
              Pqueue.add q ~time:t ~tie !id;
              incr id;
              model := List.merge compare !model [ (t, tie) ];
              true
          | None -> (
              match !model with
              | [] -> Pqueue.is_empty q
              | (t, tie) :: rest ->
                  let t', tie', _ = Pqueue.pop_min q in
                  model := rest;
                  (t', tie') = (t, tie)))
        ops)

(* Values live in a slot table apart from the keys, so check that each
   pop and exchange returns the value added with that key. Ties are
   fresh ids, so keys are distinct, and an exchanged-in key is at least
   the minimum (the precondition of [exchange]). *)
let prop_pqueue_values =
  QCheck.Test.make ~name:"pqueue values follow keys under add/pop/exchange"
    ~count:300
    QCheck.(list (pair (int_bound 2) small_nat))
    (fun ops ->
      let q = Pqueue.create () in
      let model = ref [] in
      let id = ref 0 in
      let fresh () = incr id; !id in
      List.for_all
        (fun (op, t) ->
          match (op, !model) with
          | 0, _ | _, [] ->
              let tie = fresh () in
              Pqueue.add q ~time:t ~tie (t, tie);
              model := List.merge compare !model [ (t, tie) ];
              true
          | 1, m :: rest ->
              model := rest;
              Pqueue.pop q = m
          | _, ((mt, _) as m) :: rest ->
              let t = max t mt and tie = fresh () in
              model := List.merge compare rest [ (t, tie) ];
              Pqueue.exchange q ~time:t ~tie ~aux:0 (t, tie) = m)
        ops
      && List.for_all (fun m -> Pqueue.pop q = m) !model)

(* The regression the option-array representation fixes: a popped value
   must not stay reachable from the queue's backing store (fiber
   continuations would otherwise be pinned until the queue is dropped). *)
let test_pqueue_pop_releases_value () =
  let q = Pqueue.create () in
  let w = Weak.create 1 in
  (let v = ref 12345 in
   Weak.set w 0 (Some v);
   Pqueue.add q ~time:1 ~tie:0 v);
  ignore (Sys.opaque_identity (Pqueue.pop_min q));
  Gc.full_major ();
  check_bool "queue still live" true (Pqueue.is_empty q);
  check_bool "popped value collected" true (Weak.get w 0 = None)

(* The same for [exchange], whose incoming value takes over the popped
   value's slot: the popped one must become collectable, the incoming one
   must stay reachable. *)
let test_pqueue_exchange_releases_value () =
  let q = Pqueue.create () in
  let w = Weak.create 2 in
  (let v1 = ref 1 and v2 = ref 2 in
   Weak.set w 0 (Some v1);
   Weak.set w 1 (Some v2);
   Pqueue.add q ~time:1 ~tie:0 v1;
   ignore (Sys.opaque_identity (Pqueue.exchange q ~time:2 ~tie:0 ~aux:0 v2)));
  Gc.full_major ();
  check_bool "exchanged-out value collected" true (Weak.get w 0 = None);
  check_bool "exchanged-in value live" true (Weak.get w 1 <> None);
  check_int "exchanged-in value pops" 2 !(Pqueue.pop q)

(* ------------------------------------------------------------------ *)
(* Fast path = slow path. An L1 hit is served by [Machine]'s hit branch
   and a stall below the lane limit by [Ctx] inline (DESIGN §12). A
   policy with an [extra_delay] hook — one that adds nothing — sends
   every stall through [Runtime.stall_on]; a recording sink sends every
   access through [Machine]'s evented path (and every stall through the
   scheduler). The three runs must agree on everything observable. With
   [~checks:false] memory accesses skip their debug bounds checks. *)

(* Run [f] with the simulator's debug checks set to [on], then restore
   them. *)
let with_checks on f =
  let saved = Debug.on () in
  Debug.set on;
  Fun.protect ~finally:(fun () -> Debug.set saved) f

module Fast_abtree = Mt_abtree.Abtree_hoh.Paper

module Fast_store = Mt_store.Store

type path = Fast | Slow_runtime | Evented

(* A 64-line L1 and a 256-line L2: small enough that the workloads below
   evict, so LRU order and capacity-evicted tags are observable. *)
let small_caches threads =
  {
    (Config.default ~num_cores:threads ()) with
    l1_sets_log2 = 4;
    l1_ways = 4;
    l2_sets_log2 = 6;
    l2_ways = 4;
  }

(* Prefill on core 0, then [threads] fibers each run [ops] seeded random
   ops; returns every op result, the duration, the final contents, the
   machine counters and whether coherence holds. *)
let run_path path ~seed ~threads ~ops ~range ~create ~op ~contents =
  let obs =
    match path with
    | Evented -> Mt_obs.Obs.create ~retain:false ~num_cores:threads ()
    | Fast | Slow_runtime -> Mt_obs.Obs.null
  in
  let policy () =
    match path with
    | Slow_runtime -> Runtime.make_policy ~extra_delay:(fun ~tid:_ ~now:_ -> 0) ()
    | Fast | Evented -> Runtime.default_policy
  in
  let m = Machine.create ~obs (small_caches threads) in
  let s = ref None in
  ignore
    (Mt_core.Harness.exec m ~seed ~policy:(policy ()) ~threads:1 (fun ctx ->
         let x = create ctx ~range in
         for k = 0 to range - 1 do
           if k mod 3 <> 0 then ignore (op ctx x 0 k)
         done;
         s := Some x));
  let s = Option.get !s in
  let results = Array.make threads [] in
  let duration =
    Mt_core.Harness.exec m ~seed:(seed + 1) ~policy:(policy ()) ~threads (fun ctx ->
        let g = Mt_core.Ctx.prng ctx in
        let core = Mt_core.Ctx.core ctx in
        for _ = 1 to ops do
          let r = op ctx s (Prng.int g 3) (Prng.int g range) in
          results.(core) <- r :: results.(core)
        done)
  in
  let coherent =
    match Machine.check_coherence m with () -> true | exception Failure _ -> false
  in
  (results, duration, contents m s, Machine.total_stats m, coherent)

let fast_path_equiv ?(checks = true) ~name ~create ~op ~contents () =
  QCheck.Test.make ~count:12 ~name:("fast = slow path: " ^ name)
    QCheck.(quad small_nat (int_range 2 4) (int_range 5 60) (int_range 8 256))
    (fun (seed, threads, ops, range) ->
      (* Shrinking may step outside the generator's ranges. *)
      let threads = max 2 (min 4 threads) and range = max 8 range in
      let run path =
        with_checks checks @@ fun () ->
        run_path path ~seed ~threads ~ops ~range ~create ~op ~contents
      in
      let fast = run Fast in
      let (_, _, _, _, coherent) = fast in
      coherent && run Slow_runtime = fast && run Evented = fast)

let set_op insert delete contains ctx s kind k =
  match kind with
  | 0 -> insert ctx s k
  | 1 -> delete ctx s k
  | _ -> contains ctx s k

let prop_fast_path_list =
  let module L = Mt_list.Hoh_list in
  fast_path_equiv ~name:"hoh-list" ~create:(fun ctx ~range:_ -> L.create ctx)
    ~op:(set_op L.insert L.delete L.contains)
    ~contents:L.to_list_unsafe ()

(* Keys offset by 2^40 do not fit a narrow chunk. The prefill inserts
   every key but the multiples of 3; [create] pads the allocator so that
   its nodes end on a chunk boundary, and the first node the concurrent
   phase allocates lands in a fresh narrow chunk, which its key write
   switches to wide on every path. *)
let prop_fast_path_wide_list =
  let module L = Mt_list.Hoh_list in
  let offset = 1 lsl 40 and chunk_words = 1 lsl Memory.chunk_log2 in
  fast_path_equiv ~checks:false ~name:"hoh-list, wide keys"
    ~create:(fun ctx ~range ->
      let s = L.create ctx in
      let mem = Machine.memory (Mt_core.Ctx.machine ctx) in
      let prefill = range - ((range + 2) / 3) in
      let lw = mem.Memory.line_words in
      let need = mem.Memory.next_free + (prefill * lw) in
      let pad = -need land (chunk_words - 1) in
      if pad > 0 then ignore (Mt_core.Ctx.alloc ctx ~words:pad);
      s)
    ~op:(fun ctx s kind k -> set_op L.insert L.delete L.contains ctx s kind (k + offset))
    ~contents:L.to_list_unsafe ()

let prop_fast_path_abtree =
  let module T = Fast_abtree in
  fast_path_equiv ~name:"hoh-abtree" ~create:(fun ctx ~range:_ -> T.create ctx)
    ~op:(set_op T.insert T.delete T.contains)
    ~contents:T.to_list_unsafe ()

(* Point ops plus two-key transactions on four norec-tagged shards; an
   op's result is its sub-op results. *)
let prop_fast_path_store =
  fast_path_equiv ~name:"store"
    ~create:(fun ctx ~range ->
      Fast_store.create (module Mt_store.Backend.Norec_map) ctx ~shards:4 ~key_space:range)
    ~op:(fun ctx s kind k ->
      match kind with
      | 0 -> [ Fast_store.insert ctx s k ]
      | 1 -> [ Fast_store.get ctx s k ]
      | _ ->
          Fast_store.txn ctx s
            [ (k, Fast_store.Delete); ((k + 5) mod Fast_store.key_space s, Fast_store.Insert) ])
    ~contents:(fun m s -> (Fast_store.to_list_unsafe m s, Fast_store.stats s))
    ()

(* ------------------------------------------------------------------ *)
(* Memory *)

let test_memory_alloc_aligned () =
  let cfg = Config.default () in
  let mem = Memory.create cfg in
  let a = Memory.alloc mem ~words:3 in
  let b = Memory.alloc mem ~words:1 in
  check_bool "a line aligned" true (a mod Config.line_words cfg = 0);
  check_bool "b line aligned" true (b mod Config.line_words cfg = 0);
  check_bool "no line sharing" true
    (Config.line_of_addr cfg a <> Config.line_of_addr cfg b);
  check_bool "null is 0 and unallocated" true (a > 0 && b > 0)

let test_memory_rw () =
  let cfg = Config.default () in
  let mem = Memory.create cfg in
  let a = Memory.alloc mem ~words:8 in
  check_int "zero initialised" 0 (Memory.get mem (a + 3));
  Memory.set mem (a + 3) 12345;
  check_int "set/get" 12345 (Memory.get mem (a + 3))

let test_memory_bounds () =
  let cfg = Config.default () in
  let mem = Memory.create cfg in
  let _ = Memory.alloc mem ~words:8 in
  Alcotest.check_raises "null deref"
    (Invalid_argument "Memory: address 0 out of bounds") (fun () ->
      ignore (Memory.get mem 0))

let test_memory_growth () =
  let cfg = Config.default () in
  let mem = Memory.create cfg in
  (* Allocate past the initial chunk capacity and touch the far end. *)
  let a = Memory.alloc mem ~words:(1 lsl 20) in
  Memory.set mem (a + (1 lsl 20) - 1) 99;
  check_int "far word" 99 (Memory.get mem (a + (1 lsl 20) - 1))

(* Chunks exist only up to the allocation frontier. With debug checks
   off, a stray address inside the last chunk reads zero and one past it
   traps on the array bounds. *)
let test_memory_stray_reads () =
  let cfg = Config.default () in
  let mem = Memory.create cfg in
  let a = Memory.alloc mem ~words:8 in
  let past_chunk = ((a lsr Memory.chunk_log2) + 1) lsl Memory.chunk_log2 in
  with_checks false @@ fun () ->
  check_int "stray read in the chunk" 0 (Memory.get mem (a + 64));
  match Memory.get mem past_chunk with
  | _ -> Alcotest.fail "read past the last chunk returned"
  | exception Invalid_argument _ -> ()

let test_memory_allocated_words () =
  let cfg = Config.default () in
  let lw = Config.line_words cfg in
  let mem = Memory.create cfg in
  check_int "fresh: the null line is not counted" 0 (Memory.allocated_words mem);
  ignore (Memory.alloc mem ~words:1);
  check_int "one word takes a line" lw (Memory.allocated_words mem);
  ignore (Memory.alloc mem ~words:(lw + 1));
  check_int "rounded up to lines" (3 * lw) (Memory.allocated_words mem)

(* Memory against a plain int-array model: random allocations, writes and
   reads over at least three chunks, with values at and around the edges
   of the 4-byte range so that chunks switch to wide mid-sequence. Every
   switch is followed by a read-back of every word allocated so far. Each
   op runs on a bare [Memory] and, through core 0, on a [Machine]; checks
   are off, so neither makes the debug bounds check. *)
type mem_op = Alloc of int | Set of int * int | Get of int

let prop_memory_model =
  let chunk_words = 1 lsl Memory.chunk_log2 in
  let edge = 1 lsl 31 in
  let value =
    QCheck.Gen.(
      frequency
        [ (6, oneofl [ 0; 1; -1; edge - 1; -(edge - 1); edge; -edge; min_int; max_int ]);
          (1, int); (8, int_range (-1000) 1000) ])
  in
  (* Addresses are drawn as fractions of the allocated words, so they
     stay valid however the allocations fall. *)
  let op =
    QCheck.Gen.(
      frequency
        [ (1, map (fun w -> Alloc w) (int_range 1 chunk_words));
          (12, map2 (fun r v -> Set (r, v)) nat value);
          (8, map (fun r -> Get r) nat) ])
  in
  let print = function
    | Alloc w -> Printf.sprintf "Alloc %d" w
    | Set (r, v) -> Printf.sprintf "Set (%d, %d)" r v
    | Get r -> Printf.sprintf "Get %d" r
  in
  QCheck.Test.make ~count:40 ~name:"memory matches an int-array model"
    QCheck.(make ~print:(Print.list print) Gen.(list_size (int_range 1 300) op))
    (fun ops ->
      with_checks false @@ fun () ->
      let cfg = Config.default () in
      let lw = Config.line_words cfg in
      let mem = Memory.create cfg and m = Machine.create cfg in
      let model = ref [||] in
      let alloc words =
        ignore (Memory.alloc mem ~words);
        ignore (Machine.alloc m ~words);
        let a = Array.make mem.Memory.next_free 0 in
        Array.blit !model 0 a 0 (Array.length !model);
        model := a
      in
      (* Three chunks up front; the ops may add more. *)
      alloc ((2 * chunk_words) + 1);
      let addr r = lw + (r mod Memory.allocated_words mem) in
      let reads a = Memory.get mem a = !model.(a) && Machine.read m ~core:0 a = !model.(a) in
      let all_read_back () =
        let ok = ref true in
        for a = lw to mem.Memory.next_free - 1 do
          if not (reads a) then ok := false
        done;
        !ok
      in
      let wide () =
        Array.fold_left (fun n b -> if Bytes.length b = 0 then n + 1 else n) 0
          mem.Memory.narrow
      in
      List.for_all
        (function
          | Alloc w -> alloc w; true
          | Set (r, v) ->
              let a = addr r and before = wide () in
              Memory.set mem a v;
              ignore (Machine.write m ~core:0 a v);
              !model.(a) <- v;
              reads a && (wide () = before || all_read_back ())
          | Get r -> reads (addr r))
        ops
      && all_read_back ())

(* ------------------------------------------------------------------ *)
(* Cache *)

let test_cache_insert_find () =
  let c = Cache.create ~sets_log2:2 ~ways:2 in
  check_bool "initially absent" true (Cache.find c 12 = Cache.I);
  ignore (Cache.insert c 12 Cache.S);
  check_bool "present S" true (Cache.find c 12 = Cache.S);
  Cache.set_state c 12 Cache.M;
  check_bool "upgraded M" true (Cache.find c 12 = Cache.M);
  Cache.remove c 12;
  check_bool "removed" true (Cache.find c 12 = Cache.I)

let test_cache_lru_eviction () =
  (* 1 set (sets_log2 0... use 0), 2 ways: third insert evicts LRU. *)
  let c = Cache.create ~sets_log2:0 ~ways:2 in
  check_int "free way: no victim" (-1) (Cache.insert c 1 Cache.S);
  ignore (Cache.insert c 2 Cache.S);
  Cache.touch c 1;
  (* 2 is now LRU *)
  check_int "evicts LRU" 2 (Cache.insert c 3 Cache.S);
  check_bool "victim was S" true (Cache.evicted_state c = Cache.S)

let test_cache_set_isolation () =
  (* Lines mapping to different sets never evict each other. *)
  let c = Cache.create ~sets_log2:1 ~ways:1 in
  ignore (Cache.insert c 2 Cache.S);
  (* set 0 *)
  ignore (Cache.insert c 3 Cache.S);
  (* set 1 *)
  check_bool "both resident" true
    (Cache.find c 2 = Cache.S && Cache.find c 3 = Cache.S)

let test_cache_population () =
  let c = Cache.create ~sets_log2:3 ~ways:4 in
  for i = 0 to 9 do
    ignore (Cache.insert c i Cache.E)
  done;
  check_int "population" 10 (Cache.population c)

(* ------------------------------------------------------------------ *)
(* Directory *)

let test_directory_basics () =
  let d = Directory.create () in
  check_bool "uncached" true (Directory.sharing d 7 = Directory.Uncached);
  Directory.add_sharer d 7 2;
  Directory.add_sharer d 7 5;
  Alcotest.(check (list int)) "others of 2" [ 5 ] (Directory.others d 7 2);
  Directory.drop d 7 5;
  check_bool "shared [2]" true (Directory.sharing d 7 = Directory.Shared [ 2 ]);
  Directory.drop d 7 2;
  check_bool "back to uncached" true (Directory.sharing d 7 = Directory.Uncached)

let test_directory_excl () =
  let d = Directory.create () in
  Directory.set d 9 (Directory.Excl 3);
  Alcotest.(check (list int)) "others excl" [ 3 ] (Directory.others d 9 0);
  Alcotest.(check (list int)) "owner sees none" [] (Directory.others d 9 3);
  Alcotest.check_raises "add_sharer on excl"
    (Invalid_argument "Directory.add_sharer: line is exclusively owned")
    (fun () -> Directory.add_sharer d 9 1)

(* The directory against a reference map from line to [sharing]. Lines
   sit on both sides of chunk boundaries; a [narrow] case keeps every
   core below 32 and must never allocate the plane for cores 32-63. *)
let prop_directory_model =
  let per = Directory.lines_per_chunk (Directory.create ()) in
  let pool = [| 0; 1; per - 1; per; per + 1; (2 * per) - 1; 2 * per; (5 * per) + 3 |] in
  let norm = function
    | Directory.Shared [] -> Directory.Uncached
    | Directory.Shared cs -> Directory.Shared (List.sort_uniq compare cs)
    | s -> s
  in
  let holders = function
    | Directory.Uncached -> []
    | Directory.Shared cs -> cs
    | Directory.Excl o -> [ o ]
  in
  QCheck.Test.make ~name:"directory vs reference map" ~count:300
    QCheck.(pair bool (list (quad (int_bound 5) (int_bound 7) (int_bound 63) (int_bound 63))))
    (fun (narrow, ops) ->
      let d = Directory.create () in
      let model = Hashtbl.create 8 in
      let find l = Option.value (Hashtbl.find_opt model l) ~default:Directory.Uncached in
      let agree l =
        let s = find l in
        Directory.sharing d l = s
        && Directory.is_uncached d l = (s = Directory.Uncached)
        && Directory.excl_owner d l = (match s with Directory.Excl o -> o | _ -> -1)
        && List.for_all
             (fun c ->
               let want = List.filter (( <> ) c) (holders s) in
               let seen = ref [] in
               Directory.iter_others d l c (fun o -> seen := o :: !seen);
               Directory.others d l c = want
               && List.rev !seen = want
               && Directory.others_count d l c = List.length want)
             (List.init 64 Fun.id)
      in
      List.for_all
        (fun (op, i, a, b) ->
          let a, b = if narrow then (a land 31, b land 31) else (a, b) in
          let l = pool.(i) in
          let next =
            match op with
            | 0 ->
                Directory.set_excl d l a;
                Directory.Excl a
            | 1 -> (
                let s = find l in
                let owned = match s with Directory.Excl o -> o <> a | _ -> false in
                match Directory.add_sharer d l a with
                | () when owned ->
                    QCheck.Test.fail_reportf "add_sharer %d %d: no error on an owned line" l a
                | () -> (
                    match s with
                    | Directory.Excl _ -> s
                    | _ -> norm (Directory.Shared (a :: holders s)))
                | exception Invalid_argument msg
                  when owned && msg = "Directory.add_sharer: line is exclusively owned" ->
                    s)
            | 2 ->
                Directory.drop d l a;
                (match find l with
                | Directory.Excl o when o = a -> Directory.Uncached
                | Directory.Shared cs -> norm (Directory.Shared (List.filter (( <> ) a) cs))
                | s -> s)
            | 3 ->
                Directory.set_shared_pair d l a b;
                norm (Directory.Shared [ a; b ])
            | 4 ->
                Directory.set_uncached d l;
                Directory.Uncached
            | _ ->
                let s =
                  match b land 3 with
                  | 0 -> Directory.Uncached
                  | 1 -> Directory.Shared []
                  | 2 -> Directory.Shared [ b; a; (a * 7) land if narrow then 31 else 63; a ]
                  | _ -> Directory.Excl a
                in
                Directory.set d l s;
                norm s
          in
          Hashtbl.replace model l next;
          agree l)
        ops
      && Array.for_all agree pool
      && (let seen = ref [] in
          Directory.iter_lines d (fun l -> seen := l :: !seen);
          List.rev !seen
          = List.filter (fun l -> find l <> Directory.Uncached) (Array.to_list pool))
      && not (narrow && Directory.wide d))

(* ------------------------------------------------------------------ *)
(* Memtag_unit *)

let test_tags_validate_ok () =
  let u = Memtag_unit.create ~max_tags:4 in
  Memtag_unit.add u 1;
  Memtag_unit.add u 2;
  check_bool "ok" true (Memtag_unit.check u = Memtag_unit.Ok);
  check_int "count" 2 (Memtag_unit.count u)

let test_tags_conflict_fails () =
  let u = Memtag_unit.create ~max_tags:4 in
  Memtag_unit.add u 1;
  Memtag_unit.on_evict u 1 Memtag_unit.Conflict;
  check_bool "conflict" true (Memtag_unit.check u = Memtag_unit.Fail_conflict)

let test_tags_capacity_is_spurious () =
  let u = Memtag_unit.create ~max_tags:4 in
  Memtag_unit.add u 1;
  Memtag_unit.on_evict u 1 Memtag_unit.Capacity;
  check_bool "spurious" true (Memtag_unit.check u = Memtag_unit.Fail_spurious)

let test_tags_conflict_supersedes_capacity () =
  let u = Memtag_unit.create ~max_tags:4 in
  Memtag_unit.add u 1;
  Memtag_unit.on_evict u 1 Memtag_unit.Capacity;
  Memtag_unit.on_evict u 1 Memtag_unit.Conflict;
  check_bool "upgraded to conflict" true
    (Memtag_unit.check u = Memtag_unit.Fail_conflict)

let test_tags_remove_keeps_conflict () =
  let u = Memtag_unit.create ~max_tags:4 in
  Memtag_unit.add u 1;
  Memtag_unit.add u 2;
  Memtag_unit.on_evict u 1 Memtag_unit.Conflict;
  Memtag_unit.remove u 1;
  check_bool "conflict evidence sticky across remove" true
    (Memtag_unit.check u = Memtag_unit.Fail_conflict);
  Memtag_unit.clear u;
  check_bool "clear resets the evidence" true
    (Memtag_unit.check u = Memtag_unit.Ok);
  (* Capacity evidence is not sticky: removing the tag withdraws the
     claim it protected, so the spurious-failure record goes with it. *)
  Memtag_unit.add u 3;
  Memtag_unit.on_evict u 3 Memtag_unit.Capacity;
  Memtag_unit.remove u 3;
  check_bool "capacity evidence dropped by remove" true
    (Memtag_unit.check u = Memtag_unit.Ok)

let test_tags_overflow_latches () =
  let u = Memtag_unit.create ~max_tags:2 in
  Memtag_unit.add u 1;
  Memtag_unit.add u 2;
  Memtag_unit.add u 3;
  check_bool "overflow fails spuriously" true
    (Memtag_unit.check u = Memtag_unit.Fail_spurious);
  Memtag_unit.remove u 3;
  check_bool "overflow latched after remove" true
    (Memtag_unit.check u = Memtag_unit.Fail_spurious);
  Memtag_unit.clear u;
  check_bool "clear resets overflow" true (Memtag_unit.check u = Memtag_unit.Ok)

let test_tags_untagged_eviction_ignored () =
  let u = Memtag_unit.create ~max_tags:4 in
  Memtag_unit.on_evict u 42 Memtag_unit.Conflict;
  check_bool "still ok" true (Memtag_unit.check u = Memtag_unit.Ok)

(* ------------------------------------------------------------------ *)
(* Runtime *)

let test_runtime_interleaving () =
  (* Two fibers stalling different amounts interleave by simulated time. *)
  let order = ref [] in
  let rt = Runtime.create () in
  Runtime.spawn rt (fun () ->
      Runtime.stall 10;
      order := `A10 :: !order;
      Runtime.stall 20;
      order := `A30 :: !order);
  Runtime.spawn rt (fun () ->
      Runtime.stall 15;
      order := `B15 :: !order;
      Runtime.stall 1;
      order := `B16 :: !order);
  Runtime.run rt;
  check_bool "order by simulated time" true
    (List.rev !order = [ `A10; `B15; `B16; `A30 ])

let test_runtime_tie_break_by_tid () =
  let order = ref [] in
  let rt = Runtime.create () in
  Runtime.spawn rt (fun () ->
      Runtime.stall 5;
      order := 0 :: !order);
  Runtime.spawn rt (fun () ->
      Runtime.stall 5;
      order := 1 :: !order);
  Runtime.run rt;
  Alcotest.(check (list int)) "lower tid first on tie" [ 0; 1 ] (List.rev !order)

let test_runtime_now_final () =
  let rt = Runtime.create () in
  Runtime.spawn rt (fun () -> Runtime.stall 123);
  Runtime.run rt;
  check_int "final clock" 123 (Runtime.now ())

(* ISSUE 8 regression: a fiber spawned while the run is live must join the
   schedule (at the current simulated time) instead of being dropped. *)
let test_runtime_spawn_mid_run () =
  let order = ref [] in
  let rt = Runtime.create () in
  Runtime.spawn rt (fun () ->
      order := 0 :: !order;
      Runtime.spawn rt (fun () ->
          order := 1 :: !order;
          Runtime.stall 3;
          order := 2 :: !order);
      Runtime.stall 10;
      order := 3 :: !order);
  Runtime.run rt;
  Alcotest.(check (list int))
    "mid-run fiber runs, interleaved by simulated time" [ 0; 1; 2; 3 ]
    (List.rev !order);
  check_int "clock covers the late spawn" 10 (Runtime.now ())

let test_runtime_exception_propagates () =
  let rt = Runtime.create () in
  Runtime.spawn rt (fun () ->
      Runtime.stall 1;
      failwith "boom");
  Alcotest.check_raises "fiber exception" (Failure "boom") (fun () -> Runtime.run rt);
  (* The runtime must be reusable after a failed run. *)
  let rt2 = Runtime.create () in
  Runtime.spawn rt2 (fun () -> Runtime.stall 1);
  Runtime.run rt2

(* When one fiber raises, every other suspended fiber is discontinued with
   [Runtime.Aborted], so its cleanup handlers (Fun.protect) run instead of
   the continuation being leaked. *)
let test_runtime_abort_runs_finalizers () =
  let cleaned = ref false and resumed = ref false in
  let rt = Runtime.create () in
  Runtime.spawn rt (fun () ->
      Fun.protect
        ~finally:(fun () -> cleaned := true)
        (fun () ->
          Runtime.stall 100;
          resumed := true));
  Runtime.spawn rt (fun () ->
      Runtime.stall 1;
      failwith "boom");
  Alcotest.check_raises "original exception wins" (Failure "boom") (fun () ->
      Runtime.run rt);
  check_bool "finalizer ran via Aborted" true !cleaned;
  check_bool "aborted fiber did not resume normally" false !resumed;
  (* The domain is immediately usable for a fresh run. *)
  let hit = ref false in
  let rt2 = Runtime.create () in
  Runtime.spawn rt2 (fun () ->
      Runtime.stall 1;
      hit := true);
  Runtime.run rt2;
  check_bool "fresh run after teardown" true !hit

(* A fiber that traps Aborted and suspends again is simply aborted again at
   its next stall; teardown still terminates. *)
let test_runtime_abort_trapped_fiber_drains () =
  let aborts = ref 0 in
  let rt = Runtime.create () in
  Runtime.spawn rt (fun () ->
      try Runtime.stall 10
      with Runtime.Aborted -> (
        incr aborts;
        try Runtime.stall 10 with Runtime.Aborted -> incr aborts));
  Runtime.spawn rt (fun () ->
      Runtime.stall 1;
      failwith "boom");
  Alcotest.check_raises "propagates" (Failure "boom") (fun () -> Runtime.run rt);
  check_int "aborted once per suspension" 2 !aborts

let test_runtime_stall_outside_fiber () =
  Alcotest.check_raises "stall outside any run"
    (Invalid_argument "Runtime.stall: not inside a fiber") (fun () ->
      Runtime.stall 5)

let test_runtime_nested_run_rejected () =
  let rt = Runtime.create () in
  Runtime.spawn rt (fun () ->
      let inner = Runtime.create () in
      Alcotest.check_raises "nested run"
        (Invalid_argument "Runtime.run: a run is already active on this domain")
        (fun () -> Runtime.run inner));
  Runtime.run rt

let test_runtime_clock_accessor () =
  let rt = Runtime.create () in
  Runtime.spawn rt (fun () -> Runtime.stall 7);
  Runtime.run rt;
  check_int "per-runtime clock" 7 (Runtime.clock rt)

(* ------------------------------------------------------------------ *)
(* Machine: MESI transitions, latency, tags. *)

let machine ?(cores = 4) () = Machine.create (Config.default ~num_cores:cores ())

let test_machine_read_write_roundtrip () =
  let m = machine () in
  let a = Machine.alloc m ~words:8 in
  Mt_core.Harness.exec1 m (fun ctx ->
      Mt_core.Ctx.write ctx a 77;
      check_int "roundtrip" 77 (Mt_core.Ctx.read ctx a))

let test_machine_cold_then_hot_latency () =
  let m = machine () in
  let a = Machine.alloc m ~words:8 in
  let cfg = Machine.cfg m in
  let _ = Machine.read m ~core:0 a in
  let lat_cold = Machine.last_latency m in
  let _ = Machine.read m ~core:0 a in
  let lat_hot = Machine.last_latency m in
  check_int "cold read = dir + mem" (cfg.lat_dir + cfg.lat_mem) lat_cold;
  check_int "hot read = L1 hit" cfg.lat_l1 lat_hot

let test_machine_read_sharing () =
  let m = machine () in
  let a = Machine.alloc m ~words:8 in
  let _ = Machine.read m ~core:0 a in
  let _ = Machine.read m ~core:1 a in
  (* Both cores now share; a write by core 2 invalidates both. *)
  let s0 = Machine.stats m ~core:0 and s1 = Machine.stats m ~core:1 in
  let _ = Machine.write m ~core:2 a 5 in
  check_int "core0 invalidated" 1 s0.invalidations_received;
  check_int "core1 invalidated" 1 s1.invalidations_received;
  (* Re-read by core 0 misses again. *)
  let before = s0.l1_misses in
  let v = Machine.read m ~core:0 a in
  check_int "sees new value" 5 v;
  check_int "miss after invalidation" (before + 1) s0.l1_misses

let test_machine_dirty_transfer () =
  let m = machine () in
  let a = Machine.alloc m ~words:8 in
  let cfg = Machine.cfg m in
  let _ = Machine.write m ~core:0 a 9 in
  (* Core 1 reads: dirty line is downgraded at core 0, not invalidated. *)
  let v = Machine.read m ~core:1 a in
  let lat = Machine.last_latency m in
  check_int "dirty value visible" 9 v;
  check_int "remote transfer latency" (cfg.lat_dir + cfg.lat_remote) lat;
  check_int "downgrade received" 1 (Machine.stats m ~core:0).downgrades_received;
  (* Core 0 still hits locally afterwards. *)
  let _ = Machine.read m ~core:0 a in
  let lat0 = Machine.last_latency m in
  check_int "still hits after downgrade" cfg.lat_l1 lat0

let test_machine_upgrade_from_shared () =
  let m = machine () in
  let a = Machine.alloc m ~words:8 in
  let _ = Machine.read m ~core:0 a in
  let _ = Machine.read m ~core:1 a in
  let lat = Machine.write m ~core:0 a 1 in
  let cfg = Machine.cfg m in
  check_int "upgrade latency (store-buffer capped)"
    (min
       (cfg.lat_l1 + cfg.lat_dir + cfg.lat_inval + cfg.lat_inval_per_sharer)
       cfg.lat_store_buffered)
    lat;
  check_int "sharer invalidated" 1 (Machine.stats m ~core:1).invalidations_received

let test_machine_cas_semantics () =
  let m = machine () in
  let a = Machine.alloc m ~words:8 in
  let ok = Machine.cas m ~core:0 a ~expected:0 ~desired:5 in
  check_bool "cas succeeds" true ok;
  let ok = Machine.cas m ~core:1 a ~expected:0 ~desired:6 in
  check_bool "stale cas fails" false ok;
  check_int "value unchanged by failed cas" 5 (Machine.peek m a);
  check_int "failure counted" 1 (Machine.stats m ~core:1).cas_failures

let test_machine_faa () =
  let m = machine () in
  let a = Machine.alloc m ~words:8 in
  let v0 = Machine.faa m ~core:0 a 3 in
  let v1 = Machine.faa m ~core:1 a 4 in
  check_int "faa old 0" 0 v0;
  check_int "faa old 3" 3 v1;
  check_int "total" 7 (Machine.peek m a)

let test_machine_tag_validate_conflict () =
  let m = machine () in
  let a = Machine.alloc m ~words:8 in
  let _ = Machine.add_tag m ~core:0 a ~words:8 in
  let ok = Machine.validate m ~core:0 in
  check_bool "valid before write" true ok;
  let _ = Machine.write m ~core:1 a 1 in
  let ok = Machine.validate m ~core:0 in
  check_bool "invalid after remote write" false ok;
  check_int "not spurious" 0 (Machine.stats m ~core:0).validate_failures_spurious

let test_machine_tag_read_does_not_invalidate () =
  let m = machine () in
  let a = Machine.alloc m ~words:8 in
  let _ = Machine.add_tag m ~core:0 a ~words:8 in
  let _ = Machine.read m ~core:1 a in
  let ok = Machine.validate m ~core:0 in
  check_bool "remote read keeps tag valid" true ok

let test_machine_own_write_keeps_tag () =
  let m = machine () in
  let a = Machine.alloc m ~words:8 in
  let _ = Machine.add_tag m ~core:0 a ~words:8 in
  let _ = Machine.write m ~core:0 a 3 in
  let ok = Machine.validate m ~core:0 in
  check_bool "own write keeps own tag" true ok

let test_machine_vas_fail_fast_no_traffic () =
  let m = machine () in
  let a = Machine.alloc m ~words:8 in
  let b = Machine.alloc m ~words:8 in
  let _ = Machine.add_tag m ~core:0 a ~words:8 in
  let _ = Machine.write m ~core:1 a 1 in
  let msgs_before = (Machine.stats m ~core:0).coherence_msgs in
  let ok = Machine.vas m ~core:0 b 42 in
  let lat = Machine.last_latency m in
  check_bool "vas fails" false ok;
  check_int "vas fail is local" (Machine.cfg m).lat_validate lat;
  check_int "no coherence traffic" msgs_before (Machine.stats m ~core:0).coherence_msgs;
  check_int "target untouched" 0 (Machine.peek m b)

let test_machine_vas_success_updates () =
  let m = machine () in
  let a = Machine.alloc m ~words:8 in
  let _ = Machine.add_tag m ~core:0 a ~words:8 in
  let ok = Machine.vas m ~core:0 a 42 in
  check_bool "vas succeeds" true ok;
  check_int "value stored" 42 (Machine.peek m a)

let test_machine_vas_invalidates_remote_tags () =
  let m = machine () in
  let a = Machine.alloc m ~words:8 in
  let _ = Machine.add_tag m ~core:1 a ~words:8 in
  let _ = Machine.add_tag m ~core:0 a ~words:8 in
  let ok = Machine.vas m ~core:0 a 1 in
  check_bool "writer vas ok" true ok;
  let ok1 = Machine.validate m ~core:1 in
  check_bool "victim tag dead" false ok1

let test_machine_ias_invalidates_all_tagged () =
  let m = machine () in
  let a = Machine.alloc m ~words:8 in
  let b = Machine.alloc m ~words:8 in
  (* Core 1 tags only [b]; core 0 tags both and IASes a store to [a].
     The IAS must invalidate [b] at core 1 even though the store is to [a]. *)
  let _ = Machine.add_tag m ~core:1 b ~words:8 in
  let _ = Machine.add_tag m ~core:0 a ~words:8 in
  let _ = Machine.add_tag m ~core:0 b ~words:8 in
  let ok = Machine.ias m ~core:0 a 7 in
  check_bool "ias ok" true ok;
  check_int "stored" 7 (Machine.peek m a);
  let ok1 = Machine.validate m ~core:1 in
  check_bool "remote tag on b invalidated" false ok1

let test_machine_vas_does_not_invalidate_unrelated () =
  (* VAS only takes the target line; a remote tag on a different line
     survives — precisely why the HoH list needs IAS (Figure 1). *)
  let m = machine () in
  let a = Machine.alloc m ~words:8 in
  let b = Machine.alloc m ~words:8 in
  let _ = Machine.add_tag m ~core:1 b ~words:8 in
  let _ = Machine.add_tag m ~core:0 a ~words:8 in
  let _ = Machine.add_tag m ~core:0 b ~words:8 in
  let ok = Machine.vas m ~core:0 a 7 in
  check_bool "vas ok" true ok;
  let ok1 = Machine.validate m ~core:1 in
  check_bool "unrelated remote tag survives vas" true ok1

let test_machine_tag_overflow () =
  let cfg = { (Config.default ~num_cores:2 ()) with max_tags = 3 } in
  let m = Machine.create cfg in
  let addrs = List.init 5 (fun _ -> Machine.alloc m ~words:8) in
  List.iter (fun a -> ignore (Machine.add_tag m ~core:0 a ~words:1)) addrs;
  let ok = Machine.validate m ~core:0 in
  check_bool "overflowed validation fails" false ok;
  check_int "spurious" 1 (Machine.stats m ~core:0).validate_failures_spurious;
  let _ = Machine.clear_tag_set m ~core:0 in
  let ok = Machine.validate m ~core:0 in
  check_bool "clear resets" true ok

let test_machine_capacity_eviction_spurious () =
  (* Tiny L1: touching many lines evicts the tagged one by capacity. *)
  let cfg =
    { (Config.default ~num_cores:1 ()) with l1_sets_log2 = 0; l1_ways = 2 }
  in
  let m = Machine.create cfg in
  let tagged = Machine.alloc m ~words:8 in
  let _ = Machine.add_tag m ~core:0 tagged ~words:1 in
  for _ = 1 to 4 do
    let a = Machine.alloc m ~words:8 in
    ignore (Machine.read m ~core:0 a)
  done;
  let ok = Machine.validate m ~core:0 in
  check_bool "capacity eviction fails validation" false ok;
  check_int "classified spurious" 1
    (Machine.stats m ~core:0).validate_failures_spurious

let test_machine_l2_inclusion_back_invalidates () =
  (* L1 big enough, L2 tiny: L2 eviction must remove the L1 copy too. *)
  let cfg =
    {
      (Config.default ~num_cores:1 ()) with
      l1_sets_log2 = 0;
      l1_ways = 8;
      l2_sets_log2 = 0;
      l2_ways = 2;
    }
  in
  let m = Machine.create cfg in
  let a = Machine.alloc m ~words:8 in
  let _ = Machine.add_tag m ~core:0 a ~words:1 in
  for _ = 1 to 3 do
    let b = Machine.alloc m ~words:8 in
    ignore (Machine.read m ~core:0 b)
  done;
  let ok = Machine.validate m ~core:0 in
  check_bool "inclusion victim kills tag" false ok

let test_machine_remove_tag_then_conflict_ok () =
  let m = machine () in
  let a = Machine.alloc m ~words:8 in
  let b = Machine.alloc m ~words:8 in
  let _ = Machine.add_tag m ~core:0 a ~words:1 in
  let _ = Machine.add_tag m ~core:0 b ~words:1 in
  let _ = Machine.remove_tag m ~core:0 a ~words:1 in
  let _ = Machine.write m ~core:1 a 1 in
  let ok = Machine.validate m ~core:0 in
  check_bool "conflict on untagged line ignored" true ok

(* ISSUE 8 regression: a conflict recorded while the tag was held must
   survive a subsequent remove_tag — the reads made under that tag may be
   torn, so validation must still fail (and fail as a real conflict). *)
let test_machine_conflict_survives_remove_tag () =
  let m = machine () in
  let a = Machine.alloc m ~words:8 in
  let _ = Machine.add_tag m ~core:0 a ~words:1 in
  let _ = Machine.write m ~core:1 a 1 in
  let _ = Machine.remove_tag m ~core:0 a ~words:1 in
  let ok = Machine.validate m ~core:0 in
  check_bool "conflict evidence survives remove" false ok;
  let s = Machine.stats m ~core:0 in
  check_int "classified real, not spurious" 0 s.validate_failures_spurious;
  check_int "one failed validation" 1 s.validate_failures

(* ISSUE 8 regression: the tag-targeted IAS kill probes every remote
   tagger (that is what the latency formula charges) but only taggers
   still holding a cached copy receive a real invalidation — the two must
   be accounted separately so message and latency books agree. *)
let test_machine_tag_probe_stats () =
  let m = machine ~cores:2 () in
  let a = Machine.alloc m ~words:8 in
  let b = Machine.alloc m ~words:8 in
  let _ = Machine.add_tag m ~core:0 a ~words:1 in
  let _ = Machine.add_tag m ~core:0 b ~words:1 in
  let _ = Machine.add_tag m ~core:1 b ~words:1 in
  (* Kill of the non-target tagged line [b] finds core 1 tagged *and*
     cached: one probe, one real invalidation. *)
  check_bool "first ias commits" true (Machine.ias m ~core:0 a 1);
  let s0 = Machine.stats m ~core:0 and s1 = Machine.stats m ~core:1 in
  check_int "probe sent (cached tagger)" 1 s0.tag_probes_sent;
  check_int "probe received (cached tagger)" 1 s1.tag_probes_received;
  check_int "invalidation sent" 1 s0.invalidations_sent;
  check_int "invalidation received" 1 s1.invalidations_received;
  (* Core 1 lost its copy but keeps the (conflict-evicted) tag entry, so
     a second kill probes it again — with no copy left to invalidate the
     probe must not be booked as an invalidation. *)
  check_bool "second ias commits" true (Machine.ias m ~core:0 a 2);
  let s0 = Machine.stats m ~core:0 and s1 = Machine.stats m ~core:1 in
  check_int "second probe sent (uncached tagger)" 2 s0.tag_probes_sent;
  check_int "second probe received (uncached tagger)" 2 s1.tag_probes_received;
  check_int "no extra invalidation sent" 1 s0.invalidations_sent;
  check_int "no extra invalidation received" 1 s1.invalidations_received

(* Property: a random mix of reads/writes through the machine always
   matches a plain shadow array (the timing model must never corrupt
   functional memory). *)
let prop_machine_matches_shadow =
  QCheck.Test.make ~name:"machine memory matches shadow" ~count:50
    QCheck.(pair small_int (list (tup3 (int_bound 3) (int_bound 63) (int_bound 1000))))
    (fun (seed, ops) ->
      let m = machine () in
      let base = Machine.alloc m ~words:64 in
      let shadow = Array.make 64 0 in
      let g = Prng.create ~seed in
      List.for_all
        (fun (core, off, v) ->
          match Prng.int g 3 with
          | 0 ->
              let got = Machine.read m ~core (base + off) in
              got = shadow.(off)
          | 1 ->
              let _ = Machine.write m ~core (base + off) v in
              shadow.(off) <- v;
              true
          | _ ->
              let expected = shadow.(off) in
              let ok = Machine.cas m ~core (base + off) ~expected ~desired:v in
              if ok then shadow.(off) <- v;
              ok)
        ops)

(* Property: after any access sequence, for every line the directory and the
   cache states agree (single owner for M/E; all sharers actually have it). *)
let prop_machine_coherence_invariant =
  QCheck.Test.make ~name:"directory/cache agreement" ~count:50
    QCheck.(list (tup3 (int_bound 3) (int_bound 31) bool))
    (fun ops ->
      let m = machine () in
      let base = Machine.alloc m ~words:256 in
      List.iter
        (fun (core, line_off, is_write) ->
          let a = base + (8 * line_off) in
          if is_write then ignore (Machine.write m ~core a 1)
          else ignore (Machine.read m ~core a))
        ops;
      (* Cross-check via observable behaviour: every core can read every
         line and sees the functional memory value. *)
      List.for_all
        (fun off ->
          let a = base + (8 * off) in
          let expect = Machine.peek m a in
          List.for_all
            (fun core ->
              let v = Machine.read m ~core a in
              v = expect)
            [ 0; 1; 2; 3 ])
        (List.init 32 (fun i -> i)))

(* ISSUE 8: the flat-array directory/cache rewrite must uphold the MESI
   invariants structurally, not just behaviourally — run the machine's own
   checker (L1 ⊆ L2 inclusion, single M/E owner, exact sharer sets) after
   every operation of a random read/write/tag/untag/validate/VAS/IAS
   sequence on 2-4 cores.

   The same run checks the paper's Section 3 claim that a VAS or IAS
   whose validation fails fails locally: such a call (it returns false and
   counts one more failed validation) leaves every core's coherence
   traffic counters and every other core's tag count unchanged. A late
   failure is exempt: it re-checks after acquiring the target, and that
   fill may evict a tagged line after traffic was sent. With [sink] the
   machine records into an Obs sink, so its evented path runs. *)
let prop_machine_check_coherence ~sink =
  QCheck.Test.make ~count:100
    ~name:
      (if sink then "MESI invariants and local VAS/IAS failure, recording sink"
       else "MESI/directory invariants hold")
    QCheck.(pair (int_range 2 4) (list (tup3 (int_bound 3) (int_bound 31) (int_bound 6))))
    (fun (cores, ops) ->
      let obs =
        if sink then Mt_obs.Obs.create ~retain:false ~num_cores:cores () else Mt_obs.Obs.null
      in
      let m = Machine.create ~obs (Config.default ~num_cores:cores ()) in
      let base = Machine.alloc m ~words:256 in
      let traffic () =
        List.init cores (fun core ->
            let s = Machine.stats m ~core in
            [ s.coherence_msgs; s.invalidations_sent; s.invalidations_received;
              s.downgrades_received; s.tag_probes_sent; s.tag_probes_received;
              s.writebacks ])
      in
      let tags_of_others core =
        List.filter_map
          (fun c -> if c = core then None else Some (Machine.tag_count m ~core:c))
          (List.init cores Fun.id)
      in
      let fails_locally swap core a =
        let failed () = (Machine.stats m ~core).validate_failures in
        let failed0 = failed () and traffic0 = traffic () and tags0 = tags_of_others core in
        swap m ~core a 1
        || failed () <> failed0 + 1
        || (traffic () = traffic0 && tags_of_others core = tags0)
      in
      List.for_all
        (fun (core, line_off, kind) ->
          let core = core mod cores and a = base + (8 * line_off) in
          let local =
            match kind with
            | 0 -> ignore (Machine.read m ~core a); true
            | 1 -> ignore (Machine.write m ~core a 1); true
            | 2 -> ignore (Machine.add_tag m ~core a ~words:1); true
            | 3 -> ignore (Machine.remove_tag m ~core a ~words:1); true
            | 4 -> ignore (Machine.validate m ~core); true
            | 5 -> fails_locally Machine.vas core a
            | _ -> fails_locally Machine.ias core a
          in
          Machine.check_coherence m;
          local)
        ops)

(* ------------------------------------------------------------------ *)
(* Harness / Ctx *)

let test_harness_threads_interleave () =
  let m = machine () in
  let counter = Machine.alloc m ~words:1 in
  let _ =
    Mt_core.Harness.exec m ~threads:4 (fun ctx ->
        for _ = 1 to 100 do
          (* Atomic increments from 4 fibers must not lose updates. *)
          let rec incr () =
            let v = Mt_core.Ctx.read ctx counter in
            if not (Mt_core.Ctx.cas ctx counter ~expected:v ~desired:(v + 1)) then
              incr ()
          in
          incr ()
        done)
  in
  check_int "no lost updates" 400 (Machine.peek m counter)

let test_harness_duration_positive () =
  let m = machine () in
  let a = Machine.alloc m ~words:8 in
  let d =
    Mt_core.Harness.exec m ~threads:2 (fun ctx ->
        for _ = 1 to 10 do
          Mt_core.Ctx.write ctx a 1
        done)
  in
  check_bool "duration > 0" true (d > 0)

let test_harness_determinism () =
  let run () =
    let m = machine () in
    let a = Machine.alloc m ~words:8 in
    let d =
      Mt_core.Harness.exec m ~seed:99 ~threads:4 (fun ctx ->
          for _ = 1 to 50 do
            let v = Mt_core.Ctx.read ctx a in
            ignore (Mt_core.Ctx.cas ctx a ~expected:v ~desired:(v + 1))
          done)
    in
    (d, Machine.peek m a, (Machine.total_stats m).l1_misses)
  in
  let r1 = run () and r2 = run () in
  check_bool "identical runs" true (r1 = r2)

let test_mode_line () =
  let m = machine () in
  let mode = Mt_core.Mode.create m in
  Mt_core.Harness.exec1 m (fun ctx ->
      check_bool "starts fast" true (Mt_core.Mode.is_fast ctx mode);
      Mt_core.Mode.set_slow ctx mode;
      check_bool "slow" false (Mt_core.Mode.is_fast ctx mode);
      Mt_core.Mode.set_fast ctx mode;
      check_bool "fast again" true (Mt_core.Mode.is_fast ctx mode))

let test_mode_flip_invalidates_taggers () =
  let m = machine () in
  let mode = Mt_core.Mode.create m in
  let _ = Machine.add_tag m ~core:0 (Mt_core.Mode.addr mode) ~words:1 in
  let _ = Machine.write m ~core:1 (Mt_core.Mode.addr mode) Mt_core.Mode.slow in
  let ok = Machine.validate m ~core:0 in
  check_bool "fast-path tagger aborted by mode flip" false ok

(* ------------------------------------------------------------------ *)
(* Model edge cases. *)

let test_store_buffer_cap () =
  (* A plain store to a widely shared line is capped for the issuer, but a
     CAS to the same situation pays the full serialized latency. *)
  let m = machine () in
  let a = Machine.alloc m ~words:8 in
  let cfg = Machine.cfg m in
  let share () =
    for core = 0 to 3 do
      ignore (Machine.read m ~core a)
    done
  in
  share ();
  let wlat = Machine.write m ~core:0 a 1 in
  check_bool "store capped" true (wlat <= cfg.lat_store_buffered);
  share ();
  let _ = Machine.cas m ~core:0 a ~expected:1 ~desired:2 in
  let clat = Machine.last_latency m in
  check_bool "cas uncapped" true (clat > cfg.lat_store_buffered)

let test_inval_latency_scales_with_sharers () =
  let lat_with_sharers n =
    let m = machine ~cores:4 () in
    let a = Machine.alloc m ~words:8 in
    for core = 1 to n do
      ignore (Machine.read m ~core a)
    done;
    (* CAS so the latency is not store-buffer capped. *)
    let _ = Machine.cas m ~core:0 a ~expected:0 ~desired:1 in
    let lat = Machine.last_latency m in
    lat
  in
  check_bool "3 sharers cost more than 1" true (lat_with_sharers 3 > lat_with_sharers 1)

let test_downgrade_keeps_tag_but_write_kills_it () =
  let m = machine () in
  let a = Machine.alloc m ~words:8 in
  let _ = Machine.write m ~core:0 a 5 in
  (* Line is M at core 0; tag it, then have core 1 read (downgrade). *)
  let _ = Machine.add_tag m ~core:0 a ~words:1 in
  let _ = Machine.read m ~core:1 a in
  let ok = Machine.validate m ~core:0 in
  check_bool "downgrade keeps tag" true ok;
  let _ = Machine.write m ~core:1 a 6 in
  let ok = Machine.validate m ~core:0 in
  check_bool "subsequent write kills it" false ok

let test_ias_self_only_tags () =
  (* IAS with no remote taggers and a hot M line is cheap and succeeds. *)
  let m = machine () in
  let a = Machine.alloc m ~words:8 in
  let _ = Machine.write m ~core:0 a 1 in
  let _ = Machine.add_tag m ~core:0 a ~words:1 in
  let ok = Machine.ias m ~core:0 a 2 in
  check_bool "ias ok" true ok;
  check_int "stored" 2 (Machine.peek m a)

let test_add_tag_read_equals_read_plus_tag () =
  let m = machine () in
  let a = Machine.alloc m ~words:8 in
  Machine.poke m a 7;
  let v = Machine.add_tag_read m ~core:0 a ~words:1 in
  check_int "tagged load returns value" 7 v;
  let _ = Machine.write m ~core:1 a 8 in
  let ok = Machine.validate m ~core:0 in
  check_bool "line was really tagged" false ok

(* The tagged-read hit path grows the tag table itself. One core with
   every line L1-resident tags enough distinct lines to pass the table's
   rehash load and its journal's initial 128 entries, with removes
   interleaved so that tombstones build up, then re-tags the removed
   lines. A recording sink sends the same sequence through the general
   path: both machines must agree on every latency (a tag op costs a
   cycle, so a skipped one shows), the tag count, the verdict and every
   counter. *)
let test_tag_read_hit_grows_table () =
  let lines = 300 in
  let run obs =
    let cfg =
      { (Config.default ~num_cores:1 ()) with max_tags = 1024; lat_tag_op = 1 }
    in
    let m = Machine.create ~obs cfg in
    let lw = Config.line_words cfg in
    let base = Machine.alloc m ~words:(lines * lw) in
    for l = 0 to lines - 1 do
      ignore (Machine.read m ~core:0 (base + (l * lw)))
    done;
    let misses = (Machine.stats m ~core:0).l1_misses in
    (* 7 is coprime with [lines]: a scrambled visit of every line. *)
    let addr i = base + (i * 7 mod lines * lw) in
    let latencies = ref [] and peak = ref 0 in
    let step f =
      ignore (f ());
      latencies := Machine.last_latency m :: !latencies;
      peak := max !peak (Machine.tag_count m ~core:0)
    in
    for i = 0 to lines - 1 do
      step (fun () -> Machine.add_tag_read m ~core:0 (addr i) ~words:1);
      if i mod 4 = 3 then
        step (fun () -> Machine.remove_tag m ~core:0 (addr (i - 2)) ~words:1)
    done;
    for i = 0 to lines - 1 do
      if i mod 4 = 1 then
        step (fun () -> Machine.add_tag_read m ~core:0 (addr i) ~words:1)
    done;
    let ok = Machine.validate m ~core:0 in
    check_int "every access hit L1" misses (Machine.stats m ~core:0).l1_misses;
    (List.rev !latencies, !peak, Machine.tag_count m ~core:0, ok,
     Machine.stats m ~core:0)
  in
  let hit = run Mt_obs.Obs.null in
  let general = run (Mt_obs.Obs.create ~retain:false ~num_cores:1 ()) in
  let _, peak, count, ok, _ = hit in
  check_bool "past the journal's initial 128 entries" true (peak > 128);
  check_int "every line tagged" lines count;
  check_bool "validates" true ok;
  check_bool "hit path = general path" true (hit = general)

let test_lines_of_range_spanning () =
  let cfg = Config.default () in
  Alcotest.(check (list int))
    "straddles two lines" [ 0; 1 ]
    (Config.lines_of_range cfg 6 4);
  Alcotest.check_raises "empty range" (Invalid_argument "Config.lines_of_range: empty range")
    (fun () -> ignore (Config.lines_of_range cfg 6 0))

let test_harness_rejects_oversubscription () =
  let m = machine ~cores:2 () in
  Alcotest.check_raises "too many threads"
    (Invalid_argument "Harness.exec: bad thread count") (fun () ->
      ignore (Mt_core.Harness.exec m ~threads:3 (fun _ -> ())))

let test_ctx_work_advances_time () =
  let m = machine () in
  Mt_core.Harness.exec1 m (fun ctx ->
      let t0 = Mt_core.Ctx.now ctx in
      Mt_core.Ctx.work ctx 123;
      check_int "work advances the clock" (t0 + 123) (Mt_core.Ctx.now ctx))

let prop_prng_int_uniformish =
  QCheck.Test.make ~name:"prng buckets roughly uniform" ~count:20 QCheck.small_int
    (fun seed ->
      let g = Prng.create ~seed in
      let buckets = Array.make 8 0 in
      for _ = 1 to 8000 do
        let i = Prng.int g 8 in
        buckets.(i) <- buckets.(i) + 1
      done;
      Array.for_all (fun c -> c > 700 && c < 1300) buckets)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  (* The simulator's internal sanity checks (memory bounds, cache insert
     preconditions) are debug-gated off the hot path; the tests want them. *)
  Debug.set true;
  Alcotest.run "mt_sim"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "split independent" `Quick test_prng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
        ]
        @ qsuite [ prop_prng_float_range ] );
      ( "pqueue",
        [
          Alcotest.test_case "order" `Quick test_pqueue_order;
          Alcotest.test_case "pop releases value" `Quick
            test_pqueue_pop_releases_value;
          Alcotest.test_case "exchange releases value" `Quick
            test_pqueue_exchange_releases_value;
        ]
        @ qsuite [ prop_pqueue_sorted; prop_pqueue_model; prop_pqueue_values ] );
      ( "fast path",
        qsuite
          [ prop_fast_path_list; prop_fast_path_wide_list; prop_fast_path_abtree;
            prop_fast_path_store ] );
      ( "memory",
        [
          Alcotest.test_case "alloc aligned" `Quick test_memory_alloc_aligned;
          Alcotest.test_case "read write" `Quick test_memory_rw;
          Alcotest.test_case "bounds" `Quick test_memory_bounds;
          Alcotest.test_case "growth" `Quick test_memory_growth;
          Alcotest.test_case "stray reads" `Quick test_memory_stray_reads;
          Alcotest.test_case "allocated words" `Quick test_memory_allocated_words;
        ]
        @ qsuite [ prop_memory_model ] );
      ( "cache",
        [
          Alcotest.test_case "insert/find" `Quick test_cache_insert_find;
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "set isolation" `Quick test_cache_set_isolation;
          Alcotest.test_case "population" `Quick test_cache_population;
        ] );
      ( "directory",
        [
          Alcotest.test_case "basics" `Quick test_directory_basics;
          Alcotest.test_case "exclusive" `Quick test_directory_excl;
        ]
        @ qsuite [ prop_directory_model ] );
      ( "memtag_unit",
        [
          Alcotest.test_case "validate ok" `Quick test_tags_validate_ok;
          Alcotest.test_case "conflict fails" `Quick test_tags_conflict_fails;
          Alcotest.test_case "capacity spurious" `Quick test_tags_capacity_is_spurious;
          Alcotest.test_case "conflict supersedes" `Quick
            test_tags_conflict_supersedes_capacity;
          Alcotest.test_case "remove keeps conflict" `Quick
            test_tags_remove_keeps_conflict;
          Alcotest.test_case "overflow latches" `Quick test_tags_overflow_latches;
          Alcotest.test_case "untagged ignored" `Quick
            test_tags_untagged_eviction_ignored;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "interleaving" `Quick test_runtime_interleaving;
          Alcotest.test_case "tie break" `Quick test_runtime_tie_break_by_tid;
          Alcotest.test_case "final now" `Quick test_runtime_now_final;
          Alcotest.test_case "spawn mid-run" `Quick test_runtime_spawn_mid_run;
          Alcotest.test_case "exceptions" `Quick test_runtime_exception_propagates;
          Alcotest.test_case "abort runs finalizers" `Quick
            test_runtime_abort_runs_finalizers;
          Alcotest.test_case "abort drains trapped fibers" `Quick
            test_runtime_abort_trapped_fiber_drains;
          Alcotest.test_case "stall outside fiber" `Quick
            test_runtime_stall_outside_fiber;
          Alcotest.test_case "nested run rejected" `Quick
            test_runtime_nested_run_rejected;
          Alcotest.test_case "clock accessor" `Quick test_runtime_clock_accessor;
        ] );
      ( "machine",
        [
          Alcotest.test_case "roundtrip" `Quick test_machine_read_write_roundtrip;
          Alcotest.test_case "cold/hot latency" `Quick test_machine_cold_then_hot_latency;
          Alcotest.test_case "read sharing" `Quick test_machine_read_sharing;
          Alcotest.test_case "dirty transfer" `Quick test_machine_dirty_transfer;
          Alcotest.test_case "upgrade from shared" `Quick test_machine_upgrade_from_shared;
          Alcotest.test_case "cas semantics" `Quick test_machine_cas_semantics;
          Alcotest.test_case "faa" `Quick test_machine_faa;
        ] );
      ( "machine-tags",
        [
          Alcotest.test_case "tag/validate conflict" `Quick
            test_machine_tag_validate_conflict;
          Alcotest.test_case "read keeps tags" `Quick
            test_machine_tag_read_does_not_invalidate;
          Alcotest.test_case "own write keeps tag" `Quick test_machine_own_write_keeps_tag;
          Alcotest.test_case "vas fail fast" `Quick test_machine_vas_fail_fast_no_traffic;
          Alcotest.test_case "vas success" `Quick test_machine_vas_success_updates;
          Alcotest.test_case "vas kills remote tags" `Quick
            test_machine_vas_invalidates_remote_tags;
          Alcotest.test_case "ias invalidates all tagged" `Quick
            test_machine_ias_invalidates_all_tagged;
          Alcotest.test_case "vas spares unrelated" `Quick
            test_machine_vas_does_not_invalidate_unrelated;
          Alcotest.test_case "tag overflow" `Quick test_machine_tag_overflow;
          Alcotest.test_case "capacity spurious" `Quick
            test_machine_capacity_eviction_spurious;
          Alcotest.test_case "L2 inclusion" `Quick
            test_machine_l2_inclusion_back_invalidates;
          Alcotest.test_case "remove then conflict" `Quick
            test_machine_remove_tag_then_conflict_ok;
          Alcotest.test_case "conflict survives remove" `Quick
            test_machine_conflict_survives_remove_tag;
          Alcotest.test_case "tag probe accounting" `Quick
            test_machine_tag_probe_stats;
        ]
        @ qsuite
            [
              prop_machine_matches_shadow;
              prop_machine_coherence_invariant;
              prop_machine_check_coherence ~sink:false;
              prop_machine_check_coherence ~sink:true;
            ] );
      ( "model-edges",
        [
          Alcotest.test_case "store buffer cap" `Quick test_store_buffer_cap;
          Alcotest.test_case "inval scales with sharers" `Quick
            test_inval_latency_scales_with_sharers;
          Alcotest.test_case "downgrade vs write" `Quick
            test_downgrade_keeps_tag_but_write_kills_it;
          Alcotest.test_case "ias self tags" `Quick test_ias_self_only_tags;
          Alcotest.test_case "tagged load" `Quick test_add_tag_read_equals_read_plus_tag;
          Alcotest.test_case "tagged-read hit grows the tag table" `Quick
            test_tag_read_hit_grows_table;
          Alcotest.test_case "line ranges" `Quick test_lines_of_range_spanning;
        ]
        @ qsuite [ prop_prng_int_uniformish ] );
      ( "harness",
        [
          Alcotest.test_case "no lost updates" `Quick test_harness_threads_interleave;
          Alcotest.test_case "duration" `Quick test_harness_duration_positive;
          Alcotest.test_case "determinism" `Quick test_harness_determinism;
          Alcotest.test_case "oversubscription" `Quick test_harness_rejects_oversubscription;
          Alcotest.test_case "work advances time" `Quick test_ctx_work_advances_time;
          Alcotest.test_case "mode line" `Quick test_mode_line;
          Alcotest.test_case "mode flip aborts" `Quick test_mode_flip_invalidates_taggers;
        ] );
    ]
