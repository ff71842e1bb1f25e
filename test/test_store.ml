(* Tests for the sharded multi-structure store (lib/store): routing
   determinism, the sequential map+range-query model per backend
   (set_battery's ranged battery), transaction atomicity under fuzzed
   schedules with the coherence audit on, point/txn/scan linearizability
   via the generic Wing-Gong checker, the set and ranged batteries on the
   norec-tagged shard's bare B+-tree, serve-layer conservation, and the
   house invariants (byte-identical across --jobs and with tracing on or
   off). *)

open Mt_sim
open Mt_core
module Store = Mt_store.Store
module Backend = Mt_store.Backend
module Store_serve = Mt_store.Store_serve
module Serve = Mt_serve.Server
module Linearize = Mt_check.Linearize
module Obs = Mt_obs.Obs

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let machine ?(cores = 8) () =
  Machine.create (Config.default ~num_cores:cores ())

(* Every catalogued store backend, by name, exercised by the
   cross-backend tests. *)
let backends = List.map (fun b -> (Backend.name b, b)) Mt_workload.Catalog.backends
let backend name = List.assoc name backends
let backend_names = List.map fst backends

(* ------------------------------------------------------------------ *)
(* Routing: pure hash partitioning, deterministic reruns. *)

let test_routing () =
  let m = machine () in
  Harness.exec1 m (fun ctx ->
      let s = Store.create (backend "hoh-list") ctx ~shards:4 ~key_space:64 in
      check_int "shards" 4 (Store.num_shards s);
      check_int "key space" 64 (Store.key_space s);
      for k = 0 to 63 do
        check_int "shard_of is k mod shards" (k mod 4) (Store.shard_of s k)
      done;
      (* Each point op lands on exactly its key's shard counter. *)
      for k = 0 to 15 do
        ignore (Store.insert ctx s k)
      done;
      let st = Store.stats s in
      Array.iteri (fun _ n -> check_int "4 ops per shard" 4 n) st.shard_ops;
      check_int "point ops counted" 16 st.point_ops)

let test_determinism () =
  (* Two identical concurrent runs must agree bit-for-bit: duration, final
     contents, stats, and machine counters. *)
  List.iter
    (fun bname ->
      let run () =
        let m = machine ~cores:4 () in
        let s =
          Harness.exec1 m (fun ctx ->
              Store.create (backend bname) ctx ~shards:4 ~key_space:32)
        in
        let d =
          Harness.exec m ~seed:17 ~threads:4 (fun ctx ->
              let g = Ctx.prng ctx in
              for _ = 1 to 60 do
                let k = Prng.int g 32 in
                match Prng.int g 4 with
                | 0 -> ignore (Store.insert ctx s k)
                | 1 -> ignore (Store.delete ctx s k)
                | 2 -> ignore (Store.get ctx s k)
                | _ -> ignore (Store.txn ctx s [ (k, Store.Insert); ((k + 7) mod 32, Store.Delete) ])
              done)
        in
        ( d,
          Store.to_list_unsafe m s,
          Store.stats s,
          (Machine.total_stats m).Stats.l1_misses )
      in
      check_bool (bname ^ " bit-identical reruns") true (run () = run ()))
    backend_names

(* ------------------------------------------------------------------ *)
(* The two plain walks every backend provides, on a quiescent structure:
   [scan_plain] over the one-key window [k, k] is [k] when k is present
   and [] otherwise (writes and the transaction warm-up rely on it), and
   [mem_plain] is membership in the sequential oracle (gets rely on
   it). *)

let test_point_walk () =
  let range = 256 in
  List.iter
    (fun (bname, (module B : Backend.S)) ->
      let m = machine () in
      Harness.exec1 m (fun ctx ->
          let t = B.create ctx in
          let g = Prng.create ~seed:23 in
          let present = Array.make range false in
          for _ = 1 to range / 2 do
            let k = Prng.int g range in
            ignore (B.insert ctx t k);
            present.(k) <- true
          done;
          Alcotest.(check (list (list int)))
            (bname ^ " one-key walks")
            (List.init range (fun k -> if present.(k) then [ k ] else []))
            (List.init range (fun k ->
                 B.scan_plain ctx t ~lo:k ~hi:k ~budget:((2 * range) + 64)));
          Alcotest.(check (list bool))
            (bname ^ " mem_plain")
            (Array.to_list present)
            (List.init range (fun k -> B.mem_plain ctx t k))))
    backends

(* Lock hold time on a quiescent store: a 3-key transaction on a core
   that has never touched the shards (all their lines cold in its cache)
   holds the locks only for cached sub-ops, because the warm-up walk ran
   first. Measured: 304 / 750 / 46 cycles (hoh-list / hoh-abtree /
   norec-tagged) with the walk, 7376 / 2206 / 878 without it. *)

let test_txn_hold_time () =
  List.iter
    (fun bname ->
      let m = machine ~cores:2 () in
      let s =
        Harness.exec1 m (fun ctx ->
            let s = Store.create (backend bname) ctx ~shards:4 ~key_space:256 in
            for k = 0 to 127 do
              ignore (Store.insert ctx s (2 * k))
            done;
            s)
      in
      let (_ : int) =
        Harness.exec m ~threads:2 (fun ctx ->
            if Ctx.core ctx = 1 then
              check_bool (bname ^ " txn results") true
                (Store.txn ctx s
                   [ (249, Store.Insert); (250, Store.Delete); (251, Store.Get) ]
                = [ true; true; false ]))
      in
      let st = Store.stats s in
      check_int (bname ^ " one commit") 1 st.txn_commits;
      check_bool
        (Printf.sprintf "%s locks held %d cycles (< 1500)" bname
           st.txn_locked_cycles)
        true
        (st.txn_locked_cycles < 1500))
    backend_names

(* A write that changes nothing takes no lock on a quiet shard: an insert
   of a present key and a delete of an absent key cost no CAS at all. An
   effective write takes and releases its shard lock, two CASes at
   least. *)

let test_noop_writes_cas_free () =
  List.iter
    (fun bname ->
      let m = machine ~cores:1 () in
      Harness.exec1 m (fun ctx ->
          let s = Store.create (backend bname) ctx ~shards:4 ~key_space:64 in
          for k = 0 to 31 do
            ignore (Store.insert ctx s (2 * k))
          done;
          let cas_ops () = (Machine.total_stats m).Stats.cas_ops in
          let run f k =
            let before = cas_ops () in
            let r = f ctx s k in
            (r, cas_ops () - before)
          in
          for k = 0 to 63 do
            let present = k mod 2 = 0 in
            let noop, effective =
              if present then (Store.insert, Store.delete)
              else (Store.delete, Store.insert)
            in
            let r, cas = run noop k in
            check_bool (Printf.sprintf "%s no-op %d is false" bname k) false r;
            check_int (Printf.sprintf "%s no-op %d CASes" bname k) 0 cas;
            let r, cas = run effective k in
            check_bool (Printf.sprintf "%s write %d is true" bname k) true r;
            check_bool
              (Printf.sprintf "%s write %d took the lock (%d CASes)" bname k cas)
              true (cas >= 2)
          done))
    backend_names

(* An effective write on a norec-tagged store synchronizes only through
   its shard lock: the lock CAS and the release CAS, and no VAS, tag add,
   validate or STM event besides. The shard's B+-tree is written directly
   under the lock; a per-shard STM under it would tag every read and take
   its own sequence lock. *)
let test_locked_writes_direct () =
  let obs = Obs.create ~retain:false ~num_cores:1 () in
  let stm_events = ref 0 in
  Obs.set_tap obs
    (Some
       (fun (e : Obs.event) ->
         match e.kind with
         | Obs.Stm_abort _ | Obs.Stm_demote -> incr stm_events
         | _ -> ()));
  let m = Machine.create ~obs (Config.default ~num_cores:1 ()) in
  Harness.exec1 m (fun ctx ->
      let s = Store.create (backend "norec-tagged") ctx ~shards:4 ~key_space:64 in
      for k = 0 to 31 do
        ignore (Store.insert ctx s (2 * k))
      done;
      let counts () =
        let st = Machine.total_stats m in
        [ st.Stats.cas_ops; st.vas_ops; st.tag_adds; st.validates; !stm_events ]
      in
      List.iter
        (fun (what, write, k) ->
          let before = counts () in
          check_bool (what ^ " is effective") true (write ctx s k);
          Alcotest.(check (list int))
            (what ^ ": CAS, VAS, tag adds, validates, STM events")
            [ 2; 0; 0; 0; 0 ]
            (List.map2 ( - ) (counts ()) before))
        [ ("insert 1", Store.insert, 1); ("delete 2", Store.delete, 2) ])

(* The serialized fallback: writer fibers hammer effective writes on
   shard 0 while transaction fibers run 3-key transactions over shards
   0..2. Tagged acquisition loses to the writers, so some transactions
   spend their whole retry budget (9 failed attempts) and fall back;
   every transaction still commits with the right results. With one
   transaction fiber (keys 0..2) the retry counters move only for it,
   so their delta across one call is that call's retries and shows the
   fallback ran. With two (keys 0..2 and 4..6, the same shards) their
   fallbacks overlap, and must queue on the fallback lock rather than
   on each other's shard locks. The transaction fibers (fiber [i] runs
   on core [i]) are stragglers, every stall [straggle] cycles longer,
   so their acquisitions keep meeting the writers' lock holds: a tagged
   acquisition — one tagged load per shard and a short VAS chain — is
   brief enough that on the plain schedule it may slip between the
   holds and never spend its budget. *)

let straggle = 8

let test_txn_fallback ~txn_fibers () =
  List.iter
    (fun bname ->
      let threads = 4 in
      let m = machine ~cores:threads () in
      let s =
        Harness.exec1 m (fun ctx ->
            Store.create (backend bname) ctx ~shards:4 ~key_space:64)
      in
      let txns = 40 in
      let fallbacks = ref 0 in
      let (_ : int) =
        Harness.exec m ~seed:5 ~threads
          ~policy:
            (Runtime.decorate_policy Runtime.default_policy
               ~extra_delay:(fun ~tid ~now:_ ~base ->
                 if tid < txn_fibers then base + straggle else base))
          (fun ctx ->
            let c = Ctx.core ctx in
            if c < txn_fibers then
              for i = 1 to txns do
                let o = if i mod 2 = 1 then Store.Insert else Store.Delete in
                let k = 4 * c in
                let before = (Store.stats s).txn_retries in
                let rs =
                  Store.txn ctx s [ (k, o); (k + 1, o); (k + 2, Store.Get) ]
                in
                if (Store.stats s).txn_retries - before > 8 then incr fallbacks;
                check_bool
                  (Printf.sprintf "%s txn %d.%d results" bname c i)
                  true
                  (rs = [ true; true; false ])
              done
            else
              (* Shard-0 keys of its own: every write is effective. *)
              for _ = 1 to 300 do
                ignore (Store.insert ctx s (4 * c));
                ignore (Store.delete ctx s (4 * c))
              done)
      in
      Machine.check_coherence m;
      let st = Store.stats s in
      check_int (bname ^ " every txn committed") (txn_fibers * txns)
        st.txn_commits;
      check_int (bname ^ " no aborts") 0 st.txn_aborts;
      if txn_fibers = 1 then
        check_bool
          (Printf.sprintf "%s fallback ran (%d of %d txns)" bname !fallbacks
             txns)
          true (!fallbacks > 0);
      check_int (bname ^ " final contents") 0
        (List.length (Store.to_list_unsafe m s)))
    backend_names

(* Past the tag set's capacity a transaction cannot tag every version
   it would lock, so it goes straight to the serialized fallback instead
   of spending its retry budget on VAS chains that cannot complete. At
   [max_tags = 2] a 3-shard all-Get transaction commits with no retry
   and no VAS, and issues 8 CASes: the fallback lock's acquire and
   release and each shard lock's (the VAS path issues 3, one release
   per shard). *)

let test_txn_past_tag_capacity () =
  List.iter
    (fun bname ->
      let m =
        Machine.create { (Config.default ~num_cores:1 ()) with max_tags = 2 }
      in
      Harness.exec1 m (fun ctx ->
          let s = Store.create (backend bname) ctx ~shards:4 ~key_space:64 in
          let before = Machine.total_stats m in
          let rs =
            Store.txn ctx s [ (0, Store.Get); (1, Store.Get); (2, Store.Get) ]
          in
          let after = Machine.total_stats m in
          Alcotest.(check (list bool))
            (bname ^ " txn results") [ false; false; false ] rs;
          check_int (bname ^ " no VAS") 0 (after.Stats.vas_ops - before.vas_ops);
          check_int (bname ^ " fallback CASes") 8
            (after.Stats.cas_ops - before.cas_ops);
          let st = Store.stats s in
          check_int (bname ^ " one commit") 1 st.txn_commits;
          check_int (bname ^ " no retries") 0 st.txn_retries))
    backend_names

(* ------------------------------------------------------------------ *)
(* Sequential map + range-query model (set_battery's ranged battery). *)

let ranged_battery bname =
  let module R = struct
    type t = Store.t

    let name = "store-" ^ bname
    let key_range = 48

    let create ctx =
      Store.create (backend bname) ctx ~shards:4 ~key_space:key_range

    let insert = Store.insert
    let delete = Store.delete
    let contains = Store.get
    let range ctx t ~lo ~hi = Store.scan ctx t ~lo ~hi
  end in
  let module B = Set_battery.Make_ranged (R) in
  B.cases

(* ------------------------------------------------------------------ *)
(* The norec-tagged shard's B+-tree on its own, under tagged NOrec. Each
   instance starts deep: [create] inserts the multiples of 4 below 2048
   in ascending order and deletes them all again, leaving 3 internal
   levels over 73 empty leaves, each bounding a 28-key stretch of the
   key space. Every battery case then runs on emptied leaves, splits
   them, and splits the internal nodes above them. *)

module Btree = struct
  module Stm = Mt_stm.Norec_tagged
  module TB = Mt_store.Tx_btree.Make (Stm)

  type t = { stm : Stm.t; tree : TB.t }

  let name = "btree"
  let skeleton = List.init 512 (fun i -> 4 * i)
  let key_range = 512
  let atomically ctx t f = Stm.atomically ctx t.stm (fun tx -> f tx t.tree)
  let insert ctx t k = atomically ctx t (fun tx m -> TB.insert tx m k)
  let delete ctx t k = atomically ctx t (fun tx m -> TB.delete tx m k)
  let contains ctx t k = atomically ctx t (fun tx m -> TB.contains tx m k)

  let create ctx =
    let t = { stm = Stm.create ctx; tree = TB.create ctx } in
    List.iter (fun k -> ignore (insert ctx t k)) skeleton;
    List.iter (fun k -> ignore (delete ctx t k)) skeleton;
    t

  let to_list_unsafe machine t = TB.to_list_unsafe machine t.tree

  let range ctx t ~lo ~hi =
    TB.scan_plain ctx t.tree ~lo ~hi ~budget:(List.length skeleton + 4096)
end

module Btree_battery = Set_battery.Make (Btree)
module Btree_ranged = Set_battery.Make_ranged (Btree)

let test_btree_skeleton () =
  let m = machine () in
  let t = Harness.exec1 m Btree.create in
  check_int "levels, leaves included" 4 (Btree.TB.depth_unsafe m t.tree);
  Alcotest.(check (list int)) "emptied" [] (Btree.to_list_unsafe m t)

let btree_cases =
  Alcotest.test_case "skeleton depth" `Quick test_btree_skeleton
  :: Btree_battery.cases
  @ [
      Alcotest.test_case "sequential oracle, 2048 keys" `Quick
        (Btree_battery.sequential_oracle ~ops:4000 ~range:2048);
      Alcotest.test_case "concurrent 8x2048" `Slow (fun () ->
          ignore
            (Btree_battery.concurrent_accounting ~threads:8 ~range:2048
               ~ops:400 ()));
    ]

(* Keys are 31-bit fields: a key space past 2^31 is rejected at
   construction on every backend, and the B+-tree itself refuses a key
   outside [0, 2^31). *)
let test_key_limit () =
  let m = machine () in
  Harness.exec1 m (fun ctx ->
      List.iter
        (fun bname ->
          Alcotest.check_raises (bname ^ " key_space 2^31 + 1")
            (Invalid_argument
               "Store.create: key_space > 2^31, past the 31-bit key field")
            (fun () ->
              ignore
                (Store.create (backend bname) ctx ~shards:4
                   ~key_space:((1 lsl 31) + 1)));
          let s =
            Store.create (backend bname) ctx ~shards:4 ~key_space:(1 lsl 31)
          in
          let top = (1 lsl 31) - 1 in
          check_bool (bname ^ " top key inserted") true (Store.insert ctx s top);
          check_bool (bname ^ " top key present") true (Store.get ctx s top))
        backend_names;
      let t = Btree.create ctx in
      List.iter
        (fun k ->
          Alcotest.check_raises
            (Printf.sprintf "btree insert %d" k)
            (Invalid_argument "Tx_btree.insert: key outside the 31-bit key field")
            (fun () -> ignore (Btree.insert ctx t k)))
        [ -1; 1 lsl 31 ])

(* ------------------------------------------------------------------ *)
(* Transaction atomicity under fuzzed schedules.

   Writers keep the pair (k, k+half) — two different shards — together:
   both inserted or both deleted in one txn. Readers observe each pair
   through a Get txn. Any observation of a half-pair is a torn commit.
   Swept over seeds with a fresh exploration policy per run and the MESI
   coherence audit after each. *)

let test_txn_atomicity () =
  let shards = 4 and key_space = 16 in
  let half = key_space / 2 in
  List.iter
    (fun bname ->
      for seed = 0 to 9 do
        let threads = 4 in
        let m = machine ~cores:threads () in
        let s =
          Harness.exec1 m (fun ctx ->
              Store.create (backend bname) ctx ~shards ~key_space)
        in
        let torn = ref 0 and committed = ref 0 in
        let (_ : int) =
          Harness.exec m ~seed
            ~policy:(Runtime.random_policy ~seed:(seed + 100) ())
            ~threads
            (fun ctx ->
              let g = Ctx.prng ctx in
              for _ = 1 to 40 do
                let k = Prng.int g half in
                if Ctx.core ctx < threads - 1 then begin
                  let op = if Prng.bool g then Store.Insert else Store.Delete in
                  ignore (Store.txn ctx s [ (k, op); (k + half, op) ]);
                  incr committed
                end
                else begin
                  match
                    Store.txn ctx s [ (k, Store.Get); (k + half, Store.Get) ]
                  with
                  | [ a; b ] ->
                      incr committed;
                      if a <> b then incr torn
                  | _ -> Alcotest.fail "txn arity"
                end
              done)
        in
        Machine.check_coherence m;
        check_int
          (Printf.sprintf "%s seed %d: no torn pair observed" bname seed)
          0 !torn;
        (* The final contents keep pairs whole too. *)
        let final = Store.to_list_unsafe m s in
        List.iter
          (fun k ->
            let mate = if k < half then k + half else k - half in
            check_bool "final pairs whole" true (List.mem mate final))
          final;
        check_bool "some txns committed" true (!committed > 0);
        let st = Store.stats s in
        check_int "txn accounting" !committed st.txn_commits;
        check_int "no aborts" 0 st.txn_aborts;
        check_int "every retry has a cause" st.txn_retries
          (st.txn_retries_locked + st.txn_retries_version)
      done)
    backend_names

(* ------------------------------------------------------------------ *)
(* Linearizability of the full mixed history (point + txn + scan).

   A scan or a multi-key txn is not per-key decomposable, so instead of
   Linearize.check_set we drive the generic Wing-Gong checker with a
   whole-store oracle: the state is the sorted key list, and each
   operation carries its observed result — apply returns whether the
   oracle agrees, so a history linearizes iff some ordering makes every
   observation consistent. *)

type whole_op =
  | Point of Store.op * int * bool
  | Txn of (int * Store.op) list * bool list
  | Scan of int * int * int list

let apply_sub state (k, op) =
  match op with
  | Store.Get -> (List.mem k state, state)
  | Store.Insert ->
      if List.mem k state then (false, state)
      else (true, List.sort compare (k :: state))
  | Store.Delete ->
      if List.mem k state then (true, List.filter (fun x -> x <> k) state)
      else (false, state)

let whole_model : (int list, whole_op) Linearize.model =
  {
    apply =
      (fun state op ->
        match op with
        | Point (o, k, observed) ->
            let r, state' = apply_sub state (k, o) in
            (r = observed, state')
        | Txn (ops, observed) ->
            let rs, state' =
              List.fold_left
                (fun (acc, st) sub ->
                  let r, st' = apply_sub st sub in
                  (r :: acc, st'))
                ([], state) ops
            in
            (List.rev rs = observed, state')
        | Scan (lo, hi, observed) ->
            (List.filter (fun k -> k >= lo && k <= hi) state = observed, state));
  }

let point ctx s o k =
  match o with
  | Store.Insert -> Store.insert ctx s k
  | Store.Delete -> Store.delete ctx s k
  | Store.Get -> Store.get ctx s k

(* One seeded run: [threads] fibers each make [steps] calls of [step] on a
   fresh 4-shard store, pausing a random [0, think) cycles before each;
   the history must linearize and the final contents be reachable. *)
let check_history bname ~seed ~key_space ~threads ~steps ~policy ~think step =
  let m = machine ~cores:threads () in
  let s =
    Harness.exec1 m (fun ctx ->
        Store.create (backend bname) ctx ~shards:4 ~key_space)
  in
  let log : whole_op Linearize.entry list ref = ref [] in
  let (_ : int) =
    Harness.exec m ~seed ~policy ~threads (fun ctx ->
        let g = Ctx.prng ctx in
        for _ = 1 to steps do
          if think > 0 then Ctx.work ctx (Prng.int g think);
          let t_inv = Ctx.now ctx in
          let op = step ctx s g in
          log :=
            { Linearize.op; result = true; t_inv; t_res = Ctx.now ctx } :: !log
        done)
  in
  Machine.check_coherence m;
  match Linearize.check whole_model ~init:[] (Array.of_list !log) with
  | Ok states ->
      check_bool
        (Printf.sprintf "%s seed %d: final contents reachable" bname seed)
        true
        (List.mem (Store.to_list_unsafe m s) states)
  | Error window ->
      Alcotest.failf "%s seed %d: history not linearizable (%d-op window)"
        bname seed (Array.length window)

let test_mixed_linearizable () =
  let step ctx s g =
    let k = Prng.int g 12 in
    match Prng.int g 5 with
    | 0 | 1 ->
        let o =
          match Prng.int g 3 with
          | 0 -> Store.Insert
          | 1 -> Store.Delete
          | _ -> Store.Get
        in
        Point (o, k, point ctx s o k)
    | 2 | 3 ->
        let ops = [ (k, Store.Insert); ((k + 5) mod 12, Store.Delete) ] in
        Txn (ops, Store.txn ctx s ops)
    | _ ->
        let lo = Prng.int g 8 in
        let hi = lo + Prng.int g (12 - lo) in
        Scan (lo, hi, Store.scan ctx s ~lo ~hi)
  in
  List.iter
    (fun bname ->
      for seed = 0 to 4 do
        check_history bname ~seed ~key_space:12 ~threads:3 ~steps:12
          ~policy:(Runtime.random_policy ~seed:(seed + 50) ())
          ~think:0 step
      done)
    backend_names

(* No-op-heavy: five keys, point ops are all writes, so about half find
   their key already in the state they would set, and every transaction
   deletes a key and re-inserts it. A shard the transaction has locked
   passes through the deleted state while the re-insert waits on a
   fresh node's cache miss; only a read that skips the lock sees it. A
   no-op write that trusts its walk without the closing version read
   then returns [false] for a delete of a key every linearization holds.
   Under random_policy every access is stretched, the version read and
   walk as much as the locked section, which all but closes that window;
   so the runs use the default schedule and draw the phases from random
   think time instead. *)
let test_noop_linearizable () =
  let step ctx s g =
    let k = Prng.int g 5 in
    match Prng.int g 5 with
    | 0 | 1 ->
        let o = if Prng.bool g then Store.Insert else Store.Delete in
        Point (o, k, point ctx s o k)
    | 2 | 3 ->
        let ops = [ (k, Store.Delete); (k, Store.Insert) ] in
        Txn (ops, Store.txn ctx s ops)
    | _ ->
        let hi = Prng.int g 5 in
        Scan (0, hi, Store.scan ctx s ~lo:0 ~hi)
  in
  List.iter
    (fun bname ->
      for seed = 0 to 199 do
        check_history bname ~seed ~key_space:5 ~threads:4 ~steps:20
          ~policy:Runtime.default_policy ~think:1000 step
      done)
    backend_names

(* Get-heavy: the same five keys, schedule and think time, but the point
   ops are mostly gets, racing transactions that delete a key and
   re-insert it, and inserts. A get's plain walk that overlaps such a
   transaction sees the key's deleted state on a locked shard; only the
   closing version read sends it back to retry. A get that trusts its
   walk then returns [false] for a key every linearization holds. *)
let test_get_linearizable () =
  let step ctx s g =
    let k = Prng.int g 5 in
    match Prng.int g 7 with
    | 0 | 1 | 2 -> Point (Store.Get, k, Store.get ctx s k)
    | 3 | 4 | 5 ->
        let ops = [ (k, Store.Delete); (k, Store.Insert) ] in
        Txn (ops, Store.txn ctx s ops)
    | _ -> Point (Store.Insert, k, Store.insert ctx s k)
  in
  List.iter
    (fun bname ->
      for seed = 0 to 199 do
        check_history bname ~seed ~key_space:5 ~threads:4 ~steps:20
          ~policy:Runtime.default_policy ~think:1000 step
      done)
    backend_names

(* ------------------------------------------------------------------ *)
(* Serve integration: conservation, per-class accounting, and the
   jobs/tracing invariance contract. *)

let store_spec bname =
  Store_serve.spec ~shards:4 ~key_space:4096 ~prefill:128 ~scan_width:256
    ~backend:(backend bname)
    ~mix:(Store_serve.mix ~point_pct:70 ~txn_pct:20)
    ()

let serve_config () =
  Serve.config ~workers:3 ~batch:2 ~queue_capacity:32 ~rate_per_kcycle:4.0
    ~horizon:30_000 ()

let test_serve_conservation () =
  List.iter
    (fun bname ->
      let r, st = Store_serve.run (store_spec bname) (serve_config ()) in
      check_int (bname ^ " conservation") r.Serve.generated
        (r.Serve.completed + r.Serve.dropped + r.Serve.still_queued);
      check_int (bname ^ " queues drained") 0 r.Serve.still_queued;
      (* Per-class completions partition the total. *)
      check_int (bname ^ " class partition") r.Serve.completed
        (Array.fold_left ( + ) 0 r.Serve.class_counts);
      check_bool (bname ^ " class labels") true
        (r.Serve.class_names = Store_serve.classes);
      (* The store saw every completed request exactly once. *)
      check_int
        (bname ^ " completions = store ops")
        r.Serve.completed
        (st.Store.point_ops + st.Store.txn_commits + st.Store.scans))
    backend_names

let test_serve_tracing_invariance () =
  (* A full recording sink must not perturb the run: every deterministic
     result field identical, with and without tracing. *)
  List.iter
    (fun bname ->
      let bare, st1 = Store_serve.run (store_spec bname) (serve_config ()) in
      let obs = Obs.create ~num_cores:4 () in
      let traced, st2 =
        Store_serve.run ~obs (store_spec bname) (serve_config ())
      in
      check_bool (bname ^ " tracing non-perturbing") true
        ({ bare with Serve.backend = "" } = { traced with Serve.backend = "" }
        && bare.Serve.backend = traced.Serve.backend);
      check_bool (bname ^ " store stats identical") true (st1 = st2);
      (* And the trace actually recorded store activity. *)
      let kinds = List.map (fun (e : Obs.event) -> e.kind) (Obs.events obs) in
      check_bool (bname ^ " store events present") true
        (List.exists (function Obs.Store_op _ -> true | _ -> false) kinds))
    backend_names

let test_serve_jobs_invariance () =
  (* The sweep contract: mapping the same points over 1 and 2 domains must
     produce identical results in identical order. *)
  let points =
    List.concat_map
      (fun bname -> [ (bname, 3.0); (bname, 8.0) ])
      [ "hoh-list"; "hoh-abtree" ]
  in
  let sweep jobs =
    Mt_par.Pool.map ~jobs
      (fun (bname, rate) ->
        let c = { (serve_config ()) with Serve.rate_per_kcycle = rate } in
        let r, st = Store_serve.run (store_spec bname) c in
        (r.Serve.generated, r.Serve.completed, r.Serve.duration, st))
      points
  in
  check_bool "jobs=1 equals jobs=2" true (sweep 1 = sweep 2)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "mt_store"
    ([
       ( "routing",
         [
           Alcotest.test_case "hash partitioning" `Quick test_routing;
           Alcotest.test_case "determinism" `Quick test_determinism;
           Alcotest.test_case "31-bit key limit" `Quick test_key_limit;
         ] );
       ( "point",
         [
           Alcotest.test_case "no-op writes issue no CAS" `Quick
             test_noop_writes_cas_free;
           Alcotest.test_case "locked writes issue only the lock CASes" `Quick
             test_locked_writes_direct;
         ] );
       ( "txn",
         [
           Alcotest.test_case "atomicity under fuzz" `Slow test_txn_atomicity;
           Alcotest.test_case "warm lock hold time" `Quick test_txn_hold_time;
           Alcotest.test_case "fallback under contention" `Quick
             (test_txn_fallback ~txn_fibers:1);
           Alcotest.test_case "overlapping fallbacks" `Quick
             (test_txn_fallback ~txn_fibers:2);
           Alcotest.test_case "past the tag capacity" `Quick
             test_txn_past_tag_capacity;
         ] );
       ( "backend",
         [ Alcotest.test_case "point walk contract" `Quick test_point_walk ] );
       ( "linearizability",
         [
           Alcotest.test_case "mixed point/txn/scan histories" `Slow
             test_mixed_linearizable;
           Alcotest.test_case "no-op-heavy histories" `Slow
             test_noop_linearizable;
           Alcotest.test_case "get-heavy histories" `Slow
             test_get_linearizable;
         ] );
       ( "serve",
         [
           Alcotest.test_case "conservation" `Quick test_serve_conservation;
           Alcotest.test_case "tracing invariance" `Quick
             test_serve_tracing_invariance;
           Alcotest.test_case "jobs invariance" `Quick test_serve_jobs_invariance;
         ] );
     ]
    @ List.map (fun bname -> ("ranged-" ^ bname, ranged_battery bname))
        backend_names
    @ [ ("btree", btree_cases); ("ranged-btree", Btree_ranged.cases) ])
