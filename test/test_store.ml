(* Tests for the sharded store (lib/store): routing
   determinism, the sequential map+range-query model (set_battery's
   ranged battery), one descent per write, transaction
   atomicity under fuzzed schedules with the coherence audit on,
   point/txn/scan linearizability via the generic Wing-Gong checker,
   scans that finish against a writer that never pauses, the set and
   ranged batteries on the norec-tagged shard's bare B+-tree,
   serve-layer conservation, and the house invariants (byte-identical
   across --jobs and with tracing on or off). *)

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

(* The store's shard structure, the B+-tree, and its name in labels. *)
let backend = (module Backend.Norec_map : Backend.S)
let bname = Backend.Norec_map.name

(* ------------------------------------------------------------------ *)
(* Routing: pure hash partitioning, deterministic reruns. *)

let test_routing () =
  let m = machine () in
  Harness.exec1 m (fun ctx ->
      let s = Store.create backend ctx ~shards:4 ~key_space:64 in
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
  let run () =
    let m = machine ~cores:4 () in
    let s =
      Harness.exec1 m (fun ctx -> Store.create backend ctx ~shards:4 ~key_space:32)
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
  check_bool (bname ^ " bit-identical reruns") true (run () = run ())

(* ------------------------------------------------------------------ *)
(* The shard's two plain walks, on a quiescent tree: [collect] over the
   one-key window [k, k] is [k] when k is present and [] otherwise, and
   [find] reports membership in the sequential oracle (gets, writes'
   no-op proofs and transactions rely on it). *)

let test_point_walk () =
  let module B = Backend.Norec_map in
  let range = 256 in
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
             B.collect Ctx.plain_load ctx t ~lo:k ~hi:k
               ~budget:((2 * range) + 64)));
      Alcotest.(check (list bool))
        (bname ^ " find")
        (Array.to_list present)
        (List.init range (fun k -> Mt_store.Tx_btree.present (B.find ctx t k))))

(* Lock hold time on a quiescent store: a 3-key transaction on a core
   that has never touched the shards (all their lines cold in its cache)
   holds the locks only for cached sub-ops, because its [find]s ran
   first. Measured: 37 cycles with them (46 while the warm walk was a
   one-key collect and the sub-ops descended from the root), and 885
   with the finds moved under the locks (878 when the sub-ops descended
   from the root with no walk before them). The bound, 200, sits well
   below the cold figures. *)

let test_txn_hold_time () =
  let m = machine ~cores:2 () in
  let s =
    Harness.exec1 m (fun ctx ->
        let s = Store.create backend ctx ~shards:4 ~key_space:256 in
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
    (Printf.sprintf "%s locks held %d cycles (< 200)" bname
       st.txn_locked_cycles)
    true
    (st.txn_locked_cycles < 200)

(* A write that changes nothing takes no lock on a quiet shard: an insert
   of a present key and a delete of an absent key cost no CAS at all. An
   effective write takes and releases its shard lock, two CASes at
   least. *)

let test_noop_writes_cas_free () =
  let m = machine ~cores:1 () in
  Harness.exec1 m (fun ctx ->
      let s = Store.create backend ctx ~shards:4 ~key_space:64 in
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
      done)

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
      let s = Store.create backend ctx ~shards:4 ~key_space:64 in
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

(* One descent per write. On a warm norec-tagged store of three levels
   per shard (256 keys each: those below 2048 with bit 2 clear), an
   effective insert of key 1005 and the delete that undoes it make 45
   loads in all, each write reading its shard's root cell once: a
   version read, one [find] (the root cell, two internal nodes' header
   and separator words, the leaf's header and key words), the lock CAS's
   version read, and the update on the found leaf, which re-searches it.
   Descending again from the root cell under the lock makes 65, 10 more
   loads per write; the writes made 59 when they also walked their key
   with a one-key collect instead of [find]. *)
let test_one_descent_loads () =
  let m = machine ~cores:1 () in
  Harness.exec1 m (fun ctx ->
      let s = Store.create backend ctx ~shards:4 ~key_space:2048 in
      for k = 0 to 2047 do
        if k land 4 = 0 then ignore (Store.insert ctx s k)
      done;
      let loads () = (Machine.total_stats m).Stats.loads in
      let pair k =
        let before = loads () in
        check_bool "insert is effective" true (Store.insert ctx s k);
        check_bool "delete is effective" true (Store.delete ctx s k);
        loads () - before
      in
      ignore (pair 1005);
      check_int "loads of a warm insert + delete" 45 (pair 1005))

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
  let threads = 4 in
  let m = machine ~cores:threads () in
  let s =
    Harness.exec1 m (fun ctx ->
        Store.create backend ctx ~shards:4 ~key_space:64)
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
    (List.length (Store.to_list_unsafe m s))

(* Past the tag set's capacity a transaction cannot tag every version
   it would lock, so it goes straight to the serialized fallback instead
   of spending its retry budget on VAS chains that cannot complete. At
   [max_tags = 2] a 3-shard all-Get transaction commits with no retry
   and no VAS, and issues 8 CASes: the fallback lock's acquire and
   release and each shard lock's (the VAS path issues 3, one release
   per shard). *)

let test_txn_past_tag_capacity () =
  let m =
    Machine.create { (Config.default ~num_cores:1 ()) with max_tags = 2 }
  in
  Harness.exec1 m (fun ctx ->
      let s = Store.create backend ctx ~shards:4 ~key_space:64 in
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
      check_int (bname ^ " no retries") 0 st.txn_retries)

(* ------------------------------------------------------------------ *)
(* Scans certified by tags on the lines they walk. *)

(* A quiet scan on a core whose cache is cold (so every line it reads
   misses, with an [L1_miss] event) tags exactly the lines its walks
   read, each once, and never a shard's version word; it validates once
   and takes no fallback. The store holds the even keys below 160 (20
   per shard) and the scan covers [0, 79]. *)
let test_quiet_scan_tags () =
  let obs = Obs.create ~retain:false ~num_cores:2 () in
  let missed = Hashtbl.create 64 and tagged = ref [] in
  Obs.set_tap obs
    (Some
       (fun (e : Obs.event) ->
         if e.core = 1 then
           match e.kind with
           | Obs.L1_miss { line } -> Hashtbl.replace missed line ()
           | Obs.Tag_add { line } -> tagged := line :: !tagged
           | _ -> ()));
  let m = Machine.create ~obs (Config.default ~num_cores:2 ()) in
  let s =
    Harness.exec1 m (fun ctx ->
        let s = Store.create backend ctx ~shards:4 ~key_space:160 in
        for k = 0 to 79 do
          ignore (Store.insert ctx s (2 * k))
        done;
        s)
  in
  Hashtbl.reset missed;
  tagged := [];
  let before = Machine.total_stats m in
  let (_ : int) =
    Harness.exec m ~threads:2 (fun ctx ->
        if Ctx.core ctx = 1 then
          Alcotest.(check (list int))
            (bname ^ " scan") (List.init 40 (fun i -> 2 * i))
            (Store.scan ctx s ~lo:0 ~hi:79))
  in
  let after = Machine.total_stats m in
  let walked =
    Hashtbl.fold
      (fun line () acc ->
        if Obs.label_of obs line = Some "store-version" then acc
        else line :: acc)
      missed []
  in
  let sort = List.sort compare in
  Alcotest.(check (list int))
    (bname ^ " tagged lines = lines walked")
    (sort walked) (sort !tagged);
  check_int (bname ^ " one tag add per line")
    (List.length walked)
    (after.Stats.tag_adds - before.Stats.tag_adds);
  check_int (bname ^ " one validate") 1
    (after.Stats.validates - before.Stats.validates);
  let st = Store.stats s in
  check_int (bname ^ " no fallback") 0 st.scan_tag_fallbacks;
  check_int (bname ^ " one walk per shard") 4 st.scan_collects

(* ------------------------------------------------------------------ *)
(* Sequential map + range-query model (set_battery's ranged battery). *)

let ranged_battery =
  let module R = struct
    type t = Store.t

    let name = "store-" ^ bname
    let key_range = 48

    let create ctx =
      Store.create backend ctx ~shards:4 ~key_space:key_range

    let insert = Store.insert
    let delete = Store.delete
    let contains = Store.get
    let range ctx t ~lo ~hi = Store.scan ctx t ~lo ~hi
  end in
  let module B = Set_battery.Make_ranged (R) in
  B.cases

(* ------------------------------------------------------------------ *)
(* The shards' B+-tree on its own, under tagged NOrec. Each
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
    TB.collect Ctx.plain_load ctx t.tree ~lo ~hi
      ~budget:(List.length skeleton + 4096)
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
   construction, and the B+-tree itself refuses a key outside
   [0, 2^31). *)
let test_key_limit () =
  let m = machine () in
  Harness.exec1 m (fun ctx ->
      Alcotest.check_raises (bname ^ " key_space 2^31 + 1")
        (Invalid_argument
           "Store.create: key_space > 2^31, past the 31-bit key field")
        (fun () ->
          ignore
            (Store.create backend ctx ~shards:4 ~key_space:((1 lsl 31) + 1)));
      let s = Store.create backend ctx ~shards:4 ~key_space:(1 lsl 31) in
      let top = (1 lsl 31) - 1 in
      check_bool (bname ^ " top key inserted") true (Store.insert ctx s top);
      check_bool (bname ^ " top key present") true (Store.get ctx s top);
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
  for seed = 0 to 9 do
    let threads = 4 in
    let m = machine ~cores:threads () in
    let s =
      Harness.exec1 m (fun ctx ->
          Store.create backend ctx ~shards ~key_space)
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
  done

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
   the history must linearize and the final contents be reachable.
   Returns the store's counters. *)
let check_history ?(max_tags = 64) ~seed ~key_space ~threads ~steps ~policy
    ~think step =
  let m =
    Machine.create { (Config.default ~num_cores:threads ()) with max_tags }
  in
  let s =
    Harness.exec1 m (fun ctx -> Store.create backend ctx ~shards:4 ~key_space)
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
  (match Linearize.check whole_model ~init:[] (Array.of_list !log) with
  | Ok states ->
      check_bool
        (Printf.sprintf "%s seed %d: final contents reachable" bname seed)
        true
        (List.mem (Store.to_list_unsafe m s) states)
  | Error window ->
      Alcotest.failf "%s seed %d: history not linearizable (%d-op window)"
        bname seed (Array.length window));
  Store.stats s

let mixed_step ctx s g =
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

let test_mixed_linearizable () =
  for seed = 0 to 4 do
    ignore
      (check_history ~seed ~key_space:12 ~threads:3 ~steps:12
         ~policy:(Runtime.random_policy ~seed:(seed + 50) ())
         ~think:0 mixed_step)
  done

(* The same histories on a tag set too small for a scan's walks: every
   scan's tagged pass fills it and stops, so scans take the plain
   re-read fallback, and the histories still linearize. The B+-tree
   gets 4 tags. *)
let test_scan_fallback_linearizable () =
  let fallbacks = ref 0 in
  for seed = 0 to 4 do
    let st =
      check_history ~max_tags:4 ~seed ~key_space:12 ~threads:3 ~steps:12
        ~policy:(Runtime.random_policy ~seed:(seed + 50) ())
        ~think:0 mixed_step
    in
    fallbacks := !fallbacks + st.scan_tag_fallbacks
  done;
  check_bool
    (Printf.sprintf "%s scans fell back (%d)" bname !fallbacks)
    true (!fallbacks > 0)

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
  for seed = 0 to 199 do
    ignore
      (check_history ~seed ~key_space:5 ~threads:4 ~steps:20
         ~policy:Runtime.default_policy ~think:1000 step)
  done

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
  for seed = 0 to 199 do
    ignore
      (check_history ~seed ~key_space:5 ~threads:4 ~steps:20
         ~policy:Runtime.default_policy ~think:1000 step)
  done

(* A write reuses its walk's leaf only when its lock CAS took the version
   the walk started from. One shard starts with a full root leaf (the
   even keys 0-26). A writer on core 1, whose cache is cold, inserts 27;
   its walk finds that leaf. A straggling second writer on core 0, every
   stall 20 cycles longer, inserts 1, which splits the leaf and moves 12
   and up to a new right leaf. Its start is swept across [0, 600) cycles,
   so that in some runs it locks the shard between the first writer's
   walk and its lock CAS. The first writer must then take the full path:
   27 put into the stale left leaf is lost to every later search. Both
   writers then get both keys, and each history must linearize. The
   first writer's insert is a point write, then a one-sub-op
   transaction, which reuses its found leaf only when its acquisition
   took the version read before its walk. *)
let test_split_between_walk_and_lock () =
  List.iter
    (fun txn ->
      let overlapped = ref 0 in
      for start = 0 to 199 do
        let start = 3 * start in
        let m = machine ~cores:2 () in
        let s =
          Harness.exec1 m (fun ctx ->
              let s = Store.create backend ctx ~shards:1 ~key_space:32 in
              for k = 0 to 13 do
                ignore (Store.insert ctx s (2 * k))
              done;
              s)
        in
        let log : whole_op Linearize.entry list ref = ref [] in
        let spans = Array.make 2 (0, 0) in
        let (_ : int) =
          Harness.exec m ~threads:2
            ~policy:
              (Runtime.decorate_policy Runtime.default_policy
                 ~extra_delay:(fun ~tid ~now:_ ~base ->
                   if tid = 0 then base + 20 else base))
            (fun ctx ->
              let c = Ctx.core ctx in
              if c = 0 then Ctx.work ctx start;
              List.iter
                (fun (o, k) ->
                  let t_inv = Ctx.now ctx in
                  let op =
                    if txn && c = 1 && o = Store.Insert then
                      Txn ([ (k, o) ], Store.txn ctx s [ (k, o) ])
                    else Point (o, k, point ctx s o k)
                  in
                  if o = Store.Insert then spans.(c) <- (t_inv, Ctx.now ctx);
                  log :=
                    {
                      Linearize.op;
                      result = true;
                      t_inv;
                      t_res = Ctx.now ctx;
                    }
                    :: !log)
                [ (Store.Insert, if c = 0 then 1 else 27); (Store.Get, 1);
                  (Store.Get, 27) ])
        in
        Machine.check_coherence m;
        (match
           Linearize.check whole_model ~init:(List.init 14 (fun i -> 2 * i))
             (Array.of_list !log)
         with
        | Ok states ->
            check_bool
              (Printf.sprintf "%s%s start %d: final contents reachable" bname
                 (if txn then " txn" else "") start)
              true
              (List.mem (Store.to_list_unsafe m s) states)
        | Error window ->
            Alcotest.failf
              "%s%s start %d: history not linearizable (%d-op window)" bname
              (if txn then " txn" else "") start (Array.length window));
        let (a0, b0), (a1, b1) = (spans.(0), spans.(1)) in
        if a0 < b1 && a1 < b0 then incr overlapped
      done;
      check_bool
        (Printf.sprintf "%s%s: the inserts overlap in some runs (%d)" bname
           (if txn then " txn" else "")
           !overlapped)
        true (!overlapped > 0))
    [ false; true ]

(* A transaction's sub-ops see its own earlier sub-ops on the same shard,
   whether they ran on found leaves or took the full path. One shard;
   [Insert k; Get k] over keys that fill leaves and split them (a full
   path, after which the shard's sub-ops descend again, though later
   keys' leaves were found before the split), then [Delete k; Insert k]
   on present and absent keys, then mixed runs on two keys of one leaf.
   Every result must be the sequential answer. *)
let test_txn_own_sub_ops () =
  let m = machine ~cores:1 () in
  Harness.exec1 m (fun ctx ->
      let s = Store.create backend ctx ~shards:1 ~key_space:128 in
      let state = ref [] in
      let run ops =
        let expected, state' =
          List.fold_left
            (fun (acc, st) sub ->
              let r, st' = apply_sub st sub in
              (r :: acc, st'))
            ([], !state) ops
        in
        Alcotest.(check (list bool))
          (Printf.sprintf "%s txn on %d" bname (fst (List.hd ops)))
          (List.rev expected) (Store.txn ctx s ops);
        state := state'
      in
      for i = 0 to 39 do
        let k = (3 * i) mod 120 in
        run [ (k, Store.Insert); (k, Store.Get); (k + 1, Store.Insert);
              (k + 2, Store.Get) ]
      done;
      for k = 0 to 59 do
        run [ (k, Store.Delete); (k, Store.Insert) ]
      done;
      for k = 60 to 69 do
        run [ (k, Store.Delete); (k, Store.Get); (k, Store.Delete);
              (k + 1, Store.Insert); (k, Store.Insert); (k + 1, Store.Get) ]
      done;
      Alcotest.(check (list int))
        (bname ^ " final contents") !state (Store.to_list_unsafe m s))

(* Scans racing leaf splits, root splits and cross-shard moves. Two
   shards start with full root leaves (the even keys 0-26 and the odd
   keys 1-27). A writer fiber inserts keys that split leaves, the first
   split in each shard being a root split, and runs transactions that
   delete a key in one shard and insert one in the other ([`Move]),
   pausing [writer_gap] cycles after each; a scanner
   fiber scans the whole key space back to back until the writer is
   done. The writer is a straggler, every stall [straggle] cycles
   longer, so its critical sections span several of the scanner's
   reads, and the scanner's start is swept across [starts] (every third
   cycle) so that some scan lands inside each window of every update.
   With [scans > 0] the scanner stops after that many scans instead, and
   the writer, its updates done, keeps deleting and re-inserting one key
   per shard (40 and 41) until the scanner has stopped, at most [churn]
   times. Each history must linearize. Returns the length of each run in
   cycles. *)
let scan_race ~writer_gap ?(scans = 0) ?(churn = 0) ~starts straggle =
  let key_space = 80 in
  let writer =
    List.concat
      [
        [ `Insert 28; `Move (0, 29) ];
        List.init 10 (fun i -> `Insert (30 + (2 * i)));
        [ `Move (2, 31); `Move (31, 0) ];
        List.init 8 (fun i -> `Insert (33 + (2 * i)));
        [ `Move (29, 2) ];
      ]
  in
  let churn_ops = [ `Delete 40; `Delete 41; `Insert 40; `Insert 41 ] in
  let init = List.init 28 Fun.id in
  List.init starts (fun start ->
      let start = 3 * start in
      let m = machine ~cores:2 () in
      let s =
        Harness.exec1 m (fun ctx ->
            let s = Store.create backend ctx ~shards:2 ~key_space in
            List.iter (fun k -> ignore (Store.insert ctx s k)) init;
            s)
      in
      let log : whole_op Linearize.entry list ref = ref [] in
      let record ctx t_inv op =
        log :=
          { Linearize.op; result = true; t_inv; t_res = Ctx.now ctx } :: !log
      in
      let update ctx w =
        let t_inv = Ctx.now ctx in
        record ctx t_inv
          (match w with
          | `Insert k -> Point (Store.Insert, k, Store.insert ctx s k)
          | `Delete k -> Point (Store.Delete, k, Store.delete ctx s k)
          | `Move (a, b) ->
              let ops = [ (a, Store.Delete); (b, Store.Insert) ] in
              Txn (ops, Store.txn ctx s ops));
        Ctx.work ctx writer_gap
      in
      let writing = ref true and scanning = ref true and done_scans = ref 0 in
      let cycles =
        Harness.exec m ~threads:2
          ~policy:
            (Runtime.decorate_policy Runtime.default_policy
               ~extra_delay:(fun ~tid ~now:_ ~base ->
                 if tid = 0 then base + straggle else base))
          (fun ctx ->
            if Ctx.core ctx = 0 then begin
              List.iter (update ctx) writer;
              let rounds = ref 0 in
              while !scanning && !rounds < churn do
                List.iter (update ctx) churn_ops;
                incr rounds
              done;
              writing := false
            end
            else begin
              Ctx.work ctx start;
              while if scans = 0 then !writing else !done_scans < scans do
                let t_inv = Ctx.now ctx in
                let hi = key_space - 1 in
                record ctx t_inv (Scan (0, hi, Store.scan ctx s ~lo:0 ~hi));
                incr done_scans
              done;
              scanning := false
            end)
      in
      Machine.check_coherence m;
      (match Linearize.check whole_model ~init (Array.of_list !log) with
      | Ok states ->
          check_bool
            (Printf.sprintf "%s straggle %d start %d: final contents \
                             reachable" bname straggle start)
            true
            (List.mem (Store.to_list_unsafe m s) states)
      | Error window ->
          Alcotest.failf
            "%s straggle %d start %d: history not linearizable (%d-op \
             window)"
            bname straggle start (Array.length window));
      cycles)

(* With the writer pausing 400 cycles after each update. A scan that
   skips waiting for even versions, skips the validate, or reads the
   B+-tree's root cell untagged returns a state no linearization holds.
   The missing wait shows only at the longer straggle, at start 6 (the
   windows between a transaction's writes in two shards are short), the
   missing validate first at start 27 of the shorter one, and the
   untagged root cell at its start 228. *)
let test_scan_races () =
  List.iter
    (fun straggle ->
      ignore (scan_race ~writer_gap:400 ~starts:200 straggle : int list))
    [ 6; 20 ]

(* With no pause, the writer moves some shard during every plain re-read
   round, so a scan whose tagged pass failed would re-read for as long
   as the writer writes. After [txn_max_retries] rounds the scan takes
   the shards' locks instead and finishes: 4 scans complete while the
   writer churns, at straggle 6 over 20 starts in at most 14,856
   cycles. A scan that re-reads without end finishes only once the
   writer stops, after its 1,000 churn rounds: 4 scans then take 2.4
   million cycles. *)
let test_scan_races_no_gap () =
  let max_cycles = 15_000 in
  List.iteri
    (fun start cycles ->
      check_bool
        (Printf.sprintf "%s start %d: 4 scans in %d cycles (<= %d)" bname
           (3 * start) cycles max_cycles)
        true (cycles <= max_cycles))
    (scan_race ~writer_gap:0 ~scans:4 ~churn:1000 ~starts:20 6)

(* ------------------------------------------------------------------ *)
(* Serve integration: conservation, per-class accounting, and the
   jobs/tracing invariance contract. *)

let store_spec () =
  Store_serve.spec ~shards:4 ~key_space:4096 ~prefill:128 ~scan_width:256
    ~backend
    ~mix:(Store_serve.mix ~point_pct:70 ~txn_pct:20)
    ()

let serve_config () =
  Serve.config ~workers:3 ~batch:2 ~queue_capacity:32 ~rate_per_kcycle:4.0
    ~horizon:30_000 ()

let test_serve_conservation () =
  let r, st = Store_serve.run (store_spec ()) (serve_config ()) in
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
    (st.Store.point_ops + st.Store.txn_commits + st.Store.scans)

let test_serve_tracing_invariance () =
  (* A full recording sink must not perturb the run: every deterministic
     result field identical, with and without tracing. *)
  let bare, st1 = Store_serve.run (store_spec ()) (serve_config ()) in
  let obs = Obs.create ~num_cores:4 () in
  let traced, st2 =
    Store_serve.run ~obs (store_spec ()) (serve_config ())
  in
  check_bool (bname ^ " tracing non-perturbing") true
    ({ bare with Serve.backend = "" } = { traced with Serve.backend = "" }
    && bare.Serve.backend = traced.Serve.backend);
  check_bool (bname ^ " store stats identical") true (st1 = st2);
  (* And the trace actually recorded store activity. *)
  let kinds = List.map (fun (e : Obs.event) -> e.kind) (Obs.events obs) in
  check_bool (bname ^ " store events present") true
    (List.exists (function Obs.Store_op _ -> true | _ -> false) kinds)

let test_serve_jobs_invariance () =
  (* The sweep contract: mapping the same points over 1 and 2 domains must
     produce identical results in identical order. *)
  let sweep jobs =
    Mt_par.Pool.map ~jobs
      (fun rate ->
        let c = { (serve_config ()) with Serve.rate_per_kcycle = rate } in
        let r, st = Store_serve.run (store_spec ()) c in
        (r.Serve.generated, r.Serve.completed, r.Serve.duration, st))
      [ 3.0; 8.0 ]
  in
  check_bool "jobs=1 equals jobs=2" true (sweep 1 = sweep 2)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "mt_store"
    [
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
          Alcotest.test_case "one descent per effective write" `Quick
            test_one_descent_loads;
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
          Alcotest.test_case "sub-ops see their own writes" `Quick
            test_txn_own_sub_ops;
        ] );
      ( "backend",
        [ Alcotest.test_case "point walk contract" `Quick test_point_walk ] );
      ( "scan",
        [
          Alcotest.test_case "quiet scan tags only its walks" `Quick
            test_quiet_scan_tags;
          Alcotest.test_case "races with splits and moves" `Slow
            test_scan_races;
          Alcotest.test_case "races with a writer that never pauses" `Slow
            test_scan_races_no_gap;
          Alcotest.test_case "small tag set falls back" `Slow
            test_scan_fallback_linearizable;
        ] );
      ( "linearizability",
        [
          Alcotest.test_case "mixed point/txn/scan histories" `Slow
            test_mixed_linearizable;
          Alcotest.test_case "no-op-heavy histories" `Slow
            test_noop_linearizable;
          Alcotest.test_case "get-heavy histories" `Slow
            test_get_linearizable;
          Alcotest.test_case "a split between a write's walk and its lock"
            `Quick test_split_between_walk_and_lock;
        ] );
      ( "serve",
        [
          Alcotest.test_case "conservation" `Quick test_serve_conservation;
          Alcotest.test_case "tracing invariance" `Quick
            test_serve_tracing_invariance;
          Alcotest.test_case "jobs invariance" `Quick test_serve_jobs_invariance;
        ] );
      ("ranged-" ^ bname, ranged_battery);
      ("btree", btree_cases);
      ("ranged-btree", Btree_ranged.cases);
    ]
