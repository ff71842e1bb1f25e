(* Allocation gate: the simulator's per-access path allocates nothing,
   and a suspending stall allocates only the continuation the runtime
   system itself builds. [Gc.minor_words] counts exact allocation, so
   every figure below is deterministic and wall-clock-free, stable on
   shared CI runners.

   Unit pins. Each runs the same program twice, with [n] and with [2n]
   repetitions of the step under test, and divides the difference in
   minor words by [n]: the fixed cost of building the machine, the
   runtime and the fibers cancels, so the quotient is the step's own
   allocation, exactly.
   - An L1-hit [Ctx.read], [Ctx.add_tag_read], [Ctx.write] and
     [Ctx.validate] allocate 0 words (DESIGN §12).
   - So do one hand-over-hand walk step on L1-resident lines (remove the
     trailing tag, tag the next line, validate), and a round that tags
     32 lines and clears them: past the tag array's initial 16 entries,
     which it grows once, in the fixed cost.
   - A suspending stall allocates 2 words: the effect continuation.
   - An S -> M upgrade that invalidates one remote sharer, together with
     the read miss that makes that core a sharer again, allocates 0
     words: the invalidation sweep loops over the directory's sharer
     bits instead of passing it a closure.

   B+-tree walks. On the store's B+-tree (lib/store/tx_btree.ml), in the
   direct instance the store's shards run, a [contains] and a plain
   [find] (the store's get, and every write's one descent) allocate 0
   words, a one-key plain [collect] 5 (its fuel cell and its one-element
   result; the store's writes made one each while they proved themselves
   no-ops with it), and a delete plus
   re-insert of a present key 0, at depth 1 and at depth 4 alike: no
   descent allocates per node visited, and mutations shift the packed
   words in place instead of unpacking a node into arrays.

   (a,b)-tree search. A [contains] on the HoH-tagged (4,8)-tree
   (lib/abtree/abtree_hoh.ml) allocates 0 words, at depth 1 and at depth
   4 alike: the key scans are top-level functions of all their
   arguments, not closures, and a descent step returns no (slot, child)
   pair (27 and 63 words while each level built a key-scan closure and
   that pair).

   Store writes and scans. An effective [Store.insert] plus
   [Store.delete] of one key on a norec-tagged store allocates 0 words:
   one [find] each, whose leaf and answer come back in one int, an update
   on that leaf, and no event record in an untraced run (7 while each
   write walked with a one-key collect, 11 while the records were also
   built before the sink check, 183 while each shard update ran as a
   tagged-NOrec transaction). A quiet whole-store scan of 32 keys over 4 shards
   allocates 181 words: its walks' results and their concatenation in
   shard order (205 while the shards' results were merged, 913 while
   every scan built its shard list, fallback state and a sorted copy).

   Directory footprint. A [Directory] costs one word per line of each
   chunk that some line was written to, plus the chunk table; the plane
   for cores 32-63 is never allocated on a machine that does not use
   them. The former layout (three parallel per-line planes, grown by
   doubling) holds three times that and fails the gate.

   Recording sink. An emit on an enabled [retain:false] sink with no tap
   allocates 0 words (it used to build the event record and drop it). An
   empty [retain:false] sink holds no rings; hot-line counts cost one
   word per line of each touched chunk plus the chunk table; the label map
   grows with its runs, not its lines. The former sink (a 65,536-slot ring
   per core, a boxed record and a hash binding per hot line, a hash
   binding per labelled line) fails all four.

   Simulated memory. Four full chunks of [Memory] cost at most one word
   per simulated word plus 64 words (the chunk table, headers and
   record), and a one-line allocation holds exactly one chunk: chunks
   exist only up to the allocation frontier. A layout that allocates
   chunks past the frontier or keeps a second copy of a chunk fails it.
   An L1-hit write of a value past 32 bits, as a half-packed node word
   is, allocates 0 words.

   Store transaction. A 3-shard all-Get [Store.txn] on a quiet store
   allocates 0 simulated words ([Memory.allocated_words]); locking
   through descriptor-based kCAS allocated 80.

   Workload budget. A contended 4-thread hoh-list set operation — dozens
   of simulated accesses, tag ops and fiber suspensions — must fit a
   small fixed byte budget. It pays for the op itself (locate's result
   tuple, simulated node allocations) and the suspensions; measured
   63.6 B/op against a 128 B/op budget (985.0 while each invalidation
   round allocated a closure). A reintroduced per-access closure, boxed
   queue entry or per-line list costs tens to hundreds of bytes per op
   and trips it. Machine construction happens once, outside the
   measured window. *)

open Mt_sim
open Mt_core
module L = Mt_list.Hoh_list

let failed = ref false

let pin name ~expected per_step =
  Printf.printf "%-28s %6.2f words/step (pinned %.0f)\n" name per_step expected;
  if per_step <> expected then begin
    Printf.eprintf "FAIL: %s allocates %.2f words per step, pinned at %.0f\n"
      name per_step expected;
    failed := true
  end

(* Words allocated per step: [run k] performs [k] steps after a fixed
   set-up. *)
let words_per_step run ~n =
  let words k =
    let before = Gc.minor_words () in
    run k;
    Gc.minor_words () -. before
  in
  ignore (words n);
  (words (2 * n) -. words n) /. float_of_int n

let lines = 32

(* One fiber on a warm machine: [prepare] makes every line L1-resident
   in the state the step needs, then [step ctx addrs i] runs [k] times. *)
let access ~prepare step k =
  let m = Machine.create (Config.default ~num_cores:1 ()) in
  Harness.exec1 m (fun ctx ->
      let addrs = Array.init lines (fun _ -> Ctx.alloc ctx ~words:8) in
      Array.iter (prepare ctx) addrs;
      for i = 1 to k do
        step ctx addrs i
      done)

let read_warm ctx a = ignore (Ctx.read ctx a)
let write_warm ctx a = Ctx.write ctx a 1

let () =
  let n = 20_000 in
  pin "L1-hit read" ~expected:0.
    (words_per_step ~n
       (access ~prepare:read_warm (fun ctx addrs i ->
            ignore (Ctx.read ctx addrs.(i land (lines - 1))))));
  pin "L1-hit tagged read" ~expected:0.
    (words_per_step ~n
       (access ~prepare:read_warm (fun ctx addrs i ->
            ignore (Ctx.add_tag_read ctx addrs.(i land (lines - 1)) ~words:1);
            if i land (lines - 1) = lines - 1 then Ctx.clear_tag_set ctx)));
  pin "L1-hit write" ~expected:0.
    (words_per_step ~n
       (access ~prepare:write_warm (fun ctx addrs i ->
            Ctx.write ctx addrs.(i land (lines - 1)) (i lsl 40))));
  pin "validate" ~expected:0.
    (words_per_step ~n
       (access ~prepare:read_warm (fun ctx _ _ -> ignore (Ctx.validate ctx))));
  pin "HoH walk step" ~expected:0.
    (words_per_step ~n
       (access ~prepare:read_warm (fun ctx addrs i ->
            Ctx.remove_tag ctx addrs.((i - 1) land (lines - 1)) ~words:1;
            ignore (Ctx.add_tag_read ctx addrs.((i + 1) land (lines - 1)) ~words:1);
            ignore (Ctx.validate ctx))));
  pin "tag set past initial size" ~expected:0.
    (words_per_step ~n:(n / lines)
       (access ~prepare:read_warm (fun ctx addrs _ ->
            for j = 0 to lines - 1 do
              ignore (Ctx.add_tag_read ctx addrs.(j) ~words:1)
            done;
            Ctx.clear_tag_set ctx)));
  (* Two fibers at equal clocks stalling one cycle each: every stall
     hands over to the other fiber, so [k] stalls per fiber are [2k]
     suspensions. *)
  pin "suspending stall" ~expected:2.
    (words_per_step ~n (fun k ->
         let rt = Runtime.create () in
         for _ = 1 to 2 do
           Runtime.spawn rt (fun () ->
               for _ = 1 to k do
                 Runtime.stall_on rt 1
               done)
         done;
         Runtime.run rt)
    /. 2.)

(* Core 1 reads the line (a full miss that downgrades core 0's M copy),
   then core 0 writes it: an S -> M upgrade with core 1 as the one remote
   sharer. No fiber is needed: [Machine] accesses do not stall. *)
let upgrade k =
  let m = Machine.create (Config.default ~num_cores:2 ()) in
  let a = Machine.alloc m ~words:8 in
  Machine.write m ~core:0 a 0 |> ignore;
  for i = 1 to k do
    ignore (Machine.read m ~core:1 a);
    ignore (Machine.write m ~core:0 a i)
  done

let () =
  pin "S->M upgrade, 1 sharer" ~expected:0. (words_per_step ~n:20_000 upgrade)

(* B+-tree walks --------------------------------------------------------- *)

module TB = Mt_store.Tx_btree.Direct

let btree ~keys ctx =
  let t = TB.create ctx in
  for key = 0 to keys - 1 do
    ignore (TB.insert ctx t key)
  done;
  t

(* [k] steps on a warm, quiescent tree of [keys] keys; step [i] looks up
   a present key. *)
let btree_walk ~keys step k =
  let m = Machine.create (Config.default ~num_cores:1 ()) in
  Harness.exec1 m (fun ctx ->
      let t = btree ~keys ctx in
      for i = 1 to k do
        step ctx t (i mod keys)
      done)

let () =
  let n = 20_000 in
  List.iter
    (fun (what, expected, step) ->
      List.iter
        (fun keys ->
          let m = Machine.create (Config.default ~num_cores:1 ()) in
          let depth = TB.depth_unsafe m (Harness.exec1 m (btree ~keys)) in
          pin
            (Printf.sprintf "btree %s, depth %d" what depth)
            ~expected
            (words_per_step ~n (btree_walk ~keys step)))
        [ 6; 1024 ])
    [
      ("contains", 0., fun ctx t k -> ignore (TB.contains ctx t k));
      ("find", 0., fun ctx t k -> ignore (TB.find ctx t k));
      ( "scan k..k",
        5.,
        fun ctx t k ->
          ignore (TB.collect Ctx.plain_load ctx t ~lo:k ~hi:k ~budget:64) );
      ( "delete + re-insert",
        0.,
        fun ctx t k ->
          ignore (TB.delete ctx t k);
          ignore (TB.insert ctx t k) );
    ]

(* (a,b)-tree search ------------------------------------------------------- *)

module HT = Mt_abtree.Abtree_hoh.Paper

let hoh_tree ~keys ctx =
  let t = HT.create ctx in
  for key = 0 to keys - 1 do
    ignore (HT.insert ctx t key)
  done;
  t

let () =
  List.iter
    (fun keys ->
      let m = Machine.create (Config.default ~num_cores:1 ()) in
      let depth = (HT.check m (Harness.exec1 m (hoh_tree ~keys))).height in
      pin
        (Printf.sprintf "abtree contains, depth %d" depth)
        ~expected:0.
        (words_per_step ~n:20_000 (fun k ->
             let m = Machine.create (Config.default ~num_cores:1 ()) in
             Harness.exec1 m (fun ctx ->
                 let t = hoh_tree ~keys ctx in
                 for i = 1 to k do
                   ignore (HT.contains ctx t (i mod keys))
                 done))))
    [ 6; 1024 ]

(* Store writes ----------------------------------------------------------- *)

(* An effective [Store.insert] and [Store.delete] of the same absent key
   on a warm norec-tagged store: both [find]s, the lock CAS and release
   CAS of each, and the B+-tree update written directly on the found
   leaf under the lock. Nothing allocates: [find] packs the leaf and the
   answer in one int, an untraced run builds no event record, and the
   tree updates in place. While each write walked with a one-key collect
   the pair allocated 7 words (two fuel cells and a one-element result),
   with the [Store_op] records built before the sink check 11, and with a
   tagged-NOrec transaction per update and a closure per lock
   acquisition 183. *)
let () =
  let module Store = Mt_store.Store in
  pin "store insert + delete, norec-tagged" ~expected:0.
    (words_per_step ~n:20_000 (fun k ->
         let m = Machine.create (Config.default ~num_cores:1 ()) in
         Harness.exec1 m (fun ctx ->
             let s =
               Store.create (module Mt_store.Backend.Norec_map) ctx ~shards:4
                 ~key_space:64
             in
             for key = 0 to 31 do
               ignore (Store.insert ctx s (2 * key))
             done;
             for i = 1 to k do
               let key = (2 * (i land 31)) + 1 in
               ignore (Store.insert ctx s key);
               ignore (Store.delete ctx s key)
             done)))

(* A quiet [Store.scan] of the whole key space of a warm norec-tagged
   store with 4 shards and 32 keys: the tag-certified pass, with no
   fallback. 181 words: the per-shard results array (5), each shard
   walk's fuel cell (2) and key list (3 per key), and the copies of the
   first three shards' lists that concatenate them in shard order (3
   per key); no per-scan list of shards, no fallback state and no sort.
   A k-way merge of the shards' lists, needed while keys were routed
   [k mod shards], copied all four (205). The version-tagged scan,
   which built the shard list, three arrays, a concatenation and a
   sorted copy on every call, allocated 913. *)
let () =
  let module Store = Mt_store.Store in
  pin "store scan, 4 shards, 32 keys" ~expected:181.
    (words_per_step ~n:5_000 (fun k ->
         let m = Machine.create (Config.default ~num_cores:1 ()) in
         Harness.exec1 m (fun ctx ->
             let s =
               Store.create (module Mt_store.Backend.Norec_map) ctx ~shards:4
                 ~key_space:64
             in
             for key = 0 to 31 do
               ignore (Store.insert ctx s (2 * key))
             done;
             for _ = 1 to k do
               ignore (Store.scan ctx s ~lo:0 ~hi:63)
             done)))

(* Directory footprint -------------------------------------------------- *)

let () =
  let d = Directory.create () in
  let per = Directory.lines_per_chunk d in
  (* Lines on both sides of three chunk boundaries: four chunks. *)
  let first = per - 100 and last = (3 * per) + 100 in
  for line = first to last do
    Directory.add_sharer d line (line land 7)
  done;
  let covered = 4 * per in
  (* The chunk table (at most twice the chunks), four chunk headers and
     the record: a few dozen words. *)
  let budget = covered + 64 in
  let words = Obj.reachable_words (Obj.repr d) in
  Printf.printf "directory footprint: %d words for %d covered lines (budget %d)
"
    words covered budget;
  if words > budget then begin
    Printf.eprintf "FAIL: directory holds %d words, over the %d-word budget
"
      words budget;
    failed := true
  end;
  if Directory.wide d then begin
    Printf.eprintf "FAIL: an 8-core directory allocated the plane for cores 32-63
";
    failed := true
  end

(* Recording sink --------------------------------------------------------- *)

module Obs = Mt_obs.Obs

(* An enabled sink that retains nothing and has no tap builds no event
   record: an emit only advances the sequence number and, for an
   invalidation or downgrade, bumps the line's packed count. The kinds are
   built once, outside the measured steps. *)
let () =
  let kinds =
    [| Obs.Inval_sent { line = 3; victim = 1 }; Obs.Fiber_resume;
       Obs.Downgrade { line = 9_000; victim = 2 }; Obs.Vas { ok = true } |]
  in
  pin "emit, retain:false, no tap" ~expected:0.
    (words_per_step ~n:20_000 (fun k ->
         let obs = Obs.create ~retain:false ~num_cores:4 () in
         for i = 1 to k do
           Obs.emit obs ~core:(i land 3) ~time:i kinds.(i land 3)
         done))

let sink_words obs = Obj.reachable_words (Obj.repr obs)

let footprint name ~words ~budget =
  Printf.printf "%-28s %8d words (budget %d)\n" name words budget;
  if words > budget then begin
    Printf.eprintf "FAIL: %s holds %d words, over the %d-word budget\n" name
      words budget;
    failed := true
  end

(* The sink's footprint, by part: the empty sink, then hot counts and
   labels over it. A run is a stretch of contiguous same-labelled lines. *)
let () =
  let empty = sink_words (Obs.create ~retain:false ~num_cores:8 ()) in
  footprint "empty retain:false sink" ~words:empty ~budget:256;
  let chunk = 8192 in
  let hot = Obs.create ~retain:false ~num_cores:8 () in
  (* Every line on both sides of three chunk boundaries: four chunks. *)
  for line = chunk - 100 to (3 * chunk) + 100 do
    Obs.emit hot ~core:0 ~time:0 (Obs.Inval_sent { line; victim = 1 });
    Obs.emit hot ~core:0 ~time:0 (Obs.Downgrade { line; victim = 1 })
  done;
  footprint "hot counts, 4 chunks" ~words:(sink_words hot - empty)
    ~budget:((4 * chunk) + 64);
  let runs = 1_000 in
  let labelled = Obs.create ~retain:false ~num_cores:8 () in
  (* 1000 runs of 100 lines each, alternating between two labels:
     100,000 labelled lines. *)
  for i = 0 to runs - 1 do
    Obs.label_lines labelled ~line_lo:(i * 100) ~line_hi:((i * 100) + 99)
      (if i land 1 = 0 then "even" else "odd")
  done;
  footprint "labels, 1000 runs" ~words:(sink_words labelled - empty)
    ~budget:(8 * runs)

(* Simulated memory footprint -------------------------------------------- *)

let () =
  let chunk_words = 1 lsl Memory.chunk_log2 in
  let cfg = Config.default () in
  let words mem = Obj.reachable_words (Obj.repr mem) in
  let mem = Memory.create cfg in
  ignore (Memory.alloc mem ~words:1);
  let one_line = words mem in
  footprint "memory, 1 line" ~words:one_line ~budget:(chunk_words + 64);
  if one_line < chunk_words then begin
    Printf.eprintf "FAIL: a one-line memory holds %d words, less than one chunk\n"
      one_line;
    failed := true
  end;
  (* The null line is reserved: this fills four chunks exactly. *)
  ignore (Memory.alloc mem ~words:((4 * chunk_words) - (2 * Config.line_words cfg)));
  footprint "memory, 4 full chunks" ~words:(words mem) ~budget:((4 * chunk_words) + 64)

(* Store transaction ------------------------------------------------------ *)

(* A 3-shard all-Get transaction (keys 0, 16 and 32 of 64 over 4
   shards) on a quiet store allocates no simulated memory: its locks
   are taken with tagged loads and VAS and released with single-word
   CASes, so it builds no descriptors. *)
let () =
  let m = Machine.create (Config.default ~num_cores:1 ()) in
  Harness.exec1 m (fun ctx ->
      let s =
        Mt_store.Store.create (module Mt_store.Backend.Norec_map) ctx ~shards:4
          ~key_space:64
      in
      for k = 0 to 31 do
        ignore (Mt_store.Store.insert ctx s (2 * k))
      done;
      let before = Memory.allocated_words (Machine.memory m) in
      ignore
        (Mt_store.Store.txn ctx s
           [ (0, Mt_store.Store.Get); (16, Get); (32, Get) ]);
      let words = Memory.allocated_words (Machine.memory m) - before in
      let name = "store txn, " ^ Mt_store.Backend.Norec_map.name in
      Printf.printf "%-28s %6d simulated words (pinned 0)\n" name words;
      if words <> 0 then begin
        Printf.eprintf "FAIL: %s allocates %d simulated words, pinned at 0\n"
          name words;
        failed := true
      end)

(* Workload budget ------------------------------------------------------ *)

let threads = 4
let ops_per_thread = 500
let budget_bytes_per_op = 128.0

let workload s ctx =
  let g = Ctx.prng ctx in
  for _ = 1 to ops_per_thread do
    let k = Prng.int g 64 in
    match Prng.int g 3 with
    | 0 -> ignore (L.insert ctx s k)
    | 1 -> ignore (L.delete ctx s k)
    | _ -> ignore (L.contains ctx s k)
  done

let () =
  let m = Machine.create (Config.default ~num_cores:threads ()) in
  let s = Harness.exec1 m (fun ctx -> L.create ctx) in
  Harness.exec1 m (fun ctx ->
      for k = 0 to 31 do
        ignore (L.insert ctx s (2 * k))
      done);
  (* Warmup run: pays one-time growth (simulated-memory chunks, tag-table
     sizing, code paths); the measured run is steady-state. *)
  ignore (Harness.exec m ~threads (workload s));
  let before = Gc.allocated_bytes () in
  ignore (Harness.exec m ~threads (workload s));
  let per_op =
    (Gc.allocated_bytes () -. before) /. float_of_int (threads * ops_per_thread)
  in
  Printf.printf "hoh-list allocation: %.1f bytes/op (budget %.0f)\n" per_op
    budget_bytes_per_op;
  if per_op > budget_bytes_per_op then begin
    Printf.eprintf
      "FAIL: %.1f bytes/op exceeds the %.0f-byte hot-path budget\n" per_op
      budget_bytes_per_op;
    failed := true
  end;
  if !failed then exit 1
