(* Quickstart: the MemTags primitives, hands on.

   Builds a 4-core simulated machine, demonstrates tag / validate / VAS /
   IAS semantics directly, then runs a contended shared counter where the
   losers fail *locally* (no coherence traffic), and finally a small
   HoH-tagged set shared by all cores.

   Run with:  dune exec examples/quickstart.exe *)

open Mt_sim
open Mt_core

let () =
  let machine = Machine.create (Config.default ~num_cores:4 ()) in

  (* --- 1. Raw primitive semantics, single thread ------------------- *)
  let cell = Machine.alloc machine ~words:1 in
  Harness.exec1 machine (fun ctx ->
      Ctx.write ctx cell 10;
      (* Tag the line (a tagged load), then validate: nothing touched it,
         so it holds. *)
      ignore (Ctx.add_tag_read ctx cell ~words:1);
      Printf.printf "validate after tagging: %b\n" (Ctx.validate ctx);
      (* VAS = validate-and-swap: succeeds while the tag is intact. *)
      let swapped = Ctx.vas ctx cell 11 in
      Printf.printf "vas -> 11: %b (cell=%d)\n" swapped (Ctx.read ctx cell);
      Ctx.clear_tag_set ctx);

  (* --- 2. A remote write kills the tag ----------------------------- *)
  let t0 = ref true and t1 = ref true in
  let rt = Runtime.create () in
  Runtime.spawn rt (fun () ->
      let ctx = Ctx.make machine ~rt ~core:0 ~prng:(Prng.create ~seed:1) in
      ignore (Ctx.add_tag_read ctx cell ~words:1);
      Runtime.stall_on rt 1000;
      (* core 1 wrote meanwhile *)
      t0 := Ctx.validate ctx;
      t1 := Ctx.vas ctx cell 99;
      Ctx.clear_tag_set ctx);
  Runtime.spawn rt (fun () ->
      let ctx = Ctx.make machine ~rt ~core:1 ~prng:(Prng.create ~seed:2) in
      Runtime.stall_on rt 500;
      Ctx.write ctx cell 42);
  Runtime.run rt;
  Printf.printf "after a remote write: validate=%b vas=%b (cell=%d) — conflict detected locally\n"
    !t0 !t1 (Machine.peek machine cell);

  (* --- 3. A shared HoH-tagged set across 4 cores ------------------- *)
  let set = Harness.exec1 machine (fun ctx -> Mt_list.Hoh_list.create ctx) in
  let duration =
    Harness.exec machine ~threads:4 (fun ctx ->
        let g = Ctx.prng ctx in
        for _ = 1 to 100 do
          let k = Prng.int g 64 in
          if Prng.bool g then ignore (Mt_list.Hoh_list.insert ctx set k)
          else ignore (Mt_list.Hoh_list.delete ctx set k)
        done)
  in
  let contents = Mt_list.Hoh_list.to_list_unsafe machine set in
  Printf.printf "4 cores x 100 ops in %d simulated cycles; set has %d keys\n" duration
    (List.length contents);
  let stats = Machine.total_stats machine in
  Printf.printf "validations: %d (failed %d), IAS: %d, L1 miss rate %.2f%%\n"
    stats.Stats.validates stats.Stats.validate_failures stats.Stats.ias_ops
    (100.0 *. Stats.l1_miss_rate stats)
