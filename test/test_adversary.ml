(* Tests for the fault injector and shrinker: fault plans must be pure
   functions of the seed (byte-identical replay, tracing changes nothing,
   spec strings round-trip), the injectors must actually perturb runs,
   and the shrinker must reduce both canaries to exactly the pinned,
   still-failing, idempotently-stable repros. *)

open Mt_check

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let params ?(threads = 4) ?(ops = 50) ?(range = 12) ?(prefill = 4)
    ?(max_delay = 64) () =
  { Explore.threads; ops; range; prefill; max_delay }

(* An aggressive plan exercising every injector at once. *)
let full_spec =
  {
    Inject.squeeze = Some { at = 800; max_tags = 4; hold = 4000 };
    straggler = Some { prob = 0.1; pause = 2000 };
    distribution = Zipfian { theta = 1.1 };
    geometry = Some Inject.small_geometry;
    adaptive = true;
  }

(* ------------------------------------------------------------------ *)
(* Determinism under injection. *)

let test_injected_replay_identical () =
  let run () =
    Explore.run ~spec:full_spec (Explore.plain (module Mt_list.Vas_list))
      ~params:(params ()) ~seed:7
  in
  let a = run () and b = run () in
  check_bool "byte-identical histories" true
    (History.to_string a.history = History.to_string b.history);
  check_bool "identical final contents" true (a.final = b.final);
  check_int "identical duration" a.duration b.duration

let test_tracing_changes_nothing_injected () =
  (* Recording a full event trace during an injected run must not perturb
     the schedule, the injections, or the history. *)
  let bare =
    Explore.run ~spec:full_spec (Explore.plain (module Mt_list.Vas_list))
      ~params:(params ()) ~seed:11
  in
  let obs = Mt_obs.Obs.create ~num_cores:4 () in
  let traced =
    Explore.run ~obs ~spec:full_spec
      (Explore.plain (module Mt_list.Vas_list))
      ~params:(params ()) ~seed:11
  in
  check_bool "traced history identical" true
    (History.to_string bare.history = History.to_string traced.history);
  check_int "traced duration identical" bare.duration traced.duration

let test_injection_has_effect () =
  (* The plan must actually change the run — otherwise the adversary is a
     no-op and every "survives --adversary" claim is vacuous. *)
  let plain =
    Explore.run ~spec:Inject.none (Explore.plain (module Mt_list.Vas_list))
      ~params:(params ()) ~seed:7
  in
  let injected =
    Explore.run ~spec:full_spec (Explore.plain (module Mt_list.Vas_list))
      ~params:(params ()) ~seed:7
  in
  check_bool "injected schedule differs from plain" true
    (History.to_string plain.history <> History.to_string injected.history
    || plain.duration <> injected.duration)

(* ------------------------------------------------------------------ *)
(* Fault-plan derivation and the spec string syntax. *)

let test_of_seed_deterministic () =
  for seed = 0 to 49 do
    let a = Inject.of_seed ~seed and b = Inject.of_seed ~seed in
    check_bool "of_seed is a function of the seed" true (a = b)
  done

let test_of_seed_varies () =
  let distinct =
    List.init 50 (fun seed -> Inject.to_string (Inject.of_seed ~seed))
    |> List.sort_uniq compare |> List.length
  in
  check_bool "seeds draw many distinct plans" true (distinct > 10)

let prop_spec_roundtrip =
  QCheck.Test.make ~name:"spec string round-trip" ~count:200 QCheck.small_int
    (fun seed ->
      let spec = Inject.of_seed ~seed in
      match Inject.of_string (Inject.to_string spec) with
      | Ok spec' -> spec' = spec
      | Error _ -> false)

let test_spec_plain () =
  check_bool "none prints as plain" true (Inject.to_string Inject.none = "plain");
  check_bool "plain parses as none" true
    (Inject.of_string "plain" = Ok Inject.none);
  check_bool "garbage rejected" true
    (match Inject.of_string "squeeze=oops" with Error _ -> true | Ok _ -> false)

let test_spec_geometry_bound () =
  (* The injector only shrinks caches, and no further than the smallest
     geometry the adversary draws: Config.default's geometry (L1 2^6 sets
     x 8 ways, L2 2^8 sets x 16 ways) and Inject.small_geometry (L1 2^3 x
     4, L2 2^6 x 8) parse; one step past either bound in any component is
     rejected before anything is allocated. *)
  let parses s = Result.is_ok (Inject.of_string s) in
  check_bool "default geometry accepted" true (parses "geom=6,8,8,16");
  check_bool "small geometry accepted" true (parses "geom=3,4,6,8");
  let small = { Inject.none with geometry = Some Inject.small_geometry } in
  check_bool "small geometry round-trips" true
    (Inject.of_string (Inject.to_string small) = Ok small);
  List.iter
    (fun s -> check_bool (s ^ " rejected") false (parses s))
    [
      "geom=7,8,8,16";
      "geom=6,9,8,16";
      "geom=6,8,9,16";
      "geom=6,8,8,17";
      "geom=40,1,40,1";
      "geom=6,0,8,16";
      "geom=-1,8,8,16";
      "geom=6,8,0,1";
      "geom=0,1,0,1";
      "geom=1,1,1,1";
      "geom=2,4,6,8";
      "geom=3,3,6,8";
      "geom=3,4,5,8";
      "geom=3,4,6,7";
    ]

(* ------------------------------------------------------------------ *)
(* Zipfian sampler. *)

let prop_zipf_deterministic =
  QCheck.Test.make ~name:"zipf sampling deterministic per seed" ~count:100
    QCheck.small_int (fun seed ->
      let z = Zipf.create ~n:64 ~theta:1.2 in
      let draw () =
        let g = Mt_sim.Prng.create ~seed in
        List.init 100 (fun _ -> Zipf.sample z g)
      in
      draw () = draw ())

let prop_zipf_in_range =
  QCheck.Test.make ~name:"zipf samples in [0,n)" ~count:100 QCheck.small_int
    (fun seed ->
      let z = Zipf.create ~n:13 ~theta:0.9 in
      let g = Mt_sim.Prng.create ~seed in
      List.init 200 (fun _ -> Zipf.sample z g)
      |> List.for_all (fun k -> k >= 0 && k < 13))

let test_zipf_rank_ordering () =
  (* pmf must be non-increasing in rank: rank 0 is the hottest key. *)
  let z = Zipf.create ~n:32 ~theta:1.1 in
  for r = 0 to 30 do
    check_bool "pmf non-increasing" true (Zipf.pmf z r >= Zipf.pmf z (r + 1))
  done;
  check_bool "skewed: rank 0 beats uniform share" true
    (Zipf.pmf z 0 > 1.0 /. 32.0)

(* ------------------------------------------------------------------ *)
(* The Max_Tags squeeze hook at the unit level. *)

let test_set_max_tags_latches_overflow () =
  let u = Mt_sim.Memtag_unit.create ~max_tags:8 in
  for i = 0 to 5 do
    Mt_sim.Memtag_unit.add u i
  done;
  check_bool "no overflow before squeeze" false (Mt_sim.Memtag_unit.overflowed u);
  Mt_sim.Memtag_unit.set_max_tags u 4;
  check_int "ceiling retargeted" 4 (Mt_sim.Memtag_unit.max_tags u);
  check_bool "overflow latches when tracked > new ceiling" true
    (Mt_sim.Memtag_unit.overflowed u);
  check_bool "validation now fails spuriously" true
    (Mt_sim.Memtag_unit.check u = Mt_sim.Memtag_unit.Fail_spurious);
  Mt_sim.Memtag_unit.clear u;
  check_bool "clear resets the latch" false (Mt_sim.Memtag_unit.overflowed u);
  (* Shrinking below the live count is what latches; growing never does. *)
  Mt_sim.Memtag_unit.set_max_tags u 16;
  check_bool "growing the ceiling is benign" false
    (Mt_sim.Memtag_unit.overflowed u)

(* ------------------------------------------------------------------ *)
(* Adversarial sweeps: correct structures survive, canaries die. *)

let test_adversarial_sweep_clean () =
  let _, failure =
    Explore.sweep
      (Explore.plain (module Mt_list.Vas_list))
      ~params:(params ())
      ~spec_of:(fun seed -> Inject.of_seed ~seed)
      ~seeds:10
  in
  match failure with
  | None -> ()
  | Some o ->
      let f = match o.verdict with Error f -> f | Ok () -> assert false in
      Alcotest.failf "vas_list failed adversarial seed %d: %a" o.seed
        Explore.pp_failure f

let test_buggy_abtree_caught () =
  (* The new canary: hand-over-hand a-b tree with the insert commit's
     validation dropped must be caught within 100 adversarial seeds. *)
  let _, failure =
    Explore.sweep (Explore.plain (module Buggy_abtree)) ~params:(params ())
      ~spec_of:(fun seed -> Inject.of_seed ~seed)
      ~seeds:100
  in
  match failure with
  | Some o ->
      check_bool "caught well within budget" true (o.seed < 100);
      let replay =
        Explore.run ~spec:(Inject.of_seed ~seed:o.seed)
          (Explore.plain (module Buggy_abtree))
          ~params:(params ()) ~seed:o.seed
      in
      check_bool "failure replays byte-identically" true
        (History.to_string replay.history = History.to_string o.history)
  | None -> Alcotest.fail "broken a-b tree survived 100 adversarial seeds"

let test_sweep_jobs_invariant () =
  (* First reported adversarial failure must not depend on --jobs. *)
  let sweep jobs =
    Explore.sweep ~jobs (Explore.plain (module Buggy_list)) ~params:(params ())
      ~spec_of:(fun seed -> Inject.of_seed ~seed)
      ~seeds:40
  in
  let i1, f1 = sweep 1 and i2, f2 = sweep 2 in
  check_int "same failing index" i1 i2;
  match (f1, f2) with
  | Some a, Some b ->
      check_int "same failing seed" a.seed b.seed;
      check_bool "same history" true
        (History.to_string a.history = History.to_string b.history)
  | None, None -> ()
  | _ -> Alcotest.fail "jobs=1 and jobs=2 disagree on failure existence"

(* ------------------------------------------------------------------ *)
(* The shrinker. *)

let find_failure (module S : Mt_list.Set_intf.SET) =
  let p = params () in
  let _, failure =
    Explore.sweep (Explore.plain (module S)) ~params:p
      ~spec_of:(fun seed -> Inject.of_seed ~seed)
      ~seeds:100
  in
  match failure with
  | Some o -> { Shrink.params = p; spec = Inject.of_seed ~seed:o.seed; seed = o.seed }
  | None -> Alcotest.fail "expected a failure to shrink"

(* The exact minimal repro and probe count for each canary: a reordered
   reduction table, a changed ladder or a changed seed budget moves them. *)
let check_shrink_pinned (module S : Mt_list.Set_intf.SET) ~config ~runs =
  let r =
    Shrink.shrink (Explore.plain (module S)) (find_failure (module S))
  in
  let c = r.config in
  Alcotest.(check string) "minimal config" config
    (Format.asprintf "%a" Shrink.pp_config c);
  check_int "candidate runs" runs r.runs;
  (* and the minimal repro replays byte-identically, still failing *)
  let replay =
    Explore.run ~spec:c.spec (Explore.plain (module S)) ~params:c.params
      ~seed:c.seed
  in
  check_bool "minimal repro replays byte-identically" true
    (History.to_string replay.history = History.to_string r.outcome.history
    && Result.is_error replay.verdict)

let test_shrink_buggy_list () =
  check_shrink_pinned
    (module Buggy_list)
    ~config:
      "threads=2 ops=1 range=8 prefill=2 max-delay=0 seed=4 spec=dist=zipf,1.5"
    ~runs:225

let test_shrink_buggy_abtree () =
  check_shrink_pinned
    (module Buggy_abtree)
    ~config:
      "threads=2 ops=2 range=1 prefill=0 max-delay=62 seed=6 spec=plain"
    ~runs:656

let test_shrink_idempotent () =
  let initial = find_failure (module Buggy_list) in
  let r1 = Shrink.shrink (Explore.plain (module Buggy_list)) initial in
  let r2 = Shrink.shrink (Explore.plain (module Buggy_list)) r1.config in
  check_bool "re-shrinking is a fixpoint" true (r2.config = r1.config)

let test_shrink_rejects_passing_config () =
  let c =
    { Shrink.params = params (); spec = Inject.none; seed = 0 }
  in
  check_bool "non-failing initial raises" true
    (match Shrink.shrink (Explore.plain (module Mt_list.Vas_list)) c with
    | exception Invalid_argument _ -> true
    | _ -> false)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "adversary"
    [
      ( "determinism",
        [
          Alcotest.test_case "injected replay identical" `Quick
            test_injected_replay_identical;
          Alcotest.test_case "tracing changes nothing" `Quick
            test_tracing_changes_nothing_injected;
          Alcotest.test_case "injection has effect" `Quick
            test_injection_has_effect;
        ] );
      ( "spec",
        Alcotest.test_case "of_seed deterministic" `Quick
          test_of_seed_deterministic
        :: Alcotest.test_case "of_seed varies" `Quick test_of_seed_varies
        :: Alcotest.test_case "plain round-trip" `Quick test_spec_plain
        :: Alcotest.test_case "geometry bounded by the default" `Quick
             test_spec_geometry_bound
        :: qsuite [ prop_spec_roundtrip ] );
      ( "zipf",
        Alcotest.test_case "rank ordering" `Quick test_zipf_rank_ordering
        :: qsuite [ prop_zipf_deterministic; prop_zipf_in_range ] );
      ( "squeeze",
        [
          Alcotest.test_case "set_max_tags latches overflow" `Quick
            test_set_max_tags_latches_overflow;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "vas survives adversary" `Quick
            test_adversarial_sweep_clean;
          Alcotest.test_case "buggy abtree caught" `Quick
            test_buggy_abtree_caught;
          Alcotest.test_case "jobs invariant" `Quick test_sweep_jobs_invariant;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "buggy list minimal repro" `Slow
            test_shrink_buggy_list;
          Alcotest.test_case "buggy abtree minimal repro" `Slow
            test_shrink_buggy_abtree;
          Alcotest.test_case "idempotent" `Slow test_shrink_idempotent;
          Alcotest.test_case "rejects passing config" `Quick
            test_shrink_rejects_passing_config;
        ] );
    ]
