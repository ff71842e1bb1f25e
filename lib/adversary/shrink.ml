open Mt_check

type config = { params : Explore.params; spec : Inject.spec; seed : int }

type result = {
  config : config;
  outcome : Explore.outcome;
  runs : int;
  initial : config;
}

let pp_config ppf (c : config) =
  Format.fprintf ppf
    "threads=%d ops=%d range=%d prefill=%d max-delay=%d seed=%d spec=%s"
    c.params.Explore.threads c.params.ops c.params.range c.params.prefill
    c.params.max_delay c.seed
    (Inject.to_string c.spec)

let run_config (module S : Mt_list.Set_intf.SET) (c : config) =
  Scenario.run (module S) ~params:c.params ~spec:c.spec ~seed:c.seed

(* Ascending candidate values strictly below [cur]: [lo], powers of two,
   and [cur - 1] — geometric probing finds the scale cheaply, the final
   [cur - 1] lets the fixpoint loop polish linearly. *)
let ladder ~lo cur =
  let rec geo acc v = if v >= cur then acc else geo (v :: acc) (v * 2) in
  let cands = geo [] (max 1 lo) in
  let cands = if lo = 0 then cands @ [ 0 ] else cands in
  let cands = if cur - 1 >= lo then (cur - 1) :: cands else cands in
  List.sort_uniq compare (List.filter (fun v -> v >= lo && v < cur) cands)

(* Seeds searched per candidate: [0, seed_budget). *)
let seed_budget = 12

let shrink (module S : Mt_list.Set_intf.SET) (initial : config) =
  let runs = ref 0 in
  let exec c =
    incr runs;
    run_config (module S) c
  in
  let first = exec initial in
  (match first.verdict with
  | Error _ -> ()
  | Ok () -> invalid_arg "Shrink.shrink: the initial configuration does not fail");
  let best = ref initial and best_out = ref first in
  (* A candidate (params, spec) is accepted iff some seed in
     [0, seed_budget) fails; the first failing seed becomes its seed.
     Searching a fresh ascending window (rather than keeping the current
     seed) is what lets a reduction that perturbs every schedule still
     land, and it minimizes the seed as a side effect. *)
  let try_reduce params spec =
    let rec go seed =
      if seed >= seed_budget then false
      else begin
        let c = { params; spec; seed } in
        let o = exec c in
        match o.verdict with
        | Error _ ->
            best := c;
            best_out := o;
            true
        | Ok () -> go (seed + 1)
      end
    in
    go 0
  in
  (* One pass of every reduction dimension; true if anything shrank.
     Reductions only ever replace the current best with a strictly
     smaller configuration (fewer threads/ops/keys/faults or a smaller
     seed), so the fixpoint loop terminates and the result is stable
     under re-shrinking (idempotence). *)
  let pass () =
    let changed = ref false in
    let reduce params spec = if try_reduce params spec then changed := true in
    (* threads, smallest first *)
    (let cur = !best.params.Explore.threads in
     ignore
       (List.exists
          (fun t -> try_reduce { !best.params with Explore.threads = t } !best.spec
                    && (changed := true; true))
          (List.init (cur - 1) (fun i -> i + 1))));
    (* ops per thread *)
    (let cur = !best.params.Explore.ops in
     ignore
       (List.exists
          (fun v -> try_reduce { !best.params with Explore.ops = v } !best.spec
                    && (changed := true; true))
          (ladder ~lo:1 cur)));
    (* key range *)
    (let cur = !best.params.Explore.range in
     ignore
       (List.exists
          (fun v -> try_reduce { !best.params with Explore.range = v } !best.spec
                    && (changed := true; true))
          (ladder ~lo:1 cur)));
    (* prefill *)
    (let cur = !best.params.Explore.prefill in
     ignore
       (List.exists
          (fun v -> try_reduce { !best.params with Explore.prefill = v } !best.spec
                    && (changed := true; true))
          (ladder ~lo:0 cur)));
    (* yield-injection bound (schedule perturbation sites) *)
    (let cur = !best.params.Explore.max_delay in
     ignore
       (List.exists
          (fun v -> try_reduce { !best.params with Explore.max_delay = v } !best.spec
                    && (changed := true; true))
          (ladder ~lo:0 cur)));
    (* injected faults, one component at a time *)
    (let s = !best.spec in
     if s.Inject.squeeze <> None then
       reduce !best.params { s with Inject.squeeze = None });
    (let s = !best.spec in
     if s.Inject.straggler <> None then
       reduce !best.params { s with Inject.straggler = None });
    (let s = !best.spec in
     if s.Inject.distribution <> Inject.Uniform then
       reduce !best.params { s with Inject.distribution = Inject.Uniform });
    (let s = !best.spec in
     if s.Inject.geometry <> None then
       reduce !best.params { s with Inject.geometry = None });
    (let s = !best.spec in
     if s.Inject.adaptive then reduce !best.params { s with Inject.adaptive = false });
    (* seed, in case no dimension above moved it into [0, seed_budget) *)
    (let cur = !best.seed in
     let rec go sd =
       if sd >= min cur seed_budget then ()
       else begin
         let c = { !best with seed = sd } in
         let o = exec c in
         match o.verdict with
         | Error _ ->
             best := c;
             best_out := o;
             changed := true
         | Ok () -> go (sd + 1)
       end
     in
     go 0);
    !changed
  in
  while pass () do
    ()
  done;
  { config = !best; outcome = !best_out; runs = !runs; initial }
