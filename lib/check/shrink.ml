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

(* The reduction table, in the order one pass tries it. Each entry maps
   the current best configuration to its candidate (params, spec) pairs,
   smallest first; the first candidate that fails is taken and the rest
   of that entry is skipped. Every candidate is strictly smaller than
   the best it came from. *)
let numeric cands get set (c : config) =
  List.map (fun v -> (set c.params v, c.spec)) (cands (get c.params))

let drop clear (c : config) =
  let spec = clear c.spec in
  if spec = c.spec then [] else [ (c.params, spec) ]

let reductions : (config -> (Explore.params * Inject.spec) list) list =
  [
    (* threads, smallest first *)
    numeric
      (fun cur -> List.init (cur - 1) (fun i -> i + 1))
      (fun p -> p.Explore.threads)
      (fun p threads -> { p with threads });
    numeric (ladder ~lo:1) (fun p -> p.ops) (fun p ops -> { p with ops });
    numeric (ladder ~lo:1) (fun p -> p.range) (fun p range -> { p with range });
    numeric (ladder ~lo:0)
      (fun p -> p.prefill)
      (fun p prefill -> { p with prefill });
    (* yield-injection bound (schedule perturbation sites) *)
    numeric (ladder ~lo:0)
      (fun p -> p.max_delay)
      (fun p max_delay -> { p with max_delay });
    (* injected faults, one component at a time *)
    drop (fun s -> { s with Inject.squeeze = None });
    drop (fun s -> { s with straggler = None });
    drop (fun s -> { s with distribution = Uniform });
    drop (fun s -> { s with geometry = None });
    drop (fun s -> { s with adaptive = false });
  ]

let shrink (module S : Mt_list.Set_intf.SET) (initial : config) =
  let runs = ref 0 in
  let exec c =
    incr runs;
    Explore.run ~spec:c.spec (module S) ~params:c.params ~seed:c.seed
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
  (* One pass of the reduction table, then the seed; true if anything
     shrank. Reductions only ever replace the current best with a
     strictly smaller configuration (fewer threads/ops/keys/faults or a
     smaller seed), so the fixpoint loop terminates and the result is
     stable under re-shrinking (idempotence). *)
  let pass () =
    let changed = ref false in
    List.iter
      (fun reduction ->
        if List.exists (fun (p, s) -> try_reduce p s) (reduction !best) then
          changed := true)
      reductions;
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
