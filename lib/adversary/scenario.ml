open Mt_sim
open Mt_check

(* Resample the machine's heat ({!Stats.heat} summed over all cores — a
   pure function of the simulation state, so adaptive decisions stay
   deterministic) every [heat_window] stalls (a full stats sum walks
   every core, so not per stall), and turn the delta into a straggler
   probability multiplier: m = 1 + min 7 (delta/4). A quiet machine
   injects at the base rate; a contention storm injects up to 8x more —
   the CoreSim-style "kick them while they're down" conditional. *)
let heat_window = 64

let multiplier_of_delta d = 1 + min 7 (d / 4)

let make_policy (spec : Inject.spec) ~machine ~seed ~max_delay =
  let base = Runtime.random_policy ~max_delay ~seed () in
  if spec.squeeze = None && spec.straggler = None then base
  else begin
    let g = Prng.create ~seed:(seed lxor 0xADA9) in
    let restore = Machine.max_tags machine in
    let squeeze_state = ref `Armed in
    let stalls = ref 0 in
    let last_heat = ref 0 in
    let mult = ref 1 in
    (* Each fault instant is marked on the timeline (core 0 — the fault is
       machine-global) so a telemetry window or trace can attribute the
       abort spike to the pulse that caused it. *)
    let mark ~now label =
      let obs = Machine.obs machine in
      if Mt_obs.Obs.enabled obs then
        Mt_obs.Obs.emit obs ~core:0 ~time:now (Mt_obs.Obs.Fault { label })
    in
    Runtime.decorate_policy base
      ~extra_delay:(fun ~tid:_ ~now ~base ->
        (match spec.squeeze with
        | Some { at; max_tags; hold } -> (
            match !squeeze_state with
            | `Armed when now >= at ->
                Machine.set_max_tags machine max_tags;
                mark ~now (Printf.sprintf "squeeze(max_tags=%d)" max_tags);
                squeeze_state := `Squeezed
            | `Squeezed when now >= at + hold ->
                Machine.set_max_tags machine restore;
                mark ~now "squeeze-restore";
                squeeze_state := `Done
            | _ -> ())
        | None -> ());
        let extra =
          match spec.straggler with
          | None -> 0
          | Some { prob; pause } ->
              incr stalls;
              if spec.adaptive && !stalls mod heat_window = 0 then begin
                let h = Stats.heat (Machine.total_stats machine) in
                mult := multiplier_of_delta (h - !last_heat);
                last_heat := h
              end;
              let p =
                if spec.adaptive then
                  Float.min 0.9 (prob *. float_of_int !mult)
                else prob
              in
              if Prng.float g < p then pause else 0
        in
        base + extra)
  end

let make_machine (spec : Inject.spec) ~obs ~num_cores =
  let cfg = Config.default ~num_cores () in
  let cfg =
    match spec.geometry with
    | None -> cfg
    | Some { l1_sets_log2; l1_ways; l2_sets_log2; l2_ways } ->
        { cfg with l1_sets_log2; l1_ways; l2_sets_log2; l2_ways }
  in
  Machine.create ~obs cfg

let draw_key (spec : Inject.spec) ~range =
  match spec.distribution with
  | Uniform -> Explore.default_hooks.draw_key
  | Zipfian { theta } ->
      (* rank = key: the hottest keys cluster at the low end of the key
         space (the front of a list, the leftmost leaves of a tree). *)
      let z = Zipf.create ~n:range ~theta in
      fun ~prng ~nth:_ ~range:_ -> Zipf.sample z prng
  | Flash_crowd { hot; period; duty } ->
      fun ~prng ~nth ~range ->
        if nth mod period < duty then
          let phase = nth / period in
          ((phase * 7919) + Prng.int prng (min hot range)) mod range
        else Prng.int prng range
  | Shard_hot { shards; theta } ->
      (* Zipfian rank picks the shard (the store routes key k to shard
         k mod shards, so rank 0 heats shard 0), uniform slot picks the
         key within it: key = rank + shards * slot stays < range because
         slot < range / shards. *)
      let shards = max 1 (min shards range) in
      let z = Zipf.create ~n:shards ~theta in
      let slots = range / shards in
      fun ~prng ~nth:_ ~range:_ ->
        Zipf.sample z prng + (shards * Prng.int prng slots)

let hooks (spec : Inject.spec) ~range : Explore.hooks =
  if Inject.is_none spec then Explore.default_hooks
  else
    {
      Explore.make_machine = make_machine spec;
      make_policy = make_policy spec;
      draw_key = draw_key spec ~range;
    }

let run ?obs (module S : Mt_list.Set_intf.SET) ~params ~spec ~seed =
  Explore.run ?obs
    ~hooks:(hooks spec ~range:params.Explore.range)
    (module S) ~params ~seed

let sweep ?jobs ?start (module S : Mt_list.Set_intf.SET) ~params ~spec_of
    ~seeds =
  Explore.sweep_with ?jobs ?start
    ~run:(fun ~seed -> run (module S) ~params ~spec:(spec_of seed) ~seed)
    ~seeds ()
