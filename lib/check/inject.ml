open Mt_sim

type distribution =
  | Uniform
  | Zipfian of { theta : float }
  | Flash_crowd of { hot : int; period : int; duty : int }

type squeeze = { at : int; max_tags : int; hold : int }
type straggler = { prob : float; pause : int }

type geometry = {
  l1_sets_log2 : int;
  l1_ways : int;
  l2_sets_log2 : int;
  l2_ways : int;
}

type spec = {
  squeeze : squeeze option;
  straggler : straggler option;
  distribution : distribution;
  geometry : geometry option;
  adaptive : bool;
}

let none =
  {
    squeeze = None;
    straggler = None;
    distribution = Uniform;
    geometry = None;
    adaptive = false;
  }

let is_none s = s = none

(* The one cache-geometry perturbation we inject: private caches an order
   of magnitude smaller than Config.default (32-line 4-way L1, 512-line
   8-way L2), small enough that capacity evictions kill tags under any
   real working set, large enough that a hand-over-hand window still fits
   one set's associativity (no deterministic livelock). *)
let small_geometry =
  { l1_sets_log2 = 3; l1_ways = 4; l2_sets_log2 = 6; l2_ways = 8 }

(* The adversary plan for a seed — a pure function of the seed, drawn
   from a private PRNG stream (independent of the schedule and thread
   streams). Roughly half the seeds squeeze Max_Tags mid-run, half run
   stragglers, two thirds skew the key distribution, a third shrink the
   caches; all combinations occur. Squeeze floors ({4,8,16}) are pulses
   ([hold] cycles, then restored) so tag-starved retry loops always drain. *)
let of_seed ~seed =
  let g = Prng.create ~seed:(seed lxor 0x0FA017) in
  let squeeze =
    if Prng.bool g then
      Some
        {
          at = 500 + Prng.int g 4000;
          max_tags = [| 4; 8; 16 |].(Prng.int g 3);
          hold = 1000 + Prng.int g 6000;
        }
    else None
  in
  let straggler =
    if Prng.bool g then
      Some
        {
          prob = [| 0.02; 0.05; 0.1 |].(Prng.int g 3);
          pause = [| 500; 2000; 8000 |].(Prng.int g 3);
        }
    else None
  in
  let distribution =
    match Prng.int g 3 with
    | 0 -> Uniform
    | 1 -> Zipfian { theta = [| 0.8; 1.1; 1.5 |].(Prng.int g 3) }
    | _ ->
        Flash_crowd
          {
            hot = 1 + Prng.int g 3;
            period = 8 + Prng.int g 8;
            duty = 4 + Prng.int g 4;
          }
  in
  let geometry = if Prng.int g 3 = 0 then Some small_geometry else None in
  { squeeze; straggler; distribution; geometry; adaptive = true }

(* ------------------------------------------------------------------ *)
(* Arming a plan against one run: the machine it builds, the policy that
   fires its faults, and the key draw. With [none] each is the plain
   run's: the default machine, [Runtime.random_policy] itself, and one
   uniform [Prng.int] per key. *)

let make_machine spec ~obs ~num_cores =
  let cfg = Config.default ~num_cores () in
  let cfg =
    match spec.geometry with
    | None -> cfg
    | Some { l1_sets_log2; l1_ways; l2_sets_log2; l2_ways } ->
        { cfg with l1_sets_log2; l1_ways; l2_sets_log2; l2_ways }
  in
  Machine.create ~obs cfg

(* Resample the machine's heat ({!Stats.heat} summed over all cores — a
   pure function of the simulation state, so adaptive decisions stay
   deterministic) every [heat_window] stalls (a full stats sum walks
   every core, so not per stall), and turn the delta into a straggler
   probability multiplier: m = 1 + min 7 (delta/4). A quiet machine
   injects at the base rate; a contention storm injects up to 8x more —
   the CoreSim-style "kick them while they're down" conditional. *)
let heat_window = 64

let multiplier_of_delta d = 1 + min 7 (d / 4)

let make_policy spec ~machine ~seed ~max_delay =
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

let draw_key spec ~range =
  match spec.distribution with
  | Uniform -> fun ~prng ~nth:_ -> Prng.int prng range
  | Zipfian { theta } ->
      (* rank = key: the hottest keys cluster at the low end of the key
         space (the front of a list, the leftmost leaves of a tree). *)
      let z = Zipf.create ~n:range ~theta in
      fun ~prng ~nth:_ -> Zipf.sample z prng
  | Flash_crowd { hot; period; duty } ->
      fun ~prng ~nth ->
        if nth mod period < duty then
          let phase = nth / period in
          ((phase * 7919) + Prng.int prng (min hot range)) mod range
        else Prng.int prng range

(* ------------------------------------------------------------------ *)
(* Compact round-tripping syntax, so a shrunk spec (which no seed
   generates) can still be named on the memtag_fuzz command line. *)

let to_string s =
  if is_none s then "plain"
  else begin
    let b = Buffer.create 64 in
    let sep () = if Buffer.length b > 0 then Buffer.add_char b ';' in
    (match s.squeeze with
    | Some { at; max_tags; hold } ->
        sep ();
        Buffer.add_string b (Printf.sprintf "squeeze=%d,%d,%d" at max_tags hold)
    | None -> ());
    (match s.straggler with
    | Some { prob; pause } ->
        sep ();
        Buffer.add_string b (Printf.sprintf "straggler=%g,%d" prob pause)
    | None -> ());
    (match s.distribution with
    | Uniform -> ()
    | Zipfian { theta } ->
        sep ();
        Buffer.add_string b (Printf.sprintf "dist=zipf,%g" theta)
    | Flash_crowd { hot; period; duty } ->
        sep ();
        Buffer.add_string b (Printf.sprintf "dist=flash,%d,%d,%d" hot period duty));
    (match s.geometry with
    | Some { l1_sets_log2; l1_ways; l2_sets_log2; l2_ways } ->
        sep ();
        Buffer.add_string b
          (Printf.sprintf "geom=%d,%d,%d,%d" l1_sets_log2 l1_ways l2_sets_log2
             l2_ways)
    | None -> ());
    if s.adaptive then begin
      sep ();
      Buffer.add_string b "adaptive"
    end;
    Buffer.contents b
  end

let of_string str =
  let fail fmt = Printf.ksprintf (fun m -> Error ("bad fault spec: " ^ m)) fmt in
  if str = "" || str = "plain" then Ok none
  else begin
    let parse_group acc group =
      match acc with
      | Error _ as e -> e
      | Ok acc -> (
          let key, args =
            match String.index_opt group '=' with
            | None -> (group, [])
            | Some i ->
                ( String.sub group 0 i,
                  String.split_on_char ','
                    (String.sub group (i + 1) (String.length group - i - 1)) )
          in
          let ints l = try Some (List.map int_of_string l) with _ -> None in
          match (key, args) with
          | "squeeze", l -> (
              match ints l with
              | Some [ at; max_tags; hold ] when at >= 0 && max_tags > 0 && hold > 0
                ->
                  Ok { acc with squeeze = Some { at; max_tags; hold } }
              | _ -> fail "squeeze=AT,MAX,HOLD expected in %S" group)
          | "straggler", [ p; pause ] -> (
              match (float_of_string_opt p, int_of_string_opt pause) with
              | Some prob, Some pause when prob >= 0.0 && prob <= 1.0 && pause >= 0
                ->
                  Ok { acc with straggler = Some { prob; pause } }
              | _ -> fail "straggler=PROB,PAUSE expected in %S" group)
          | "dist", [ "uniform" ] -> Ok { acc with distribution = Uniform }
          | "dist", [ "zipf"; th ] -> (
              match float_of_string_opt th with
              | Some theta when theta >= 0.0 ->
                  Ok { acc with distribution = Zipfian { theta } }
              | _ -> fail "dist=zipf,THETA expected in %S" group)
          | "dist", [ "flash"; h; p; d ] -> (
              match ints [ h; p; d ] with
              | Some [ hot; period; duty ] when hot > 0 && period > 0 && duty > 0
                ->
                  Ok { acc with distribution = Flash_crowd { hot; period; duty } }
              | _ -> fail "dist=flash,HOT,PERIOD,DUTY expected in %S" group)
          | "geom", l -> (
              (* The injector only shrinks caches: a size past the default
                 would make Cache.create allocate it. *)
              let d = Config.default () in
              let within v hi = v >= 0 && v <= hi in
              match ints l with
              | Some [ l1_sets_log2; l1_ways; l2_sets_log2; l2_ways ]
                when within l1_sets_log2 d.l1_sets_log2
                     && within l1_ways d.l1_ways && l1_ways > 0
                     && within l2_sets_log2 d.l2_sets_log2
                     && within l2_ways d.l2_ways && l2_ways > 0 ->
                  Ok
                    {
                      acc with
                      geometry =
                        Some { l1_sets_log2; l1_ways; l2_sets_log2; l2_ways };
                    }
              | _ ->
                  fail
                    "geom=L1SETS_LOG2,L1WAYS,L2SETS_LOG2,L2WAYS (at most %d,%d,%d,%d) \
                     expected in %S"
                    d.l1_sets_log2 d.l1_ways d.l2_sets_log2 d.l2_ways group)
          | "adaptive", [] -> Ok { acc with adaptive = true }
          | _ -> fail "unknown group %S" group)
    in
    List.fold_left parse_group (Ok none) (String.split_on_char ';' str)
  end
