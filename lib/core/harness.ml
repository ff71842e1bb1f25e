open Mt_sim
module Obs = Mt_obs.Obs
module Series = Mt_obs.Series

let exec machine ?(seed = 0x5EED) ?(policy = Runtime.default_policy) ?series
    ?(cm = Mt_cm.Cm.immediate) ~threads f =
  if threads <= 0 || threads > Machine.num_cores machine then
    invalid_arg "Harness.exec: bad thread count";
  let obs = Machine.obs machine in
  if series <> None && not (Obs.enabled obs) then
    invalid_arg
      "Harness.exec: ?series needs a recording obs sink (retain:false ok)";
  (* The series observes this phase only: the counter baseline is the
     machine's state at entry, and the tap sees this phase's events and
     closes its windows as their times cross each boundary. *)
  Option.iter
    (fun s ->
      Series.attach s (fun () ->
          Stats.series_counters (Machine.total_stats machine));
      Obs.set_tap obs (Some (Series.feed s)))
    series;
  let master = Prng.create ~seed in
  (* Jitter streams come from a SEPARATE master so the per-core op
     streams are identical across policies: a policy comparison then
     measures contention management, not a resampled workload. Under
     [Immediate] no jitter stream exists and [master] advances exactly
     as it always did, so default-policy runs stay byte-identical to
     the pre-policy tree. *)
  let jitter_master =
    match cm with
    | Mt_cm.Cm.Immediate -> None
    | _ -> Some (Prng.create ~seed:(seed lxor 0x6A177E12))
  in
  let rt = Runtime.create () in
  for core = 0 to threads - 1 do
    let prng = Prng.split master in
    let cm =
      match jitter_master with
      | None -> Mt_cm.Cm.make cm ~core
      | Some jm -> Mt_cm.Cm.make ~prng:(Prng.split jm) cm ~core
    in
    Runtime.spawn rt (fun () -> f (Ctx.make machine ~cm ~rt ~core ~prng))
  done;
  Runtime.run ~policy ~obs rt;
  let duration = Runtime.clock rt in
  Option.iter
    (fun s ->
      Series.finish s ~time:duration;
      Obs.set_tap obs None)
    series;
  duration

let exec1 machine ?(seed = 0x5EED) f =
  let result = ref None in
  let (_ : int) =
    exec machine ~seed ~threads:1 (fun ctx -> result := Some (f ctx))
  in
  match !result with Some r -> r | None -> assert false
