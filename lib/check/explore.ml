open Mt_sim
open Mt_core

type params = {
  threads : int;
  ops : int;
  range : int;
  prefill : int;
  max_delay : int;
}

let default_params = { threads = 4; ops = 50; range = 12; prefill = 4; max_delay = 64 }

module type TARGET = sig
  include Mt_list.Set_intf.SET

  val audit : Machine.t -> t -> string list
end

let plain (module S : Mt_list.Set_intf.SET) : (module TARGET) =
  (module struct
    include S

    let audit _ _ = []
  end)

module type TREE = sig
  include Mt_list.Set_intf.SET

  val check : Machine.t -> t -> Mt_abtree.Checker.report
end

let tree (module T : TREE) : (module TARGET) =
  (module struct
    include T

    let audit m t = (T.check m t).errors
  end)

type failure = Violation of Linearize.violation | Unsound of string list

let pp_failure ppf = function
  | Violation v -> Linearize.pp_violation ppf v
  | Unsound errors ->
      Format.fprintf ppf
        "@[<v 2>final structure fails its structural check:@,%a@]"
        (Format.pp_print_list Format.pp_print_string)
        errors

type outcome = {
  seed : int;
  history : History.event array;
  init : int list;
  final : int list;
  duration : int;
  verdict : (unit, failure) result;
}

let run ?(obs = Mt_obs.Obs.null) ?(spec = Inject.none) (module S : TARGET)
    ~params ~seed =
  let p = params in
  let m = Inject.make_machine spec ~obs ~num_cores:p.threads in
  let s = Harness.exec1 m (fun ctx -> S.create ctx) in
  if p.prefill > 0 then
    Harness.exec1 m (fun ctx ->
        let g = Prng.create ~seed:(seed lxor 0x9E11F1) in
        for _ = 1 to p.prefill do
          ignore (S.insert ctx s (Prng.int g p.range))
        done);
  let init = S.to_list_unsafe m s in
  let h = History.create () in
  let policy = Inject.make_policy spec ~machine:m ~seed ~max_delay:p.max_delay in
  let draw_key = Inject.draw_key spec ~range:p.range in
  let duration =
    Harness.exec m ~seed ~policy ~threads:p.threads (fun ctx ->
        let g = Ctx.prng ctx in
        for nth = 0 to p.ops - 1 do
          let k = draw_key ~prng:g ~nth in
          ignore
            (match Prng.int g 4 with
            | 0 | 1 ->
                History.record h ctx (History.Insert k) (fun () ->
                    S.insert ctx s k)
            | 2 ->
                History.record h ctx (History.Delete k) (fun () ->
                    S.delete ctx s k)
            | _ ->
                History.record h ctx (History.Contains k) (fun () ->
                    S.contains ctx s k))
        done)
  in
  let final = S.to_list_unsafe m s in
  (* Every fuzzed run ends with a structural MESI/directory audit, so a
     cache or directory rewrite cannot silently break coherence even when
     the history still linearizes. Raises Failure on violation. *)
  Machine.check_coherence m;
  let history = History.events h in
  (* A history that linearizes must also leave a sound structure: a tree
     that stops rebalancing keeps set semantics but not its shape. *)
  let verdict =
    match Linearize.check_set ~init ~final history with
    | Error v -> Error (Violation v)
    | Ok () -> (
        match S.audit m s with [] -> Ok () | errors -> Error (Unsound errors))
  in
  { seed; history; init; final; duration; verdict }

(* Scan [lo, hi) in ascending order, stopping at the first violation. *)
let scan_range ~run ~lo ~hi =
  let rec go seed =
    if seed >= hi then None
    else
      let o : outcome = run ~seed in
      match o.verdict with Ok () -> go (seed + 1) | Error _ -> Some o
  in
  go lo

let sweep ?(jobs = 1) ?(start = 0) ?(spec_of = Fun.const Inject.none)
    (module S : TARGET) ~params ~seeds =
  let run ~seed = run ~spec:(spec_of seed) (module S) ~params ~seed in
  let hi = start + seeds in
  let first_failure =
    if jobs <= 1 || seeds <= 1 then scan_range ~run ~lo:start ~hi
    else begin
      (* Partition the seed space into contiguous ascending chunks, each
         scanned in order with early exit. The first chunk (in order)
         that reports a failure holds the globally smallest failing seed,
         so the verdict is identical to the sequential sweep — only
         wall-clock changes. Chunks outnumber domains for load balance. *)
      let chunks = min seeds (jobs * 4) in
      let ranges =
        List.init chunks (fun i ->
            (start + (i * seeds / chunks), start + ((i + 1) * seeds / chunks)))
      in
      Mt_par.Pool.map ~jobs (fun (lo, hi) -> scan_range ~run ~lo ~hi) ranges
      |> List.find_map Fun.id
    end
  in
  match first_failure with
  | None -> (seeds, None)
  | Some o -> (o.seed - start, Some o)
