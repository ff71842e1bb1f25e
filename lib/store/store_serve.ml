module Serve = Mt_serve.Server

(* Open-loop traffic for the sharded store: each request's 62-bit payload
   deterministically selects a request class (point/txn/scan per the mix)
   and its keys, so a run is a pure function of the serve config. *)

type mix = { point_pct : int; txn_pct : int; scan_pct : int }

let mix ~point_pct ~txn_pct =
  if point_pct < 0 || txn_pct < 0 || point_pct + txn_pct > 100 then
    invalid_arg "Store_serve.mix: bad percentages";
  { point_pct; txn_pct; scan_pct = 100 - point_pct - txn_pct }

let mix_name m = Printf.sprintf "p%d-t%d-s%d" m.point_pct m.txn_pct m.scan_pct

type spec = {
  backend : (module Backend.S);
  shards : int;
  key_space : int;
  prefill : int;
  mix : mix;
  scan_width : int;
}

let spec ?(shards = 4) ?(key_space = 1 lsl 20) ?(prefill = 1024)
    ?(scan_width = 4096) ~backend ~mix () =
  if shards <= 0 then invalid_arg "Store_serve.spec: shards";
  if key_space < shards then invalid_arg "Store_serve.spec: key_space";
  if prefill < 0 || prefill > key_space then
    invalid_arg "Store_serve.spec: prefill";
  if scan_width <= 0 || scan_width > key_space then
    invalid_arg "Store_serve.spec: scan_width";
  { backend; shards; key_space; prefill; mix; scan_width }

let classes = [| "point"; "txn"; "scan" |]

(* The class index ([classes]) a payload decodes to under [spec]'s mix. *)
let classify spec payload =
  let c = payload mod 100 in
  if c < spec.mix.point_pct then 0
  else if c < spec.mix.point_pct + spec.mix.txn_pct then 1
  else 2

(* Sub-ops per transaction. *)
let txn_keys = 3

(* One LCG step per payload-derived field (the xorshift* multiplier,
   which fits OCaml's 63-bit ints); masking keeps it non-negative. *)
let lcg h = ((h * 2685821657736338717) + 1442695040888963407) land max_int

let op spec ctx store payload =
  let h = lcg payload in
  match classify spec payload with
  | 0 ->
      let k = h mod spec.key_space in
      let h = lcg h in
      let o = h mod 100 in
      if o < 34 then ignore (Store.insert ctx store k)
      else if o < 68 then ignore (Store.delete ctx store k)
      else ignore (Store.get ctx store k)
  | 1 ->
      let rec build i h acc =
        if i = 0 then List.rev acc
        else begin
          let h = lcg h in
          let k = h mod spec.key_space in
          let h = lcg h in
          let o =
            match h mod 3 with
            | 0 -> Store.Insert
            | 1 -> Store.Delete
            | _ -> Store.Get
          in
          build (i - 1) h ((k, o) :: acc)
        end
      in
      ignore (Store.txn ctx store (build txn_keys h []))
  | _ ->
      let lo = h mod (spec.key_space - spec.scan_width + 1) in
      ignore (Store.scan ctx store ~lo ~hi:(lo + spec.scan_width - 1))

let run ?obs ?make_policy spec (c : Serve.config) =
  let store = ref None in
  let setup ctx =
    let st =
      Store.create spec.backend ctx ~shards:spec.shards
        ~key_space:spec.key_space
    in
    (* Sparse seeded prefill through the point-op path; stats reset after
       so the measured counters cover the serving phase only. *)
    let g = Mt_sim.Prng.create ~seed:(c.seed + 1) in
    for _ = 1 to spec.prefill do
      ignore (Store.insert ctx st (Mt_sim.Prng.int g spec.key_space))
    done;
    Store.reset_stats st;
    store := Some st;
    st
  in
  let name = Printf.sprintf "store-%s" (Backend.name spec.backend) in
  (* Packed dispatch: set-up ran on core 0, so worker 0 starts with the
     prefilled shards in its caches and keeps them warm, while the other
     workers serve from cold ones (perfbench's store-open-loop at seed 1,
     under fixed priority: scan e2e p50 224 cycles on worker 0, 1,280 on
     worker 1). Waiting behind worker 0 is cheaper than that, so the
     others join only once the backlog exceeds their index. *)
  let r =
    Serve.run ?obs ?make_policy ~classes:(classes, classify spec)
      ~dispatch:Serve.Packed ~name ~setup ~op:(op spec) c
  in
  (r, Store.stats (Option.get !store))
