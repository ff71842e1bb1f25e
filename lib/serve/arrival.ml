open Mt_sim

type process = Poisson

type t = {
  rate_per_cycle : float;
  prng : Prng.t;
  mutable clock : float;  (* absolute time of the last arrival generated *)
}

let create ~process:Poisson ~rate_per_kcycle ~seed =
  if not (rate_per_kcycle > 0.0) then
    invalid_arg "Arrival.create: rate must be positive";
  {
    rate_per_cycle = rate_per_kcycle /. 1000.0;
    prng = Prng.create ~seed;
    clock = 0.0;
  }

(* Exponential gap with the given rate (events per cycle). [Prng.float] is
   in [0,1), so [1 - u] is in (0,1] and the log is finite. *)
let exp_gap prng rate = -.log (1.0 -. Prng.float prng) /. rate

let next t =
  t.clock <- t.clock +. exp_gap t.prng t.rate_per_cycle;
  int_of_float t.clock

let process_name Poisson = "poisson"
