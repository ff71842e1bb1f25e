type t = { cdf : float array }

let create ~n ~theta =
  if n <= 0 then invalid_arg "Zipf.create: n must be positive";
  if theta < 0.0 then invalid_arg "Zipf.create: theta must be non-negative";
  let w = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** theta)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i wi ->
      acc := !acc +. (wi /. total);
      cdf.(i) <- !acc)
    w;
  (* Guard against the running sum landing epsilon short of 1. *)
  cdf.(n - 1) <- 1.0;
  { cdf }

let n t = Array.length t.cdf

let pmf t i =
  if i < 0 || i >= n t then invalid_arg "Zipf.pmf: rank out of range";
  if i = 0 then t.cdf.(0) else t.cdf.(i) -. t.cdf.(i - 1)

(* Inverse-CDF sampling: the smallest rank whose cumulative mass exceeds
   the draw. One PRNG draw per sample, so samples interleave with other
   consumers of the same stream deterministically. *)
let sample t g =
  let u = Mt_sim.Prng.float g in
  let lo = ref 0 and hi = ref (n t - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.cdf.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo
