type t = {
  key_range : int;
  init_fill : float;
  insert_pct : int;
  delete_pct : int;
  threads : int;
  warmup_cycles : int;
  measure_cycles : int;
  seed : int;
}

let make ?(warmup_cycles = 30_000) ?(measure_cycles = 150_000) ?(seed = 1)
    ~key_range ~insert_pct ~delete_pct ~threads () =
  if key_range <= 0 then invalid_arg "Spec.make: key_range must be positive";
  if insert_pct < 0 || delete_pct < 0 || insert_pct + delete_pct > 100 then
    invalid_arg "Spec.make: bad operation mix";
  if threads <= 0 || threads > 64 then invalid_arg "Spec.make: bad thread count";
  if warmup_cycles < 0 then invalid_arg "Spec.make: negative warmup_cycles";
  if measure_cycles <= 0 then
    invalid_arg "Spec.make: measure_cycles must be positive";
  { key_range; init_fill = 0.5; insert_pct; delete_pct; threads; warmup_cycles;
    measure_cycles; seed }

let to_string t =
  Printf.sprintf "%di/%dd/%dc r%d t%d" t.insert_pct t.delete_pct
    (100 - t.insert_pct - t.delete_pct)
    t.key_range t.threads
