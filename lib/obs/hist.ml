(* Log-bucketed histogram of non-negative integer samples (simulated
   cycles). Values below 16 land in exact buckets; above that, each octave
   is split into 8 sub-buckets, bounding the relative quantisation error at
   12.5%. All state is plain ints — adding a sample is two array ops. *)

let n_buckets = 512

type t = {
  counts : int array;
  mutable n : int;
  mutable sum : int;
  mutable min_v : int;
  mutable max_v : int;
}

let create () =
  { counts = Array.make n_buckets 0; n = 0; sum = 0; min_v = max_int; max_v = 0 }

(* Index of the most significant set bit; [v] must be positive. *)
let msb v =
  let r = ref 0 and x = ref v in
  while !x > 1 do
    incr r;
    x := !x lsr 1
  done;
  !r

let bucket_of v =
  if v < 16 then v
  else
    let m = msb v in
    let sub = (v lsr (m - 3)) land 7 in
    8 + ((m - 3) * 8) + sub

(* Inclusive lower bound of bucket [b] (its representative value). *)
let bucket_low b =
  if b < 16 then b
  else
    let m = 3 + ((b - 8) / 8) in
    let sub = (b - 8) mod 8 in
    (1 lsl m) lor (sub lsl (m - 3))

let add t v =
  let v = if v < 0 then 0 else v in
  t.counts.(bucket_of v) <- t.counts.(bucket_of v) + 1;
  t.n <- t.n + 1;
  t.sum <- t.sum + v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let count t = t.n
let max_value t = t.max_v
let min_value t = if t.n = 0 then 0 else t.min_v
let mean t = if t.n = 0 then 0.0 else float_of_int t.sum /. float_of_int t.n

let merge ~into src =
  for i = 0 to n_buckets - 1 do
    into.counts.(i) <- into.counts.(i) + src.counts.(i)
  done;
  into.n <- into.n + src.n;
  into.sum <- into.sum + src.sum;
  if src.n > 0 then begin
    if src.min_v < into.min_v then into.min_v <- src.min_v;
    if src.max_v > into.max_v then into.max_v <- src.max_v
  end

(* [percentile t p] — the lower bound of the bucket holding the sample of
   rank ceil(p/100 * n), clamped into [min, max] so single-sample and
   extreme queries are exact. Empty histogram: 0. *)
let percentile t p =
  if t.n = 0 then 0
  else if p >= 100.0 then t.max_v
  else begin
    let p = if p < 0.0 then 0.0 else p in
    let rank =
      let r = int_of_float (ceil (p /. 100.0 *. float_of_int t.n)) in
      if r < 1 then 1 else r
    in
    let result = ref t.max_v in
    (try
       let cum = ref 0 in
       for b = 0 to n_buckets - 1 do
         cum := !cum + t.counts.(b);
         if !cum >= rank then begin
           result := bucket_low b;
           raise Exit
         end
       done
     with Exit -> ());
    let v = !result in
    let v = if v < t.min_v then t.min_v else v in
    if v > t.max_v then t.max_v else v
  end

let to_json t =
  Json.Obj
    [
      ("count", Json.Int t.n);
      ("min", Json.Int (min_value t));
      ("p50", Json.Int (percentile t 50.0));
      ("p90", Json.Int (percentile t 90.0));
      ("p99", Json.Int (percentile t 99.0));
      ("p999", Json.Int (percentile t 99.9));
      ("max", Json.Int t.max_v);
      ("mean", Json.Float (mean t));
      ("sum", Json.Int t.sum);
    ]
