(** Log-bucketed histograms of non-negative integers (simulated cycles).

    Values below 16 are counted exactly; larger values land in one of 8
    sub-buckets per power of two, so any reported quantile is within 12.5%
    of the true sample (and exact at the recorded min/max). Adding a sample
    is O(1) with no allocation; the histogram is deterministic — same
    samples, same answers. *)

type t

val create : unit -> t

(** [add t v] records one sample; negative values clamp to 0. *)
val add : t -> int -> unit

val count : t -> int
val min_value : t -> int

(** Largest sample recorded (0 when empty). *)
val max_value : t -> int

val mean : t -> float

(** [percentile t p] for [p] in [0, 100]: the value at rank
    ceil(p/100*n), subject to bucket quantisation; [p >= 100] returns the
    exact max; an empty histogram returns 0. *)
val percentile : t -> float -> int

(** [merge ~into src] adds every sample of [src] into [into]. *)
val merge : into:t -> t -> unit

(** Summary object: count/min/p50/p90/p99/p999/max/mean/sum ("p999" is
    the 99.9th percentile — tail-latency reporting for the service
    layer; like every quantile it is subject to the 12.5% bucket
    quantisation bound above). *)
val to_json : t -> Json.t

(**/**)

(* Bucket math, exposed for the unit tests. *)
val bucket_of : int -> int
val bucket_low : int -> int
