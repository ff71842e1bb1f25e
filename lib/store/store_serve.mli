(** Open-loop serve-layer traffic for the sharded store: a request-kind
    mix (point/txn/scan percentages) decoded deterministically from each
    request's payload, so a run is a pure function of the serve config —
    byte-identical for any [--jobs] and with tracing on or off. *)

(** A request-kind mix; the three percentages sum to 100. *)
type mix = { point_pct : int; txn_pct : int; scan_pct : int }

(** [mix ~point_pct ~txn_pct] — scan gets the remainder. *)
val mix : point_pct:int -> txn_pct:int -> mix

(** E.g. ["p80-t15-s5"]. *)
val mix_name : mix -> string

type spec = {
  backend : (module Backend.S);
  shards : int;
  key_space : int;
  prefill : int;  (** seeded keys inserted before serving *)
  mix : mix;
  scan_width : int;  (** keys covered by one range scan *)
}

(** Defaults: 4 shards, 2^20 keys, 1024 prefilled, 4096-wide scans.
    Every transaction touches 3 keys. *)
val spec :
  ?shards:int ->
  ?key_space:int ->
  ?prefill:int ->
  ?scan_width:int ->
  backend:(module Backend.S) ->
  mix:mix ->
  unit ->
  spec

(** Request-class labels for the serve layer's per-class latency
    breakdown: [[| "point"; "txn"; "scan" |]]. *)
val classes : string array

(** [run ?obs ?make_policy spec config] serves the mixed workload against
    a store built in setup (with seeded prefill) on the serve layer's
    default machine; returns the serve result (including the per-class
    latency breakdown) and the store's operation counters for the serving
    phase. [obs] and [make_policy] are as in {!Mt_serve.Server.run}.

    Set-up (creation and prefill) runs on core 0, which is worker 0, so
    worker 0 starts with the shards in its caches and every other worker
    starts cold. The run therefore uses
    [Packed] dispatch ({!Mt_serve.Server.dispatch}): worker [w] takes
    requests only while more than [w] are queued, so low load stays on
    the warm worker and the others join as the backlog grows (DESIGN
    §9). *)
val run :
  ?obs:Mt_obs.Obs.t ->
  ?make_policy:(Mt_sim.Machine.t -> Mt_sim.Runtime.policy) ->
  spec ->
  Mt_serve.Server.config ->
  Mt_serve.Server.result * Store.stats
