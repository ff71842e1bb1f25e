(** Per-core event counters and the derived energy model.

    The caches and directory only track coherence {e state}; the actual data
    always lives in {!Memory}. Consequently performance numbers are derived
    purely from these counters plus the simulated clock. *)

type t = {
  mutable loads : int;
  mutable stores : int;
  mutable cas_ops : int;
  mutable cas_failures : int;
  mutable vas_ops : int;
  mutable vas_failures : int;          (** VAS that failed validation locally *)
  mutable ias_ops : int;
  mutable ias_failures : int;
  mutable l1_hits : int;
  mutable l1_misses : int;
  mutable l2_hits : int;
  mutable l2_misses : int;             (** accesses that went to the directory *)
  mutable invalidations_sent : int;    (** lines invalidated at remote cores *)
  mutable invalidations_received : int;
  mutable tag_probes_sent : int;
      (** remote tag units interrogated by this core's IAS invalidation
          rounds — one per remote tagger probed, whether or not the victim
          still held a cached copy. [lat_inval_per_sharer] is charged per
          probe, so this is the counter the IAS latency formula follows;
          [invalidations_sent] only counts probes that also killed a cached
          copy. *)
  mutable tag_probes_received : int;
      (** IAS probes that reached this core's tag unit *)
  mutable downgrades_received : int;
  mutable writebacks : int;
  mutable coherence_msgs : int;        (** directory transactions + remote hops *)
  mutable tag_adds : int;
  mutable tag_removes : int;
  mutable validates : int;
  mutable validate_failures : int;
  mutable validate_failures_spurious : int;
      (** validation failures caused only by capacity evictions or tag-set
          overflow, never by a real remote conflict *)
  mutable tag_overflows : int;
  mutable busy_cycles : int;           (** cycles this core spent stalled/working *)
  mutable cm_waits : int;
      (** contention-policy waits imposed on this core (non-immediate
          policies only; the [Immediate] baseline never counts here) *)
  mutable cm_wait_cycles : int;        (** total cycles of those waits *)
}

val create : unit -> t

val reset : t -> unit

(** [sum ts] is a fresh aggregate of all counters. *)
val sum : t array -> t

(** Contention temperature: failed validations + failed CAS/VAS/IAS +
    received invalidations. The adversary's load-adaptive rule and the
    telemetry windows both read this one definition. *)
val heat : t -> int

(** The cumulative counters {!Mt_obs.Series} snapshots at window
    boundaries; its [Heat] is {!heat}. *)
val series_counters : t -> Mt_obs.Series.counters

(** L1 miss rate in [0,1]; 0 if there were no accesses. *)
val l1_miss_rate : t -> float

(** [energy cfg t ~cycles] evaluates the event-count energy model of
    {!Config}: dynamic energy per L1/L2/directory access and per coherence
    message, plus static leakage over [cycles] core-cycles. *)
val energy : Config.t -> t -> cycles:int -> float

val pp : Format.formatter -> t -> unit
