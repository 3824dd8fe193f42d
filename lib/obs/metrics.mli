(** Domain-safe live metrics registry.

    Instruments are registered by name + labels; re-registering the
    same (name, labels) pair returns the existing instrument, so any
    code path (or domain) can mint its handle independently. Counters
    and gauges are lock-free atomics; histograms serialize observations
    through a per-histogram mutex.

    Latency histograms use log-linear buckets (HdrHistogram style):
    every integer value below 256 has its own bucket, and above that
    the relative width is bounded by 2/256. Quantiles are extracted by
    exact rank over the bucket counts; for observations below 256 (and
    for the maximum, always) the reported quantile equals the true
    sample value. *)

type t
(** A registry. *)

val create : unit -> t
(** A fresh, empty registry (for tests and isolated engines). *)

val default : t
(** The process-wide registry used by the daemon, pool and suite
    instrumentation. *)

(** {1 Instruments} *)

type counter
type gauge
type histogram

val counter :
  ?registry:t -> ?labels:(string * string) list -> ?help:string -> string ->
  counter
(** Get or create a monotonic counter. Raises [Invalid_argument] if the
    name is already registered as a different instrument kind. *)

val gauge :
  ?registry:t -> ?labels:(string * string) list -> ?help:string -> string ->
  gauge

val histogram :
  ?registry:t -> ?labels:(string * string) list -> ?help:string -> string ->
  histogram

val incr : ?by:int -> counter -> unit

val set_counter : counter -> int -> unit
(** Overwrite the value; used to mirror externally-maintained monotonic
    counts (e.g. [Store.counters]) into the registry. *)

val counter_value : counter -> int
val set_gauge : gauge -> float -> unit
val add_gauge : gauge -> float -> unit

val observe : histogram -> int -> unit
(** Record a non-negative integer sample (negative values clamp to 0). *)

val observe_s : histogram -> float -> unit
(** Record a duration given in seconds, as rounded microseconds. *)

val time : histogram -> (unit -> 'a) -> 'a
(** Run the thunk and record its wall-clock duration (microseconds),
    whether it returns or raises. *)

(** {1 Reading} *)

type summary = {
  count : int;
  sum : int;
  min : int;
  max : int;
  p50 : int;
  p95 : int;
  p99 : int;
}

val summary : histogram -> summary

(** {1 Exposition} *)

val to_json : t -> Json.t
(** Snapshot: [{"counters":[...],"gauges":[...],"histograms":[...]}],
    each item carrying name, labels and current values; histograms also
    carry count/sum/min/max/p50/p95/p99 and their non-empty buckets. *)

val to_prometheus : t -> string
(** Prometheus text exposition: HELP/TYPE headers, cumulative
    [_bucket{le=...}] rows over non-empty buckets, [_sum]/[_count], and
    p50/p95/p99 as [quantile] rows. *)

(** {1 Bucket layout (exposed for tests)} *)

val bucket_index : int -> int
val bucket_lower : int -> int
