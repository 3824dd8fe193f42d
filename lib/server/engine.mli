(** The incremental link engine.

    A long-lived value owning a {!Store.t} and the standard library
    archive; every compile/lift/link artifact it produces is cached by
    content digest, so repeated links only redo the work whose inputs
    changed. The daemon wraps one engine; tests and the bench harness
    drive it in-process. *)

type t

val create : ?store:Store.t -> ?metrics:Obs.Metrics.t -> unit -> t
(** A fresh engine. [store] defaults to [Store.create ()] (which honours
    [$OMLT_STORE]); pass [Store.in_memory ()] for a hermetic engine.
    [metrics] defaults to {!Obs.Metrics.default}; pass a fresh registry
    to keep an engine's instruments isolated (tests do). *)

val store : t -> Store.t
val metrics : t -> Obs.Metrics.t

val warmup : t -> unit
(** Force the lazily-loaded standard library (and its digest) now.
    Forcing the same lazy concurrently from two domains raises, so
    anything about to share an engine across a worker pool — the daemon,
    the load harness — warms it first. *)

val sync_store_metrics : t -> unit
(** Mirror the store's per-kind counters into the metrics registry as
    [omlt_store_*{kind=...}] counters. Exposition paths call this just
    before snapshotting. *)

val uptime_s : t -> float

val count_request : t -> int
(** Bump and return the served-request counter (the daemon calls this
    once per request; [stats] reports it). *)

type input =
  | Source of { name : string; text : string }
      (** minic source; compiled (and the result cached) by the engine *)
  | Object of { name : string; bytes : string }
      (** an already-serialized object module *)

val input_of_file : string -> (input, string) result
(** Classify by extension: [.mc] is source, anything else must hold a
    serialized object module. *)

type level = Std | Om of Om.level

val level_of_string : string -> (level, string) result
(** ["std"] or anything {!Om.level_of_string} accepts. The one level
    parser of the daemon protocol and the [omlink] command line. *)

val level_name : level -> string

type link_info = {
  li_level : string;
  li_image_bytes : string;
      (** the image's {!Store.Codec.image_to_string} encoding: the bytes
          stored under the image key and sent on the wire. A cold link
          encodes the image once; a hit passes on the store's payload. *)
  li_image_digest : string;  (** [Store.digest_string li_image_bytes] *)
  li_insns : int;
  li_elapsed_s : float;
  li_image_hit : bool;  (** the whole link was served from the image cache *)
  li_cunit : Store.counters;
  li_lifted : Store.counters;
  li_image : Store.counters;
      (** the three counter fields are per-request deltas, not totals *)
  li_disk_ops : int;
      (** filesystem operations this link caused; 0 proves the request
          was served entirely from memory *)
}

val info_counters_json : link_info -> Obs.Json.t

val link :
  t -> ?entry:string -> level:string -> input list ->
  (Linker.Image.t * Om.Stats.t option * link_info, string) result
(** Link the inputs at [level] (["std"], ["noopt"], ["simple"], ["full"],
    ["sched"] or ["gc"], or any other spelling {!level_of_string}
    accepts) against the standard library. OM levels run
    {!Om.optimize_resolved} with a lifter backed by the store, so only
    modules whose content changed are re-lifted. [Om.Stats.t] is [None]
    for std links and for image-cache hits. *)

val link_files :
  t -> ?entry:string -> level:string -> string list ->
  (Linker.Image.t * Om.Stats.t option * link_info, string) result

val compile_unit : t -> input -> (Objfile.Cunit.t * bool, string) result
(** Compile (or fetch) one input; the boolean reports a cache hit. *)

val relink_timings :
  ?level:string -> Workloads.Programs.benchmark ->
  (Obs.Report.relink, string) result
(** Measure a benchmark's cold link (fresh in-memory store) against the
    warm relink after a one-module edit — the schema-v3 [relink] report
    field, read from each link's [li_elapsed_s]. *)
