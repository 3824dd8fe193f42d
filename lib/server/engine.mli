(** The incremental link engine.

    A long-lived value owning a {!Store.t} and the standard library
    archive. Compiled units and linked images are cached by content
    digest: a one-module edit recompiles that module only, and an
    unchanged program is a single image-cache hit. Every link that misses
    the image cache resolves, lifts and optimizes the whole program, as
    the one-shot pipeline does. The daemon wraps one engine; tests and the
    bench harness drive it in-process. *)

type t

val create : ?store:Store.t -> ?metrics:Obs.Metrics.t -> unit -> t
(** A fresh engine. [store] defaults to [Store.create ()] (which honours
    [$OMLT_STORE]); pass [Store.in_memory ()] for a hermetic engine.
    [metrics] defaults to {!Obs.Metrics.default}; pass a fresh registry
    to keep an engine's instruments isolated (tests do). The registry
    reads the store's counters where the store keeps them: one
    [omlt_store_<field>{kind=...}] counter per field of
    {!Store.counters} and kind in {!Store.all_kinds}, and
    [omlt_store_disk_ops_total] ({!Store.disk_ops}). An engine created
    later on the same registry replaces these readers with its own. *)

val store : t -> Store.t
val metrics : t -> Obs.Metrics.t

val warmup : t -> unit
(** Force the lazily-loaded standard library (and its digest) now.
    Forcing the same lazy concurrently from two domains raises, so
    anything about to share an engine across a worker pool — the daemon,
    the load harness — warms it first. *)

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

(** What one link reports. Store counters are process-wide and
    concurrent links share them, so a link reports none: read
    {!Store.counters}, or the daemon's [stats] reply, around a serial
    link instead. *)
type link_info = {
  li_level : string;  (** {!Om.target_name} of the parsed level *)
  li_image_bytes : string;
      (** the image's {!Store.Codec.image_to_string} encoding: the bytes
          stored under the image key and sent on the wire. A cold link
          encodes the image once; a hit passes on the store's payload. *)
  li_image_digest : string;  (** [Store.digest_string li_image_bytes] *)
  li_insns : int;
  li_elapsed_s : float;
  li_image_hit : bool;  (** the whole link was served from the image cache *)
}

val link :
  t -> ?entry:string -> level:string -> input list ->
  (Linker.Image.t * Om.Stats.t option * link_info, string) result
(** Link the inputs at [level] (["std"], ["noopt"], ["simple"], ["full"],
    ["sched"] or ["gc"], or any other spelling {!Om.target_of_string}
    accepts) against the standard library. An image-cache miss compiles
    what the store lacks, resolves, then runs {!Om.link_at}, so every
    image it stores has passed [Om.Verify]. [li_level] is the target's
    {!Om.target_name} (["standard"] for a standard link). [Om.Stats.t] is
    [None] for standard links and for image-cache hits. *)

val compile_unit : t -> input -> (Objfile.Cunit.t * bool, string) result
(** Compile (or fetch) one input; the boolean reports a cache hit. *)

val relink_timings :
  (string * string) list -> (Obs.Report.relink, string) result
(** A program's cold OM-full link (fresh in-memory store) against its warm
    relink after a one-module edit, from (module name, minic text) pairs:
    the program's entry in a report's [relinks], medians of [li_elapsed_s]
    over 5 pairs, each on a fresh engine whose libstd is ready before the
    clock starts. The daemon compiles each module separately, so this
    times the compile-each path. *)
