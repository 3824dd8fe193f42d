(** Machine-readable suite reports.

    A versioned JSON schema for benchmark-matrix results: per benchmark
    and build style, the standard link's cycle count plus one record per
    optimization level with cycles, static size, optimizer counters, and
    (optionally) the dynamic cycle-attribution buckets from {!Attr}. The
    bench harness writes [BENCH_report.json] in this schema and
    [omlink suite --json] prints it, so downstream tooling (and future
    PRs tracking the perf trajectory) parse one format.

    The schema is deliberately self-describing: {!of_json} refuses
    documents whose [schema_version] it does not understand, and
    {!to_json}/{!of_json} round-trip exactly. Version 2 added the
    optional host-throughput fields ([host], [std_host]); version 3
    added the optional cold-vs-warm link-service timings ([relink]);
    version 4 added the optional top-level [latency] quantiles (pool
    task latency over the whole matrix) and [metrics], a full
    {!Metrics.to_json} registry snapshot; version 5 added the optional
    per-image size breakdown ([size] on each run, [std_size] on each
    bench) so per-level text/data/GAT byte counts — the om-gc size
    story — live in the same document as the cycle counts; version 6
    added the optional top-level [load] record, the concurrent
    link-service load-test result (throughput, latency quantiles,
    coalesce/shed/failure counts vs worker count). The reader still
    accepts earlier documents, surfacing those fields as [None]. *)

val schema_version : int
(** The version {!make} stamps on new reports (currently 6). *)

type bucket = { insns : int; cycles : int }

type attribution = (string * bucket) list
(** category name (see {!Attr.category_name}) -> dynamic cost *)

type host = { wall_s : float; mips : float }
(** Host-side throughput of the simulation itself: wall-clock seconds
    and simulated millions of instructions per second. *)

type relink = { cold_s : float; warm_s : float }
(** Link-service timings for the same program: a cold link (empty
    artifact store) vs a warm incremental relink after a one-module
    edit (cached lifts for every unchanged module). *)

type size = { text_bytes : int; data_bytes : int; gat_bytes : int }
(** Static image size: text segment bytes, data segment bytes (including
    the zero-filled tail), and the linked GAT's extent (a sub-range of
    data, counted separately because GAT reduction is the paper's
    headline size effect). Measured identically for standard and
    optimized links. *)

type run = {
  level : string;            (** {!Om.level_name}, e.g. ["om-full"] *)
  cycles : int;
  insns : int;               (** static text instructions *)
  improvement_pct : float;   (** dynamic cycles vs the standard link *)
  counters : (string * int) list;  (** optimizer statistics, flat *)
  attribution : attribution option;
  fault : string option;     (** simulation fault, when the run died *)
  host : host option;        (** absent in v1 documents *)
  size : size option;        (** absent before v5 *)
}

type bench = {
  bench : string;
  build : string;
  std_cycles : int;
  std_insns : int;
  std_attribution : attribution option;
  std_fault : string option;
  outputs_agree : bool;
  runs : run list;
  std_host : host option;    (** absent in v1 documents *)
  relink : relink option;    (** absent before v3 *)
  std_size : size option;    (** absent before v5 *)
}

type quantiles = {
  q_count : int;             (** samples behind the quantiles *)
  q_p50_us : int;
  q_p95_us : int;
  q_p99_us : int;
  q_max_us : int;
}
(** Latency quantiles in microseconds (absent before v4). *)

type load = {
  l_profile : string;        (** request mix: ["cold"], ["dup"], ["mixed"] *)
  l_level : string;          (** link level the requests asked for *)
  l_clients : int;           (** concurrent client threads *)
  l_workers : int;           (** daemon worker domains *)
  l_requests : int;          (** requests offered *)
  l_ok : int;
  l_failed : int;            (** hard failures (not shed, not timed out) *)
  l_overloaded : int;        (** shed with a structured [overloaded] *)
  l_timeouts : int;
  l_coalesced : int;         (** replies marked deduplicated in-flight *)
  l_mismatched : int;        (** image bytes differing from the oracle *)
  l_wall_s : float;
  l_throughput_rps : float;  (** completed requests per wall second *)
  l_latency : quantiles;     (** per-request round-trip latency *)
}
(** One load-generator run against the concurrent daemon (absent
    before v6). *)

type t = {
  version : int;
  tool : string;
  results : bench list;
  latency : quantiles option;  (** absent before v4 *)
  metrics : Json.t option;     (** registry snapshot; absent before v4 *)
  load : load option;          (** absent before v6 *)
}

val make :
  ?tool:string -> ?latency:quantiles -> ?metrics:Json.t -> ?load:load ->
  bench list -> t
(** [tool] defaults to ["omlt"]. [version] is {!schema_version}. *)

val attribution_of_profile : Attr.t -> attribution
(** The whole-program category buckets of a profile. *)

val size_of_image : Linker.Image.t -> size
(** An image's text, data and GAT byte counts. *)

val to_json : t -> Json.t
val of_json : Json.t -> (t, string) result

val write : string -> t -> unit
val read : string -> (t, string) result
