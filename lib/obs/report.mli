(** Machine-readable suite reports.

    A versioned JSON schema for benchmark-matrix results: per benchmark
    and build style, the standard link's cycle count plus one record per
    optimization level with cycles, static size, optimizer counters, and
    (optionally) the dynamic cycle-attribution buckets from {!Attr}. The
    bench harness writes [BENCH_report.json] in this schema, and
    [omlink suite --json] and [omlink stats --json] print it, so
    downstream tooling parses one format. Every {!bench} row of those
    three comes from one producer, [Reports.Measure.run_world].

    The schema is deliberately self-describing: {!of_json} refuses
    any document whose [schema_version] is not {!schema_version}, and
    {!to_json}/{!of_json} round-trip exactly. Besides the cycle counts a
    report optionally carries host throughput ([host], [std_host]),
    cold-vs-warm link-service timings ([relink]), the per-image size
    breakdown ([size], [std_size]) — the om-gc size story — the pool's
    task-latency quantiles ([latency]), a {!Metrics.to_json} registry
    snapshot ([metrics]), and the concurrent link-service load-test
    result ([load]). *)

val schema_version : int
(** The one version {!to_json} writes and {!of_json} reads (6). *)

type bucket = { insns : int; cycles : int }

type attribution = (string * bucket) list
(** category name (see {!Attr.category_name}) -> dynamic cost *)

type host = { wall_s : float; mips : float }
(** Host-side throughput of the simulation itself: wall-clock seconds
    and simulated millions of instructions per second. *)

type relink = { cold_s : float; warm_s : float }
(** Link-service timings for the same program: a cold link (empty
    artifact store) vs a warm incremental relink after a one-module
    edit (cached compiled units for every unchanged module). *)

type size = { text_bytes : int; data_bytes : int; gat_bytes : int }
(** Static image size: text segment bytes, data segment bytes (including
    the zero-filled tail), and the linked GAT's extent (a sub-range of
    data, counted separately because GAT reduction is the paper's
    headline size effect). Measured identically for standard and
    optimized links. *)

type run = {
  level : string;            (** {!Om.level_name}, e.g. ["om-full"] *)
  cycles : int;
  insns : int;
      (** instructions the simulation executed (static size is in
          [size]); 0 when the run faulted or the level failed to link *)
  improvement_pct : float;   (** dynamic cycles vs the standard link *)
  counters : (string * int) list;  (** optimizer statistics, flat *)
  attribution : attribution option;
  fault : string option;
      (** why the run has no numbers: ["simulation fault: ..."], or OM's
          ["om: ..."] when the level failed to link (then [counters] is
          empty and [size] absent) *)
  host : host option;
  size : size option;
}

type bench = {
  bench : string;
  build : string;
  std_cycles : int;
  std_insns : int;           (** instructions the standard image executed *)
  std_attribution : attribution option;
  std_fault : string option;  (** the standard image's simulation fault *)
  outputs_agree : bool;
      (** every level ran and printed the standard image's output *)
  runs : run list;
  std_host : host option;
  relink : relink option;
  std_size : size option;
}

type quantiles = {
  q_count : int;             (** samples behind the quantiles *)
  q_p50_us : int;
  q_p95_us : int;
  q_p99_us : int;
  q_max_us : int;
}
(** Latency quantiles in microseconds. *)

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
(** One load-generator run against the concurrent daemon. *)

type t = {
  tool : string;
  results : bench list;
  latency : quantiles option;
  metrics : Json.t option;     (** registry snapshot *)
  load : load option;
}

val make :
  ?tool:string -> ?latency:quantiles -> ?metrics:Json.t -> ?load:load ->
  bench list -> t
(** [tool] defaults to ["omlt"]. *)

val attribution_of_profile : Attr.t -> attribution
(** The whole-program category buckets of a profile. *)

val size_of_image : Linker.Image.t -> size
(** An image's text, data and GAT byte counts. *)

val to_json : t -> Json.t
val of_json : Json.t -> (t, string) result

val write : string -> t -> unit
val read : string -> (t, string) result
