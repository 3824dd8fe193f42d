(** Machine-readable suite reports.

    A versioned JSON schema for benchmark-matrix results: per benchmark
    and build style, one run per link — the standard link first, at
    level {!standard_level}, then one per optimization level — each with
    cycles, executed instructions, static size, optimizer counters, and
    (optionally) the dynamic cycle-attribution buckets from {!Attr}. The
    bench harness writes [BENCH_report.json] in this schema, and
    [omlink suite --json] and [omlink stats --json] print it, so
    downstream tooling parses one format. Every {!bench} row of those
    three comes from one producer, [Reports.Measure.run_world].

    Each measured fact is stored once; what follows from stored numbers
    ({!improvement}, {!mips}, {!throughput}) is computed here, not
    stored. The schema is deliberately self-describing: {!of_json}
    refuses any document whose [schema_version] is not {!schema_version},
    and {!to_json}/{!of_json} round-trip exactly. Besides the runs a
    report optionally carries cold-vs-warm link-service timings per
    program ([relinks]), a {!Metrics.to_json} registry snapshot
    ([metrics], whose [omlt_pool_task_us] histogram is the matrix's task
    latency), and the concurrent link-service load-test result
    ([load]). *)

val schema_version : int
(** The one version {!to_json} writes and {!of_json} reads (7). *)

val standard_level : string
(** The level of a row's standard-link run (["standard"]). *)

type bucket = { insns : int; cycles : int }

type attribution = (string * bucket) list
(** category name (see {!Attr.category_name}) -> dynamic cost *)

type relink = { cold_s : float; warm_s : float }
(** Link-service timings for one program: a cold link (empty artifact
    store) vs a warm incremental relink after a one-module edit (cached
    compiled units for every unchanged module). *)

type size = { text_bytes : int; data_bytes : int; gat_bytes : int }
(** Static image size: text segment bytes, data segment bytes (including
    the zero-filled tail), and the linked GAT's extent (a sub-range of
    data, counted separately because GAT reduction is the paper's
    headline size effect). Measured identically for standard and
    optimized links. *)

type run = {
  level : string;
      (** {!standard_level} or {!Om.level_name}, e.g. ["om-full"] *)
  cycles : int;
  insns : int;
      (** instructions the simulation executed (static size is in
          [size]); 0 when the run faulted or the level failed to link *)
  counters : (string * int) list;
      (** optimizer statistics, flat; empty for the standard link *)
  attribution : attribution option;
  fault : string option;
      (** why the run has no numbers: ["simulation fault: ..."], or OM's
          ["om: ..."] when the level failed to link (then [counters] is
          empty and [size] absent) *)
  wall_s : float option;
      (** host seconds the simulation took; absent when it faulted *)
  size : size option;
}

type bench = {
  bench : string;
  build : string;
  outputs_agree : bool;
      (** every level ran and printed the standard image's output *)
  runs : run list;  (** the standard link's run first *)
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
  l_workers : int;           (** daemon worker domains (0 = unknown) *)
  l_requests : int;          (** requests offered *)
  l_ok : int;
  l_failed : int;
      (** hard failures: error replies that are neither [overloaded] nor
          [timeout], or broken connections *)
  l_overloaded : int;        (** [overloaded] replies seen, retries included *)
  l_timeouts : int;
  l_coalesced : int;         (** replies marked deduplicated in-flight *)
  l_image_hits : int;        (** replies served from the image cache *)
  l_mismatched : int;        (** image bytes differing from the oracle *)
  l_wall_s : float;
  l_latency : quantiles;     (** per-request round-trip latency *)
}
(** One load-generator run against the concurrent daemon. *)

type t = {
  tool : string;
  results : bench list;
  relinks : (string * relink) list;  (** program name -> its timings *)
  metrics : Json.t option;     (** registry snapshot *)
  load : load option;
}

val make :
  ?tool:string -> ?relinks:(string * relink) list -> ?metrics:Json.t ->
  ?load:load -> bench list -> t
(** [tool] defaults to ["omlt"], [relinks] to none. *)

val find_run : bench -> string -> run option
(** The row's run at a level. *)

val improvement : bench -> run -> float
(** Percent dynamic cycles a run saves over its row's standard run:
    [100 * (std - cycles) / std]; 0 when the row has no standard run
    with cycles, or either run faulted. *)

val mips : run -> float option
(** Simulated millions of instructions per host second; [None] without
    a positive [wall_s]. *)

val throughput : load -> float
(** Successful requests per wall-clock second. *)

val attribution_of_profile : Attr.t -> attribution
(** The whole-program category buckets of a profile. *)

val size_of_image : Linker.Image.t -> size
(** An image's text, data and GAT byte counts. *)

val to_json : t -> Json.t

val bench_json : bench -> Json.t
val run_json : run -> Json.t
(** One row, and one run, as {!to_json} writes them. *)

val of_json : Json.t -> (t, string) result

val write : string -> t -> unit
val read : string -> (t, string) result
