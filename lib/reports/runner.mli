(** The parallel measurement-matrix runner.

    Fans the benchmark × build matrix over a {!Pool} of domains. Each
    task is an independent (compile, link, optimize, simulate) pipeline;
    results come back in task order, so a parallel run produces the same
    rows — bit-identical cycle counts and attribution — as a serial one,
    just faster. *)

type progress = {
  on_start : Workloads.Programs.benchmark -> Workloads.Suite.build -> unit;
  on_done :
    Workloads.Programs.benchmark ->
    Workloads.Suite.build ->
    (Obs.Report.bench, string) Stdlib.result ->
    unit;
}
(** Progress callbacks, invoked under a runner-internal mutex so
    terminal output from concurrent tasks never interleaves. *)

val silent : progress

val matrix :
  ?jobs:int ->
  ?progress:progress ->
  Workloads.Programs.benchmark list ->
  (Workloads.Programs.benchmark
  * Workloads.Suite.build
  * (Obs.Report.bench, string) Stdlib.result)
  list
(** Measure every benchmark under each of {!Workloads.Suite.all_builds}
    using up to [jobs] domains (default as {!Pool.map}). One row
    per (bench, build) task, in that deterministic order. A row with a
    fault is [Error] of its {!Measure.failure}: rows are all or
    nothing. *)

val results :
  (Workloads.Programs.benchmark
  * Workloads.Suite.build
  * (Obs.Report.bench, string) Stdlib.result)
  list ->
  Obs.Report.bench list
(** The successful rows, in order. *)

val report :
  ?tool:string ->
  (Workloads.Programs.benchmark
  * Workloads.Suite.build
  * (Obs.Report.bench, string) Stdlib.result)
  list ->
  Obs.Report.t
(** The {!Obs.Report} of the successful rows, with a snapshot of the
    default metrics registry (whose [omlt_pool_task_us] histogram is the
    pool's task latency). Simulates nothing. *)
