(** Running the paper's measurement matrix.

    For one resolved program this produces one {!Obs.Report.bench} row:
    per optimization level, the optimizer's static statistics, the
    simulated cycle and executed-instruction counts with their
    attribution, the image's size, and whether the program output is
    bit-identical to the standard link's. Every frontend that measures a
    program at every level reads these rows: [omlink suite], [omlink
    bench], [omlink stats] and [BENCH_report.json]. *)

val run_world :
  bench:string -> build:string -> Linker.Resolve.t ->
  (Obs.Report.bench, string) Stdlib.result
(** Link the standard image and one image per {!Om.all_levels}, and
    simulate each once under the {!Obs.Attr} profiler: cycles, executed
    instructions, output and attribution come from that one run, and
    [host] times it. [Error] only when the standard link fails.

    A level whose OM link fails carries OM's message in [fault], no
    counters, no size and 0 cycles and instructions. An image whose
    simulation faults carries ["simulation fault: ..."] in its [fault]
    (or the row's [std_fault]), keeps its counters and size, and has no
    attribution and no host time. Improvements are 0 when either side
    faulted, and [outputs_agree] holds only when every level ran and
    printed the standard image's output. *)

val run_benchmark :
  Workloads.Suite.build -> Workloads.Programs.benchmark ->
  (Obs.Report.bench, string) Stdlib.result
(** Resolve the benchmark, then {!run_world} under its name and
    {!Workloads.Suite.build_name}. *)

val failure : Obs.Report.bench -> string option
(** A row's first fault: the standard image's, then each level's in
    {!Om.all_levels} order. *)

val improvement : Obs.Report.bench -> Om.level -> float
(** Percent cycle improvement of a level over the standard link. *)

val stats_of : Obs.Report.bench -> Om.level -> Om.Stats.t option
(** A level's optimizer statistics, read back from its [counters]. *)

type timing = {
  t_std_link : float;       (** standard link, seconds *)
  t_interproc : float;      (** compile-all from source + standard link *)
  t_om : (Om.level * float) list;
      (** one entry per {!Om.all_levels}, in that order *)
}

val time_builds :
  Workloads.Programs.benchmark -> (timing, string) Stdlib.result
(** Wall-clock the build paths of the paper's Figure 7: standard link,
    interprocedural build, and one OM link per level in {!Om.all_levels}
    (objects are pre-compiled for every column except the
    interprocedural build, which compiles from source). Uses wall time,
    so the numbers stay meaningful when other domains are busy. A build
    path that fails surfaces as [Error] (not [failwith]) so callers can
    fail one benchmark's row. *)
