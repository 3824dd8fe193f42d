(** Running the paper's measurement matrix.

    For one resolved program this produces one {!Obs.Report.bench} row:
    for the standard link and each optimization level, the simulated
    cycle and executed-instruction counts with their attribution, the
    image's size and (for a level) the optimizer's static statistics,
    and whether the program output is bit-identical to the standard
    link's. Every frontend that measures a
    program at every level reads these rows: [omlink suite], [omlink
    bench], [omlink stats] and [BENCH_report.json]. *)

val run_world :
  bench:string -> build:string -> Linker.Resolve.t ->
  (Obs.Report.bench, string) Stdlib.result
(** Link one image per {!Om.targets} through {!Om.link_at}, and
    simulate each once, as the text its verifier decoded, under the
    {!Obs.Attr} profiler: cycles, executed instructions, output and
    attribution come from that one run, and [wall_s] times it. The
    row's runs are the targets' in {!Om.targets} order, the standard
    link's (at {!Obs.Report.standard_level}) first. [Error] only when
    the standard link fails, [Om.Verify] included.

    A level whose OM link fails carries OM's message in [fault], no
    counters, no size and 0 cycles and instructions. An image whose
    simulation faults carries ["simulation fault: ..."] in its [fault],
    keeps its counters and size, and has no attribution and no host
    time. [outputs_agree] holds only when every level ran and printed
    the standard image's output. *)

val run_benchmark :
  Workloads.Suite.build -> Workloads.Programs.benchmark ->
  (Obs.Report.bench, string) Stdlib.result
(** Resolve the benchmark, then {!run_world} under its name and
    {!Workloads.Suite.build_name}. *)

val failure : Obs.Report.bench -> string option
(** A row's first fault, in run order: the standard image's first. *)

val improvement : Obs.Report.bench -> Om.level -> float
(** {!Obs.Report.improvement} of a level's run; 0 when the row has no
    such run. *)

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
