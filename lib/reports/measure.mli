(** Running the paper's measurement matrix.

    For one benchmark and build style this produces, per optimization
    level: the optimizer's static statistics, the simulated dynamic cycle
    count with its attribution, the image's size, and a check that the
    program output is bit-identical to the standard link's. *)

type run = {
  level : Om.level;
  stats : Om.Stats.t;
  cycles : int;
  insns : int;
  output : string;
  attribution : Obs.Report.attribution;
      (** where [cycles] went, from the same simulation *)
  size : Obs.Report.size;
  wall_s : float;           (** host wall-clock seconds of the simulation *)
  mips : float;             (** simulated million instructions / second *)
}

type result = {
  bench : string;
  build : Workloads.Suite.build;
  std_cycles : int;
  std_insns : int;
  std_output : string;
  std_attribution : Obs.Report.attribution;
  std_size : Obs.Report.size;
  runs : run list;          (** one per {!Om.all_levels} *)
  outputs_agree : bool;
  std_wall_s : float;
  std_mips : float;
}

val run_benchmark :
  Workloads.Suite.build -> Workloads.Programs.benchmark ->
  (result, string) Stdlib.result
(** Link the standard image and one image per {!Om.all_levels}, and
    simulate each once under the {!Obs.Attr} profiler: cycles, output and
    attribution come from that one run, and [wall_s] times it. *)

val improvement : result -> Om.level -> float
(** Percent cycle improvement of a level over the standard link. *)

val stats_of : result -> Om.level -> Om.Stats.t option

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
