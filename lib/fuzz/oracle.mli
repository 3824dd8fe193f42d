(** The fuzzer's oracles: everything that must hold of one generated
    program, whatever the link configuration.

    For each case the pipeline is run end to end — compile-each plus a
    merged compile-all build, a standard link, and every OM level — and
    three families of checks are applied to the results:

    + {b behavioral differential}: program output and exit state must be
      bit-identical across the standard link and every OM level, and
      across the merged build;
    + {b structural}: {!Om.Verify} must pass every linked image — every
      {!Om.link_at} fails unless it does, the standard link's included —
      and the text it decoded is the text both interpreters run;
    + {b simulator differential}: the decoded fast path
      ({!Machine.Cpu.run_decoded}) and the reference interpreter
      ({!Machine.Cpu.run_reference}) must agree on output, exit code and
      every counter, for every image; and the fast path's per-instruction
      profile must equal the reference's probe events summed per PC (the
      counters cycle attribution is built on).

    A compile or resolve error is reported as stage ["compile"] /
    ["resolve"]: generated programs are valid by construction, so those
    indicate a generator (or front-end) bug rather than a link-time one,
    and the shrinker refuses to walk a failure into that territory. *)

type failure = {
  stage : string;
      (** where it broke: ["compile"], ["resolve"], ["link standard"]
          (a failed verify too: ["om: verify: ..."]), ["link om-full"],
          ["run standard"], ["behavior om-full"], ["interp standard"],
          ["attr merged om-gc"], ...; ["exception"] means
          the pipeline crashed outright rather than failing an oracle *)
  detail : string;
}

val pp_failure : Format.formatter -> failure -> unit

val generated_failure : failure -> bool
(** The failure indicts the generated program itself (compile/resolve
    stage), not the link pipeline. *)

val reference_profile :
  ?config:Machine.Cpu.config -> Linker.Image.decoded ->
  (Machine.Cpu.outcome, Machine.Cpu.error) result * Machine.Blocks.profile
(** Run {!Machine.Cpu.run_reference} on the decoded image and sum its probe
    events per PC into a {!Machine.Blocks.profile}: what a profiled fused
    run of the same image must produce. *)

val check_profile :
  string -> Linker.Image.decoded -> fused:Machine.Blocks.profile ->
  reference:Machine.Blocks.profile -> (unit, failure) result
(** [check_profile what d ~fused ~reference] fails (stage ["attr " ^ what])
    with the first PC and counter where the two profiles differ. *)

val check_sources : (string * string) list -> (unit, failure) result
(** Run all oracles over [(module_name, source)] pairs. *)

val check : Prog.t -> (unit, failure) result
(** {!Prog.render} then {!check_sources}. *)
