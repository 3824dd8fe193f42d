(** Submodules, re-exported. *)

module Rng : module type of Rng
module Prog : module type of Prog
module Gen : module type of Gen
module Oracle : module type of Oracle

(** Randomized differential testing of the whole link pipeline.

    A campaign draws [count] programs from {!Gen.program}, seeded
    per-case with {!case_seed} so the campaign is deterministic for a
    given [--seed] regardless of job count, and runs each through the
    three oracles in {!Oracle}. Failing cases are shrunk to a minimal
    reproducer and written under [out_dir] (default [_fuzz/]) together
    with a README recording the seed and the failure. *)

val case_seed : seed:int -> index:int -> int
(** The derived seed for case [index] of a campaign: mixing, not
    [seed + index], so neighbouring campaigns don't share cases. *)

val run_case : ?span_stress:bool -> int -> (unit, Oracle.failure) result
(** Generate the program for one derived case seed and run all oracles
    over it. [run_case (case_seed ~seed ~index)] replays exactly case
    [index] of campaign [seed]; pass the campaign's [span_stress] to
    replay a span-stress case. *)

val shrink :
  ?max_checks:int -> Prog.t -> Oracle.failure -> Prog.t * Oracle.failure
(** Greedy minimization: repeatedly take the first single-step reduction
    (from {!Prog.shrink_steps}) that still fails in the same class —
    pipeline failures never shrink into compile-stage ones, so the
    reproducer stays a valid program. Each candidate costs a full oracle
    run; [max_checks] (default 2000) bounds the effort. Returns the
    smallest program found and its failure. *)

type reproducer = {
  r_index : int;  (** case index within the campaign *)
  r_case_seed : int;
  r_failure : Oracle.failure;  (** as originally observed *)
  r_prog : Prog.t;  (** the unshrunk program *)
  r_shrunk : Prog.t;
  r_shrunk_failure : Oracle.failure;
  r_dir : string option;  (** reproducer directory, when written *)
}

type report = {
  seed : int;
  count : int;
  failed : reproducer list;  (** in case-index order; empty = clean *)
}

val write_reproducer : out_dir:string -> seed:int -> reproducer -> string
(** Write [original/] and [shrunk/] minic sources plus a [README.md] to
    [out_dir/case-<seed>-<index>/]; returns that directory. *)

val campaign :
  ?jobs:int ->
  ?out_dir:string option ->
  ?progress:(done_:int -> total:int -> failed:int -> unit) ->
  ?span_stress:bool ->
  seed:int ->
  count:int ->
  unit ->
  report
(** Run cases [0 .. count-1] across a domain pool ({!Reports.Pool.map};
    [jobs] defaults to [Domain.recommended_domain_count ()]). The report
    — and any reproducer directories —
    are identical whatever [jobs] is. [out_dir] defaults to
    [Some "_fuzz"]; pass [None] to skip writing reproducers.
    [progress] is called between parallel chunks. Shrinking runs
    serially after the sweep (failures are expected to be rare).
    [span_stress] (default off) draws every case from {!Gen.program}'s
    span-boundary-biased mode. *)

val pp_report : Format.formatter -> report -> unit
