(** Submodules of the optimizer, re-exported. *)

module Symbolic : module type of Symbolic
module Lift : module type of Lift
module Analysis : module type of Analysis
module Datalayout : module type of Datalayout
module Transform : module type of Transform
module Gc : module type of Gc
module Sched : module type of Sched
module Relax : module type of Relax
module Lower : module type of Lower
module Stats : module type of Stats
module Verify : module type of Verify

(** OM, the optimizing linker: the paper's system, end to end.

    [link] resolves the input modules exactly as the standard linker does,
    then translates the whole program to symbolic form, optimizes at the
    requested level, and generates the executable:

    - [No_opt] — translate and regenerate with no transformation (the
      "OM, no optimization" column of the paper's build-time table; also
      the reference point that must behave identically to a standard
      link);
    - [Simple] — OM-simple: local analysis, no code motion, removals
      become no-ops;
    - [Full] — OM-full: code motion, deletion, GAT reduction;
    - [Full_sched] — OM-full plus per-block rescheduling and quadword
      alignment of backward-branch targets;
    - [Gc] — om-gc: whole-program garbage collection on top of OM-full.
      Unreachable procedures are deleted from the call graph rooted at the
      entry point; data/sdata/sbss/bss sections and commons referenced by
      no live code or data vanish from the layout (survivors renumber and
      relocate automatically); PVs whose address escapes only through dead
      data are devirtualized. GAT reduction then runs over the pruned
      program, so freed slots shrink the table. Scheduling runs as in
      [Full_sched] but branch-target alignment stays off, keeping om-gc
      no larger than om-full in text, data and GAT bytes on every input.

    Per-level invariants — what each level may do to the program:
    - [No_opt]: nothing moved, deleted or devirtualized; byte-for-byte
      behavioral identity with a standard link.
    - [Simple]: instructions may be nullified (become no-ops) in place;
      nothing moves, nothing is deleted, layout keeps the merged
      per-module GAT groups.
    - [Full]/[Full_sched]: instructions may move (GP-setup restoration,
      scheduling) and be deleted; the GAT shrinks to the surviving
      entries; no procedure or data is ever removed.
    - [Gc]: additionally, whole procedures and whole data sections may be
      deleted, and GAT-mediated calls to non-escaping PVs may be
      devirtualized to direct branches. Live code and data keep their
      observable behavior: every level produces the same program outputs. *)

type level = No_opt | Simple | Full | Full_sched | Gc

val level_name : level -> string
val all_levels : level list

(** What a link produces: the standard linker's image, the paper's
    baseline, or OM's at a level. *)
type target = Standard | Level of level

val targets : target list
(** [Standard], then {!all_levels}: the order of a report row's runs. *)

val target_name : target -> string
(** {!Obs.Report.standard_level} (["standard"]) or {!level_name}. *)

val target_of_string : string -> (target, string) result
(** ["std"], ["standard"], the short level aliases ("noopt", "simple",
    "full", "sched", "full+sched", "gc") and the {!level_name} forms
    ("om-gc", ...): the one parser of omlink's flags and the daemon. *)

type output = {
  image : Linker.Image.t;
  stats : Stats.t;
  decoded : Linker.Image.decoded;
      (** [image]'s text as {!Verify.verified} decoded it
          ([decoded.image == image]): simulate this rather than decoding
          the image again *)
}

val link_at :
  target -> Linker.Resolve.t ->
  (Linker.Image.decoded * Stats.t option, string) result
(** The one producer of images: a resolved program's image at [target],
    decoded as {!Verify.verified} left it, and OM's statistics for a
    level. [Standard] is {!Linker.Link.link_resolved} then the verifier
    (spans ["link:std"] and ["verify"]; a failure reads ["om: verify:
    ..."]), a level is {!optimize_resolved}: every image leaves
    verified. *)

val link :
  ?level:level -> ?entry:string -> Objfile.Cunit.t list ->
  archives:Objfile.Archive.t list -> (output, string) result
(** Default level is [Full]. *)

val optimize_resolved :
  ?transform_options:Transform.options ->
  level -> Linker.Resolve.t -> (output, string) result
(** The back half of {!link}, for callers that already resolved the
    program: {!Lift.run} then {!optimize_program}. {!link_at} runs it for
    a level, and every frontend links through that — the CLI, the
    measurement harness (which resolves once and links many ways), the
    fuzzer and the link service — so every OM link lifts the whole
    program with the same code. *)

val optimize_program :
  ?transform_options:Transform.options -> level -> Symbolic.program ->
  (output, string) result
(** The back half of {!optimize_resolved}, for callers that already
    lifted. What a level runs is one row of a table, and nothing else
    reads the level:

    {v
    level          gc   transform  sched  align
    om-noopt       -    -          -      -
    om-simple      -    simple     -      -
    om-full        -    full       -      -
    om-full+sched  -    full       yes    yes
    om-gc          yes  full       yes    -
    v}

    The passes run in the order gc, GAT merge, data layout, transform,
    sched, relax, lower, verify, each in a trace span of that name
    (["transform:simple"] or ["transform:full"]). GAT merging, data
    layout, lowering and verification run at every level. The full
    transform brings a single-group GAT reservation and the relaxation
    fixed point; without it the layout keeps the merged per-module GAT
    groups and emission is one-shot. [align] quadword-aligns
    backward-branch targets. The transform mutates the program in place,
    so each program instance is good for a single optimization. *)
