(** Generating an executable image from the (transformed) symbolic form.

    Lowering assigns final text offsets (optionally quadword-aligning
    instructions that are the targets of backward branches, which helps the
    dual-issue hardware), allocates the final GAT from the address loads
    that actually survive (GAT reduction becomes visible here), patches
    every symbolic operand, lays out the data region per the
    {!Datalayout.plan}, and fills in the loader metadata. *)

type options = { align_branch_targets : bool }

val default_options : options

type placement = {
  node_off : int array;
      (** indexed by node id: the node's text offset, [-1] for an id no
          procedure holds *)
  proc_off : int array;
      (** indexed by {!Linker.Resolve.t} procedure: the procedure's text
          offset, [-1] for one the program does not hold *)
  proc_end : int array;             (** likewise, where it ends *)
  pad_offsets : int list;           (** offsets where an alignment no-op goes *)
  text_size : int;
}
(** Where every node lands in text. [Relax] iterates this to decide which
    span-dependent sites fit; [run] recomputes the identical placement when
    it finally encodes. *)

val place : ?options:options -> Symbolic.program -> placement
(** Assign final text offsets (with branch-target alignment padding when
    the options ask for it), honouring each node's current
    {!Symbolic.insn_of_width}. *)

val label_offsets : Symbolic.program -> placement -> int array
(** Indexed by label: the text offset of the node carrying the label, [-1]
    for a label no node carries. *)

type gat_alloc = {
  ga_tables : (Symbolic.pool_key, int) Hashtbl.t array;
      (** per group: key -> slot index *)
  ga_counts : int array;
}

val alloc_gat :
  Symbolic.program -> Datalayout.plan -> (gat_alloc, string) result
(** Allocate GAT slots in first-reference program order — deterministic,
    so a relaxation pass sees the same slot addresses [run] will encode.
    Fails if a group outgrows its reservation. *)

val run :
  ?options:options -> Symbolic.program -> Datalayout.plan ->
  (Linker.Image.t * int, string) result
(** Returns the image and the final GAT size in bytes (the number of slots
    actually allocated, before padding to the plan's reservation). The
    image is not checked here: {!Verify.check} is the one check of an
    optimized image, and {!Om.optimize_program} runs it after lowering. *)
