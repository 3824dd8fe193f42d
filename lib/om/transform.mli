(** The address-calculation optimizations (the paper's §3).

    [Simple] is what a traditional linker could do — purely local analysis,
    no code motion, unneeded instructions become no-ops:
    - GAT loads of data within the GP window fold into their LITUSE-linked
      uses (nullified) or become a single GP-relative [lda] (converted);
    - data reachable only via a 32-bit displacement uses the LDAH trick
      when every use can absorb the low half — same instruction count;
    - [jsr]s to destinations found in the GAT become [bsr]s; the PV load
      is nullified only when the callee's GP setup is still the first two
      instructions (compile-time scheduling usually moved it) or the
      callee needs no GP at all;
    - GP-reset pairs after same-GAT calls are nullified when both halves
      sit within a small window after the call.

    [Full] understands the control structure and may move, insert and
    delete code:
    - GP setups are restored to their logical place at procedure entry, so
      every same-group call can branch past them;
    - liveness over the recovered CFG widens the set of foldable loads;
    - escaping far references become two-instruction [Lea_wide] sequences;
    - unneeded instructions are deleted, not nullified;
    - prologue GP setups of procedures whose every entry skips them are
      deleted ({e GAT reduction}: the surviving loads determine the final,
      much smaller table). *)

type level = Simple | Full

type options = {
  opt_calls : bool;
      (** jsr-to-bsr conversion, PV-load and GP-reset removal *)
  opt_addr : bool;
      (** address-load folding and conversion *)
  opt_setup_motion : bool;
      (** restore GP setups to procedure entry ([Full] only) *)
  opt_setup_deletion : bool;
      (** delete prologue GP setups that every entry skips ([Full] only) *)
}

val default_options : options
(** Everything enabled — what {!Om.link} uses. The ablation benchmarks
    switch features off one at a time to price each one. *)

val run :
  ?options:options ->
  ?section_live:(int -> Objfile.Section.t -> bool) ->
  level -> Symbolic.program -> Datalayout.plan ->
  Stats.t -> Analysis.t
(** Transform the program in place. Returns the analysis that was used
    (computed after [Full]'s setup motion), mainly for tests.
    [section_live] is forwarded to {!Analysis.run} — om-gc's refinement
    of the PV escape facts. *)

type deletions
(** [Full] deletes a node in O(1): it is marked dead and stays in its body,
    so the {!Symbolic.index} the transform reads stays exact, and [run]
    ends with one {!compact}. *)

val deletions : Symbolic.index -> deletions
val delete_node : deletions -> Symbolic.node -> unit
(** Mark the node dead. A body's final node is never dropped, since its
    labels need a node to land on: it becomes a no-op in place. *)

val compact : deletions -> unit
(** Drop every dead node, handing its labels, in order, to the next node
    that survives. *)

val move_setups_to_entry : Symbolic.program -> unit
(** The [Full]-mode code motion, exposed for testing. *)

val setup_at_entry :
  Symbolic.proc -> (Symbolic.node * Symbolic.node) option
(** The procedure's GP-setup pair when it consists of the first two
    instructions. *)
