(** Program analysis over the symbolic form.

    This is the "understanding of program structure that is thorough but
    not difficult at link-time" the paper relies on: basic-block recovery,
    register liveness, call-site discovery (with the PV address load and
    the GP-reset pair attached to each site), use-chains of address loads,
    and the set of procedures whose address escapes into data. *)

type use_status =
  | All_marked of Symbolic.node list
      (** every consumer of the loaded register before its death carries a
          LITUSE link; the listed nodes are those consumers *)
  | Escapes
      (** the register reaches an unmarked instruction, a control-flow
          join, or is live out of the block — the load's value cannot be
          reconstructed by rewriting its uses *)

type call_kind =
  | Direct of { callee : int; via : [ `Jsr of Symbolic.node | `Bsr ] }
      (** [callee] indexes {!Linker.Resolve.t}'s procs; [`Jsr n] carries
          the PV address-load node *)
  | Indirect
      (** through a procedure variable: the destination cannot be
          examined *)

type callsite = {
  cs_proc : int;                       (** index into [program.procs] *)
  cs_node : Symbolic.node;             (** the jsr/bsr itself *)
  cs_kind : call_kind;
  cs_reset : (Symbolic.node * Symbolic.node) option;
      (** the GP-reset [ldah]/[lda] pair anchored just after this call *)
}

type t = {
  callsites : callsite list;
  address_taken : bool array;
      (** per {!Linker.Resolve.t} proc index: address escapes into data or
          a register *)
  gatload_status : (int, use_status) Hashtbl.t;
      (** per [Gatload] node id, for non-jsr loads *)
  live_out : int array;
      (** indexed by node id: registers live after the node, as a
          {!Isa.Reg.bit} mask; [-1] for an id no procedure holds *)
}

val run :
  ?local_only:bool ->
  ?section_live:(int -> Objfile.Section.t -> bool) ->
  Symbolic.program -> Symbolic.index -> t
(** Analyse the program through its {!Symbolic.index}, which must be
    current: every label, node-id and procedure lookup reads it.

    [local_only:true] restricts the use-chain analysis to what a
    traditional linker could see (OM-simple): a load whose register is not
    provably dead {e within its basic block} escapes. The default uses
    liveness across the recovered control-flow graph (OM-full).

    [section_live] (default: everything) filters the data relocations
    that feed [address_taken]: om-gc passes {!Gc.section_live} so a
    procedure address held only by dead data no longer counts as
    escaping. *)
