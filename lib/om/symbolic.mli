(** The symbolic program form at the heart of OM.

    The optimizer translates the object code of the entire program into
    this form, transforms it, and generates executable code from the
    result. Because operands that depend on final addresses stay symbolic
    ({!sinsn} constructors other than [Raw]), instructions can be deleted,
    inserted and reordered freely without invalidating address constants or
    branch displacements — the key idea of the paper's §4. *)

type label = int

type pool_key =
  | Paddr of Linker.Resolve.target * int
      (** address of a program object plus addend *)
  | Pconst of int64
      (** a 64-bit literal constant *)

type anchor =
  | Aentry
      (** the base register holds the enclosing procedure's entry address
          ([pv] at procedure entry) *)
  | Alocal of label
      (** the base register holds the address of the labelled position
          ([ra] at a post-call return point) *)

type sinsn =
  | Raw of Isa.Insn.t
      (** concrete instruction; PC-relative branches never appear here *)
  | Gatload of { ra : Isa.Reg.t; key : pool_key }
      (** [ldq ra, slot(gp)] — an address load (or literal-pool load); the
          slot is assigned at lowering *)
  | Use of { insn : Isa.Insn.t; load_id : int; jsr : bool }
      (** an instruction consuming the register produced by the [Gatload]
          node with id [load_id] (the LITUSE link) *)
  | Gpsetup_hi of { base : Isa.Reg.t; anchor : anchor; lo_id : int }
  | Gpsetup_lo
      (** the [ldah]/[lda] pair computing GP; displacements assigned at
          lowering from the procedure's final GP value *)
  | Branch of { insn : Isa.Insn.t; target : label }
      (** PC-relative branch; displacement assigned at lowering *)
  | Gprel of {
      insn : Isa.Insn.t;
      target : Linker.Resolve.target;
      addend : int;
      part : part;
    }
      (** optimizer-introduced: a memory-format instruction whose
          displacement is derived from [address(target) + addend - GP] at
          lowering. [Pfull] is the whole 16-bit displacement (base register
          is [gp]); [Phi]/[Plo] are the halves of the 32-bit split (the
          paper's LDAH trick: an [ldah] over [gp] plus the use instruction
          carrying the low half, same instruction count as the indirect
          sequence). [Plo extra] adds the use's original displacement. *)
  | Lea_wide of { ra : Isa.Reg.t; target : Linker.Resolve.target; addend : int }
      (** optimizer-introduced: load a 32-bit-reachable address in two
          instructions, [ldah ra, hi(gp); lda ra, lo(ra)] *)
  | Gatload_wide of { ra : Isa.Reg.t; key : pool_key }
      (** relaxation-introduced long form of {!Gatload} for a slot outside
          the 16-bit GP window: [ldah ra, hi(gp); ldq ra, lo(ra)] *)
  | Bsr_far of { ra : Isa.Reg.t; target : label }
      (** relaxation-introduced long form of a [bsr] out of 21-bit span:
          [br pv, 0; ldah pv, hi(pv); lda pv, lo(pv); jsr ra, (pv)] — the
          callee address lands in [pv] exactly as the calling convention's
          GP setup expects *)
  | Br_far of { ra : Isa.Reg.t; target : label }
      (** long form of [br]: same shape through the assembler temporary
          [at], with [ra] still receiving the return address *)
  | Bcond_far of { cond : Isa.Insn.cond; ra : Isa.Reg.t; target : label }
      (** long form of a conditional branch: the inverted condition skips
          a {!Br_far}-shaped sequence *)
  | Elided of sinsn
      (** relaxation deleted this branch-to-next; width 0, labels (and so
          branch targets) on the node stay valid *)

and part = Pfull | Phi | Plo of int

type node = {
  nid : int;                    (** unique within the program *)
  mutable labels : label list;  (** labels bound to this position *)
  mutable insn : sinsn;
}

type proc = {
  sp_index : int;               (** index in {!Linker.Resolve.t}'s procs *)
  sp_name : string;
  sp_module : int;
  entry_label : label;
  mutable body : node array;    (** in text order *)
  mutable sp_gp_group : int;    (** GAT group, assigned before lowering *)
}

type program = {
  world : Linker.Resolve.t;
  mutable procs : proc array;   (** in original text order *)
  mutable next_label : int;
  mutable next_node : int;
  entry_name : string;
}

val fresh_label : program -> label
val make_node : program -> sinsn -> node
(** Labels and node ids count up from 0, so every label of a program is
    below its [next_label] and every node id below its [next_node]: the
    passes index arrays by them. *)

val insn_of_width : sinsn -> int
(** Instructions a node expands to at lowering: 2 for [Lea_wide] and
    [Gatload_wide], 4 for [Bsr_far]/[Br_far], 5 for [Bcond_far], 0 for
    [Elided], 1 otherwise. *)

(** Where everything of a program sits, built in one pass over its
    bodies. An index describes the program as it was when built: a pass
    that moves nodes or procedures leaves it stale, and the next pass
    that needs one builds a fresh one (an index is never patched). *)
type index = {
  procs : proc array;
      (** the program's procedures when the index was built; [home]
          positions refer to this array *)
  home : int array;
      (** by node id: the position in [procs] of the procedure holding
          the node, [-1] for an id no procedure holds *)
  pos : int array;    (** by node id: the node's position in its body *)
  carrier : int array;
      (** by label: the id of the node carrying it, [-1] for none *)
  sym_proc : int array;
      (** by {!Linker.Resolve.t} procedure index: the procedure's position
          in [procs], [-1] when the program holds none (om-gc deleted it) *)
}

val index : program -> index

val node_in : index -> int -> int -> node option
(** [node_in ix pi id] is the node with id [id] when the procedure at
    position [pi] holds it. *)

val label_home : index -> label -> int
(** The position in [procs] of the procedure whose body carries the
    label, [-1] for a label no node carries. *)

val iter_nodes : program -> (proc -> node -> unit) -> unit

val defs_mask : sinsn -> int
val uses_mask : sinsn -> int
(** Registers written and read, as {!Isa.Reg.bit} masks, GP included where
    applicable. Each form is described by its lowered shape: a gp-relative
    access reads [gp] in place of its base register, and the far branch
    forms write their scratch register ([pv] for a call, [at] otherwise). *)

val static_insn_count : program -> int
