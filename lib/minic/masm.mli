(** The module assembler: turns per-procedure streams of pseudo-items into
    a relocatable {!Objfile.Cunit}.

    Code generation emits {!item} values, which keep branch targets, GAT
    references, load-use links and GP-setup pairs symbolic so that

    - the [-O2] pipeline scheduler can reorder them freely, and
    - assembly can produce the relocations ([LITERAL], [LITUSE], [GPDISP])
      that the link-time optimizer later consumes.

    GAT entries are deduplicated per module (a module's GAT is a literal
    pool), and the [Literal] displacement written into an address load is
    the slot's offset within the module GAT — the linker rewrites it after
    merging. *)

type label = int
type id = int

type item =
  | Label of label
  | Insn of Isa.Insn.t
      (** a finished instruction with no symbolic operands *)
  | Branch of { insn : Isa.Insn.t; target : label }
      (** a PC-relative branch; the displacement is patched at assembly *)
  | Gatload of { id : id; ra : Isa.Reg.t; entry : Objfile.Gat_entry.t }
      (** an address load: [ldq ra, slot(gp)] *)
  | Lituse of { insn : Isa.Insn.t; load : id; jsr : bool }
      (** an instruction consuming the value loaded by [Gatload load];
          assembly attaches the matching LITUSE relocation *)
  | Gpsetup_hi of { base : Isa.Reg.t; anchor : label; lo : id }
      (** [ldah gp, hi(base)] of a GP-setup pair; [anchor] labels the text
          position whose linked address equals the run-time value of
          [base]; [lo] identifies the paired [Gpsetup_lo] *)
  | Gpsetup_lo of { id : id }
      (** [lda gp, lo(gp)], the second half of a GP-setup pair *)
  | Gpref of { insn : Isa.Insn.t; symbol : string; addend : int }
      (** optimistic compilation: a gp-based memory op addressing
          [symbol]+[addend] directly; assembly attaches a GPREL16
          relocation and the final link verifies the datum landed inside
          the GP window *)

type t

val create : string -> t
(** [create module_name] *)

val fresh_label : t -> label
val fresh_id : t -> id

val add_proc :
  t -> name:string -> ?static:bool -> ?exported:bool -> item list -> unit
(** Append a procedure. Its entry point is the start of the item list.
    [static] procedures get [Local] binding. The [uses_gp] and
    [gp_setup_at_entry] descriptor flags are computed from the items. *)

type dsection = [ `Data | `Sdata | `Bss | `Sbss ]

val add_global :
  t -> name:string -> ?static:bool -> section:dsection -> size_bytes:int ->
  ?init:int64 array -> ?refquads:(int * string * int) list -> unit -> unit
(** Append a data object. [init] fills the first words of an initialized
    section (forbidden for [`Bss]/[`Sbss]); [refquads] lists
    [(word_index, symbol, addend)] address slots within the object. *)

val add_common : t -> name:string -> size_bytes:int -> unit
(** Append an uninitialized common block; the linker or optimizer chooses
    where it lives. *)

val assemble : t -> Objfile.Cunit.t
(** Produce the object module. Raises [Invalid_argument] on dangling
    labels/ids or branch displacements out of range. The result always
    satisfies {!Objfile.Cunit.validate}. *)

val schedule_items : item list -> item list
(** Reorder a straight-line run of items (no [Label]s) with
    {!Isa.Schedule.order}. *)
