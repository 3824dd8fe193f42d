(** Compilation units (relocatable object modules).

    A unit carries encoded instruction bytes for [Text] (always decodable by
    {!Isa.Decode}), raw bytes for the initialized data sections, sizes for
    the zero-initialized ones, the unit's GAT (literal pool), a symbol table
    and relocations. *)

type t = {
  name : string;             (** module name, e.g. ["tomcatv.o"] *)
  text : Bytes.t;            (** encoded instructions, length multiple of 4 *)
  data : Bytes.t;
  sdata : Bytes.t;
  bss_size : int;
  sbss_size : int;
  gat : Gat_entry.t array;
  symbols : Symbol.t list;
  relocs : Reloc.t list;
}

val make :
  name:string -> ?data:Bytes.t -> ?sdata:Bytes.t -> ?bss_size:int ->
  ?sbss_size:int -> ?gat:Gat_entry.t array -> ?symbols:Symbol.t list ->
  ?relocs:Reloc.t list -> Isa.Insn.t list -> t
(** Build a unit from an instruction list (encoded on the spot). *)

val insn_count : t -> int

val find_symbol : t -> string -> Symbol.t option

val defined_symbols : t -> string list
(** Names this unit defines with [Global] binding (including commons). *)

val referenced_symbols : t -> string list
(** Symbol names referenced by GAT entries and [Refquad] relocations,
    deduplicated. *)

val undefined_symbols : t -> string list
(** Referenced symbols with no definition in this unit (local or global). *)

val validate : t -> (unit, string) result
(** Check internal consistency: text length is a multiple of 4 and
    decodable; every relocation offset lies inside its section and is
    4-aligned (8-aligned for [Refquad]); [Literal] indices are in range;
    [Lituse] back-links point at an address load carrying a [Literal]
    relocation; [Gpdisp] pairs point at an [ldah]/[lda] pair targeting
    [gp]; symbol offsets lie inside their sections. *)

val pp : Format.formatter -> t -> unit
(** A human-readable disassembly-style dump (used by the [dis] command). *)
