(** Relocations.

    Beyond making ordinary linking possible, these carry exactly the hints
    the paper says the optimizer leans on: references to the GAT are marked
    ([Literal]), instructions that consume the register loaded by an address
    load are linked back to it ([Lituse_base]/[Lituse_jsr]), and the
    GP-computation instruction pairs are identified ([Gpdisp]). *)

type kind =
  | Literal of { gat_index : int }
      (** On an [ldq rX, d(gp)] in [Text]: the displacement selects slot
          [gat_index] of this unit's GAT. The load is an {e address load}. *)
  | Lituse_base of { load_offset : int }
      (** On a memory instruction whose base register was produced by the
          address load at byte offset [load_offset] of this unit's [Text]. *)
  | Lituse_jsr of { load_offset : int }
      (** On a [jsr] whose target register ([pv]) was produced by the
          address load at [load_offset]. *)
  | Gpdisp of { anchor : int; pair : int }
      (** On the [ldah] of a GP-setup pair. [anchor] is the [Text] byte
          offset whose final linked address equals the run-time value of the
          pair's base register (the procedure entry for a prologue setup via
          [pv]; the return point for a post-call reset via [ra]). [pair] is
          the [Text] offset of the companion [lda]. The linker patches both
          displacements so that the pair computes the procedure's GP
          value. *)
  | Refquad of { symbol : string; addend : int }
      (** A 64-bit data slot holding the address of [symbol]+[addend]
          (e.g. an initialized procedure variable or pointer table). *)
  | Gprel16 of { symbol : string; addend : int }
      (** Optimistic compilation (the paper's §6, the MIPS [-G] scheme):
          the instruction addresses [symbol]+[addend] {e directly}
          GP-relative, betting that the linker can place it inside the GP
          window. If the bet fails, linking fails with advice to
          recompile — exactly the burden the paper holds against this
          alternative. *)

type t = { section : Section.t; offset : int; kind : kind }

val v : section:Section.t -> offset:int -> kind -> t
val pp : Format.formatter -> t -> unit
