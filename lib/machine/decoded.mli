(** Pre-decoded executable images: the simulator's fast-path
    representation.

    An image's text segment is decoded once into flat parallel [int]
    arrays — one slot per instruction word — carrying everything the
    timing loop needs: a jump-table-friendly kind code, register numbers,
    displacement (with [Ldah] pre-scaled by 65536), precomputed uses/defs
    {e register bitmasks} (replacing the [Reg.t list] allocations of
    {!Isa.Insn.uses}/[defs] in the hot loop), result latency, issue pipe,
    a nop flag, and the absolute target PC of PC-relative branches.
    {!Blocks} fuses this form into the executors {!Cpu.run_decoded}
    runs; callers that simulate an image repeatedly (the measurement
    harness, the profiler) decode once and reuse. Instruction [i] sits at
    [text_base + 4 * i], the index {!Blocks.profile} counts by.

    The representation is exposed concretely so the fuser in {!Blocks}
    can read the arrays directly; treat it as read-only. *)

(** {1 Kind codes}

    [k_lda] is [ra <- rb + imm] (covers [Lda], and [Ldah] with the
    displacement pre-scaled). [k_br] covers [Br] and [Bsr] (link, then
    jump to the precomputed [target]); [k_jump] is register-indirect via
    [rb]; [k_bcond] carries its condition index in [rc]. Binary operates
    live at [k_op_base + binop_index op] (register operand) and
    [k_opi_base + binop_index op] (8-bit literal in [imm]). [k_syscall]
    is [Call_pal 0x83]; [k_pal] is any other [Call_pal], code in
    [imm]. *)

val k_lda : int
val k_ldq : int
val k_stq : int
val k_br : int
val k_jump : int
val k_bcond : int
val k_op_base : int
val k_opi_base : int
val k_syscall : int
val k_pal : int

val binop_index : Isa.Insn.binop -> int
val cond_index : Isa.Insn.cond -> int

val flag_nop : int

type t = {
  image : Linker.Image.t;
  insns : Isa.Insn.t array;
      (** symbolic form, which [Obs.Attr] classifies each executed
          instruction from *)
  kind : int array;
  ra : int array;
  rb : int array;
  rc : int array;
  imm : int array;
  uses : int array;   (** register read-set bitmask (bit 31 never set) *)
  defs : int array;   (** register write-set bitmask *)
  lat : int array;    (** result latency in cycles *)
  pipe : int array;   (** 0 = pipe E, 1 = pipe A *)
  flags : int array;
  target : int array; (** absolute branch-target PC, 0 when inapplicable *)
}

val image : t -> Linker.Image.t
val length : t -> int

val of_image : Linker.Image.t -> (t, int * Isa.Decode.error) result
(** Decode the image's text. An error carries the absolute PC of the
    first undecodable instruction word. *)

val of_insns : Linker.Image.t -> Isa.Insn.t array -> t
(** Pre-decode an already-decoded instruction array (shared with callers
    that hold the symbolic text). *)
