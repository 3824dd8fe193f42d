(** Instructions of the AXP-like 64-bit architecture.

    Instructions are 32 bits wide; there is no way to embed a 64-bit address
    (or even a 32-bit one) in a single instruction, which is the root cause of
    the global-address-table machinery this whole library is about.

    The subset modelled here is the integer subset the code generator and the
    optimizer need: load-address ([Lda]/[Ldah]), quadword memory access,
    conditional and unconditional branches, register-indirect jumps
    ([Jump] carrying the JSR/JMP/RET distinction), three-operand integer
    operates, and [Call_pal] (used for system calls). Displacements are kept
    as signed OCaml ints in this representation; {!Encode} masks them into
    the instruction word and {!Decode} sign-extends them back. *)

type cond =
  | Beq  (** branch if [ra] = 0 *)
  | Bne  (** branch if [ra] <> 0 *)
  | Blt  (** branch if [ra] < 0 (signed) *)
  | Ble  (** branch if [ra] <= 0 *)
  | Bge  (** branch if [ra] >= 0 *)
  | Bgt  (** branch if [ra] > 0 *)
  | Blbc (** branch if low bit of [ra] clear *)
  | Blbs (** branch if low bit of [ra] set *)

type jump_kind =
  | Jmp (** jump, no intent implied *)
  | Jsr (** subroutine call: [ra] receives the return address *)
  | Ret (** subroutine return *)

type operand =
  | Rb of Reg.t   (** register operand *)
  | Imm of int    (** 8-bit zero-extended literal in [0, 255] *)

type binop =
  | Addq | Subq | Mulq
  | Cmpeq | Cmplt | Cmple | Cmpult | Cmpule
  | And_ | Bis | Xor | Ornot
  | Sll | Srl | Sra

type t =
  | Lda of { ra : Reg.t; rb : Reg.t; disp : int }
      (** [ra <- rb + sext(disp)]; 16-bit signed displacement. No memory
          access: this is the Load-Address operation. *)
  | Ldah of { ra : Reg.t; rb : Reg.t; disp : int }
      (** [ra <- rb + sext(disp) * 65536]: Load-Address-High. An
          [Ldah]/[Lda] pair adds any 32-bit displacement to a register. *)
  | Ldq of { ra : Reg.t; rb : Reg.t; disp : int }
      (** [ra <- mem64\[rb + sext(disp)\]]. When [rb] is [gp] and the
          displacement is marked with a LITERAL relocation this is an
          {e address load} from the GAT. *)
  | Stq of { ra : Reg.t; rb : Reg.t; disp : int }
      (** [mem64\[rb + sext(disp)\] <- ra]. *)
  | Br of { ra : Reg.t; disp : int }
      (** Unconditional PC-relative branch; [disp] counts instructions from
          the updated PC (21-bit signed). [ra] receives the return address
          (conventionally [Reg.zero]). *)
  | Bsr of { ra : Reg.t; disp : int }
      (** Branch-to-subroutine: like [Br] but architecturally hints a call.
          Its limited 21-bit range is why general calls need [Jump Jsr]. *)
  | Bcond of { cond : cond; ra : Reg.t; disp : int }
      (** Conditional PC-relative branch on the value of [ra]. *)
  | Jump of { kind : jump_kind; ra : Reg.t; rb : Reg.t; hint : int }
      (** Register-indirect jump to [rb]; [ra] receives the return address.
          [hint] is a 14-bit branch-prediction hint with no semantic
          effect. *)
  | Op of { op : binop; ra : Reg.t; rb : operand; rc : Reg.t }
      (** [rc <- ra op rb]. *)
  | Call_pal of int
      (** PALcode call; this library uses function [0x83] (callsys) as its
          system-call gate. *)

val equal : t -> t -> bool

val nop : t
(** The canonical no-op: [bis zero, zero, zero]. *)

val is_nop : t -> bool
(** Recognizes any operate instruction whose destination is [Reg.zero] and
    which cannot trap, as well as [Lda]/[Ldah] into [Reg.zero]. *)

val mov : Reg.t -> Reg.t -> t
(** [mov src dst] is [bis src, src, dst]. *)

(** {1 Classification} *)

val defs : t -> Reg.t list
(** Registers written. Writes to [Reg.zero] are not reported. *)

val uses : t -> Reg.t list
(** Registers read. [Reg.zero] is never reported. *)

val defs_mask : t -> int
(** {!defs} as a {!Reg.bit} mask: bit [i] set iff register [i] is
    written. Agrees with [defs] exactly; the allocation-free form the
    simulator's pre-decoded fast path, the list scheduler and the
    optimizer's liveness consume. *)

val uses_mask : t -> int
(** {!uses} as a register bitmask. Agrees with [uses] exactly. *)

val is_load : t -> bool
val is_store : t -> bool

val is_branch : t -> bool
(** True for [Br], [Bsr], [Bcond], and [Jump]: anything that can redirect
    control. *)

val with_branch_disp : t -> int -> t
(** Replace the displacement of a PC-relative branch. Raises
    [Invalid_argument] on other instructions. *)

val fits_disp16 : int -> bool
(** Whether a byte displacement fits the signed 16-bit field. *)

val fits_disp21 : int -> bool
(** Whether a word displacement fits the signed 21-bit branch field. *)

val fits_disp32 : int -> bool
(** Whether a byte displacement is reachable by an [Ldah]/[Lda] pair, i.e.
    fits in a signed 32-bit span (accounting for the low part's sign). *)

val split32_opt : int -> (int * int) option
(** [split32_opt d] is [Some (hi, lo)] with [d = hi * 65536 + lo],
    [-32768 <= lo < 32768], and [hi] fitting 16 signed bits — [None] if
    [not (fits_disp32 d)]. The total-function form every link-time fixup
    should use. *)

val split32 : int -> int * int
(** [split32 d] is [(hi, lo)] with [d = hi * 65536 + lo],
    [-32768 <= lo < 32768], and [hi] fitting 16 signed bits. Raises
    [Invalid_argument] if [not (fits_disp32 d)]. *)

val pp : Format.formatter -> t -> unit
(** Assembler-like rendering, e.g. [ldq t0, 188(gp)]. *)

val to_string : t -> string
