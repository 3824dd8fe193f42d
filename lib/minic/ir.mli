(** The compiler's intermediate representation: three-address code on
    virtual registers over a control-flow graph.

    Scalar locals and temporaries live in virtual registers; local arrays
    get frame slots. Global accesses appear as [La] (address of a symbol)
    followed by [Ld]/[St] through the resulting value — the code generator
    turns each [La] into a GAT address load, which is exactly the
    conservative pattern the link-time optimizer attacks. *)

type vreg = int
type label = int

type cmp = Ceq | Cne | Clt | Cle | Cgt | Cge

type binop =
  | Add | Sub | Mul | Div | Rem
  | And | Or | Xor | Shl | Shr
  | Cmp of cmp  (** produces 0 or 1 *)

type callee =
  | Cdirect of string
  | Cindirect of vreg  (** call through a procedure variable *)

type instr =
  | Li of { dst : vreg; value : int64 }
  | Bin of { dst : vreg; op : binop; a : vreg; b : vreg }
  | Bini of { dst : vreg; op : binop; a : vreg; imm : int }
      (** [imm] in [0, 255] (the operate-format literal) *)
  | Ld of { dst : vreg; base : vreg; off : int }
  | St of { src : vreg; base : vreg; off : int }
  | La of { dst : vreg; sym : string; off : int }
      (** address of a global object or procedure *)
  | Laslot of { dst : vreg; slot : int }
      (** address of a local frame slot *)
  | Call of { dst : vreg option; callee : callee; args : vreg list }

type term =
  | Ret of vreg option
  | Jmp of label
  | Cbr of { cond : vreg; ifso : label; ifnot : label }
      (** branch to [ifso] when [cond] is nonzero *)

type block = { label : label; mutable body : instr list; mutable term : term }

type func = {
  fname : string;
  fstatic : bool;
  params : vreg list;
  mutable blocks : block list;  (** entry block first *)
  mutable nvregs : int;
  mutable slots : int array;            (** frame slot sizes in bytes *)
}

val iter_defs : (vreg -> unit) -> instr -> unit
val iter_uses : (vreg -> unit) -> instr -> unit
val iter_term_uses : (vreg -> unit) -> term -> unit
(** The vregs an instruction writes and reads, and a terminator reads,
    each passed to [f] in operand order. *)

val label_bound : func -> int
(** One more than the largest label a block carries or a terminator
    names. Labels are non-negative (the generator numbers them from 0), so
    a table indexed by label is an array of this size. *)

val map_instr_regs : (vreg -> vreg) -> instr -> instr
val map_term_regs : (vreg -> vreg) -> term -> term

val pp_func : Format.formatter -> func -> unit

val validate : func -> (unit, string) result
(** Check structural invariants: entry block exists, labels are
    non-negative and distinct, every jump target is a block of the
    function, every used vreg is below [nvregs], slot and immediate
    references are in range. *)
