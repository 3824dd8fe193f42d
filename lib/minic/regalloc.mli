(** Linear-scan register allocation.

    Virtual registers get either a physical register or a frame spill slot.
    Intervals that are live across a call are only given callee-saved
    registers, so the code generator never needs caller-save spill code
    around calls. Three scratch registers stay out of the pools:
    [at] (address formation in the code generator) and [t10]/[t11]
    (spill reloads). *)

type loc = Preg of Isa.Reg.t | Spill of int

type allocation = {
  loc : loc array;               (** indexed by vreg *)
  nspills : int;                 (** number of spill slots used *)
  used_callee_saved : Isa.Reg.t list;
      (** callee-saved registers the prologue must preserve *)
}

val callee_pool : Isa.Reg.t list

val allocate : Ir.func -> allocation

val pp : Format.formatter -> allocation -> unit
