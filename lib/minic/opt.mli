(** Machine-independent IR optimizations (the [-O2] analogue).

    These are deliberately {e intraprocedural}: the compiler sees one module
    at a time, which is exactly the blindness the link-time optimizer
    exploits. Passes:

    - local constant folding and copy propagation (within basic blocks);
    - algebraic simplification (x+0, x*1, x*2^k, ...);
    - branch folding on constant conditions;
    - removal of unreachable blocks;
    - dead-definition elimination (pure instructions whose result is never
      used anywhere in the function). *)

val run : Ir.func -> unit
(** The full [-O2] pipeline (iterated to a fixed point). It ends by
    replacing the remaining [Div]/[Rem] instructions with calls to the
    runtime routines [__divq]/[__remq] (the architecture has no integer
    divide), and divisions by constant powers of two with shifts. *)

val lower_div_only : Ir.func -> unit
(** The [-O0] pipeline: no optimization, but division still must be
    lowered. *)
