(** Cross-procedure inlining for the "compile-all" build style.

    Replaces direct calls to small, non-recursive, non-address-taken
    procedures of the same unit by a copy of their body. Note what this does
    to the paper's static call measurements: a multiply-inlined user routine
    that contains library calls {e replicates} those call sites, which is
    one reason interprocedural compilation still leaves so much bookkeeping
    code for the link-time optimizer. *)

val run : Ir.func list -> unit
(** Inline eligible calls in every function, in place. Address-taken
    procedures (their [La] appears outside a call) and [main] are never
    inlined; one level of inlining per pass, applied twice, so call chains
    collapse but recursion cannot loop. *)
