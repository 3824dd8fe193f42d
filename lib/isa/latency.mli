(** Per-instruction timing facts of the dual-issue implementation
    (21064-like): each instruction's issue pipe and result latency. Pipe E
    handles integer operates and address arithmetic; pipe A handles memory
    accesses, branches and PAL calls.

    When two instructions issue in the same cycle is decided by
    [Machine.Cpu]'s timing model, the one pairing rule, which reads these
    facts. *)

type pipe = E | A

val pipe_of : Insn.t -> pipe

val latency : Insn.t -> int
(** Result latency in cycles: cycles before a dependent instruction can
    issue. Loads are 3 (cache hit), integer multiply is 8, address
    arithmetic and everything else is 1. *)
