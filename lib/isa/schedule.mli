(** Generic basic-block list scheduling.

    Both the compiler's [-O2] pipeline scheduler and the optimizer's
    link-time rescheduling pass use this module; they differ only in how
    they describe their instruction-like nodes.

    Dependences considered: register RAW/WAR/WAW, conservative memory
    ordering (no alias analysis: store-load, load-store and store-store
    pairs are ordered), and [barrier] nodes, which stay ordered relative to
    {e every} other node. The scheduler is greedy critical-path list
    scheduling, cycle by cycle: each cycle's first slot takes the ready
    node of greatest height, and its second slot only a non-barrier ready
    node of the other pipe (again the greatest height). A barrier, or a
    cycle with no eligible node, ends the cycle. Ties in height go to the
    earlier original position. *)

type node = {
  defs : int;       (** registers written, as a {!Reg.bit} mask *)
  uses : int;       (** registers read, as a {!Reg.bit} mask *)
  reads_mem : bool;
  writes_mem : bool;
  barrier : bool;   (** e.g. calls, PAL gates, pinned instructions *)
  latency : int;
  pipe : Latency.pipe;
}

val node_of_insn : ?barrier:bool -> Insn.t -> node
(** Describe a plain instruction. Branches, jumps and PAL calls are
    automatically barriers. *)

val order : node array -> int array
(** [order nodes] returns a permutation [p] such that executing
    [nodes.(p.(0)), nodes.(p.(1)), ...] preserves all dependences.
    The permutation is a valid topological order of the dependence graph;
    ties favour earlier original positions, keeping the result
    deterministic. *)

val is_valid_order : node array -> int array -> bool
(** Whether a permutation respects every dependence — used by the tests and
    asserted internally. *)
