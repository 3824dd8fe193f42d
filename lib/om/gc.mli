(** Link-time dead-code elimination and data-section GC (om-gc).

    Both production LTO linkers the reproduction tracks treat
    unreachable-code stripping as table stakes; here it compounds with
    GAT reduction — every procedure or datum deleted frees pool slots,
    pulling more live data inside the GP window and unlocking further
    OM-full rewrites.

    The pass runs on the lifted symbolic program {e before} layout and
    transformation. It computes a whole-program liveness fixpoint rooted
    at the entry procedure:

    - a procedure is live when a live procedure branches or [bsr]s to it,
      loads its address from the GAT, or when live data holds its address
      (a relocation in a live section);
    - a data object is live when a live procedure loads its address from
      the pool, addresses it GP-relative, or live data references it;
    - sections are kept or dropped {e whole} (symbol-plus-addend
      arithmetic may address a neighbour, so one live object keeps its
      entire home section), and liveness of an object marks its section.

    Dead procedures are deleted from the program in place (the shared
    resolved world is never mutated). Dead sections and commons are
    reported as a {!Datalayout.liveness}: the layout assigns them no
    space — surviving sections renumber and relocate automatically, since
    every downstream reference is symbolic — and lowering skips their
    bytes, relocations and symbols.

    Invariants the level guarantees (and {!Verify} spot-checks on the
    bytes): the entry procedure survives; every surviving call or branch
    targets a surviving procedure; every surviving GAT address slot and
    relocation refers to surviving text or data; behaviour is identical
    to the standard link for any program that does not observe absolute
    addresses. *)

type t = {
  live_proc : bool array;  (** by {!Linker.Resolve.t} procedure index *)
  live_obj : bool array;   (** by {!Linker.Resolve.t} object index *)
  live_sec : bool array array;
      (** per module: Data, Sdata, Sbss, Bss (in that order) *)
  procs_deleted : int;
  insns_deleted : int;     (** static instructions in deleted procedures *)
  data_bytes_deleted : int;
      (** bytes of dead sections and commons the layout drops *)
}

val run : Symbolic.program -> t
(** Compute liveness and delete unreachable procedures from the program
    (in place). The resolved world is read, never written. *)

val liveness : t -> Datalayout.liveness
(** The summary a {!Datalayout.plan} carries to {!Transform.run} and
    {!Lower}; its [live_section] holds [Text] and [Gat] always live. *)
