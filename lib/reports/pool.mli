(** A small work-stealing domain pool for the measurement harness.

    The benchmark × build × level matrix is embarrassingly parallel:
    every task is a pure (compile, link, optimize, simulate) pipeline.
    {!map} fans a task list over OCaml 5 domains, preserving input
    order in the results regardless of completion order, so parallel
    runs are bit-identical to serial ones. *)

exception Worker_failed of exn
(** Raised by {!map} after all domains have joined, wrapping the first
    exception any task raised. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] applies [f] to every element of [xs] using up to
    [jobs] domains (default [Domain.recommended_domain_count ()];
    clamped to the list length), returning results in input order. [f]
    must be safe to run concurrently with itself. With [jobs = 1] (or on lists of length
    ≤ 1) no domain is spawned. *)
