(** Rendering the paper's figures and tables from measured results.

    Each function prints an ASCII reproduction of one exhibit from §5 of
    the paper, with per-program rows and the unweighted arithmetic mean
    (the paper's "Mean of 19 pgms" key). *)

type matrix = Obs.Report.bench list
(** rows for any set of (benchmark, build) pairs *)

val fig3 : Format.formatter -> matrix -> unit
(** Static fraction of address loads removed, converted vs. nullified,
    OM-simple and OM-full, compile-each and compile-all. *)

val fig4 : Format.formatter -> matrix -> unit
(** Static fraction of calls requiring PV loads (top) and GP-reset code
    (bottom): no OM / OM-simple / OM-full. *)

val fig5 : Format.formatter -> matrix -> unit
(** Static fraction of instructions nullified or deleted. *)

val fig6 : Format.formatter -> matrix -> unit
(** Dynamic performance improvement over the standard link (simulated
    cycles), OM-simple and OM-full; the scheduling variant is shown as a
    separate column, as §5.2 discusses it. *)

val gat_table : Format.formatter -> matrix -> unit
(** GAT size before and after OM-full (§5.1: "reduced ... to between 3%
    and 15% of its original size"). *)

val fig7 : Format.formatter -> (string * Measure.timing) list -> unit
(** Build times in milliseconds for the six build paths. *)

val summary : Format.formatter -> matrix -> unit
(** The headline numbers next to the paper's claims. *)
