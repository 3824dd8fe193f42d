(** Report-vs-report perf-regression gate.

    Compares two {!Report.t} documents (typically a committed baseline
    vs a freshly generated report), matching benches by (bench, build)
    and runs by level. Simulated cycle counts and om improvement
    percentages are deterministic for a given tree, so they gate hard by
    default; simulated-MIPS and relink wall-times are host-dependent and
    only gate when their thresholds are set explicitly — otherwise large
    movements surface as non-gating warnings. *)

type thresholds = {
  max_cycle_regress_pct : float;
      (** max tolerated cycle-count growth, percent *)
  max_improvement_drop_pts : float;
      (** max tolerated drop in improvement_pct, in points *)
  max_mips_drop_pct : float option;
      (** gate MIPS drops when set; warn-only when [None] *)
  min_mips : float option;
      (** absolute floor on every host-MIPS figure in the NEW report
          (std and per-level), independent of the old report — the hard
          gate against the fused path silently degenerating to
          interpreter speed. Off when [None]. *)
  max_relink_regress_pct : float option;
      (** gate relink cold/warm growth when set; warn-only when [None] *)
  max_size_regress_pct : float;
      (** max tolerated growth in any of text/data/GAT bytes, percent.
          Byte counts are deterministic, so this gates hard — the guard
          for the om-gc size story. Runs or benches without size data
          are skipped. *)
}

val default_thresholds : thresholds
(** cycles 0.5%, improvement 1.0 pts, size 0.5%, MIPS and relink
    warn-only, no MIPS floor. *)

type finding = {
  subject : string;    (** e.g. ["fib/compile-each om-full"] *)
  metric : string;     (** ["cycles"], ["improvement_pct"], ["mips"], ... *)
  old_value : float;
  new_value : float;
  delta_pct : float;   (** positive = worse (points for improvement_pct) *)
}

type outcome = {
  regressions : finding list;   (** threshold-exceeding — gate on these *)
  warnings : finding list;      (** host-dependent movement, not gating *)
  improvements : finding list;
  missing : string list;        (** in the old report but not the new *)
}

val ok : outcome -> bool
(** True iff there are no regressions and no row or run of the old
    report is missing from the new one (warnings do not fail the
    gate). *)

val compare :
  ?thresholds:thresholds -> old_r:Report.t -> new_r:Report.t -> unit -> outcome

val pp_finding : Format.formatter -> finding -> unit
val pp_outcome : Format.formatter -> outcome -> unit
