(** Report-vs-report perf-regression gate.

    Compares two {!Report.t} documents (typically a committed baseline
    vs a freshly generated report), matching benches by (bench, build),
    runs by level — the standard link's run like every other — and
    relink timings by program. Simulated cycle counts, om improvement
    percentages and image sizes are deterministic for a given tree, so
    they gate hard: cycles may grow by 0.5%, an improvement may drop by
    1.0 point, and any image's text, data or GAT bytes may grow by 0.5%
    (the guard for the om-gc size story; runs without size data are
    skipped). Simulated MIPS and relink wall-times are host-dependent: a
    MIPS drop past 10% or relink growth past 25% is a non-gating
    warning. *)

type finding = {
  subject : string;
      (** e.g. ["fib/compile-each om-full"], ["fib relink"] *)
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
  ?min_mips:float -> old_r:Report.t -> new_r:Report.t -> unit -> outcome
(** [min_mips] is an absolute floor on every run's host MIPS in the NEW
    report, independent of the old report — the hard gate against the
    fused path silently degenerating to interpreter speed. Off when
    absent. *)

val pp_outcome : Format.formatter -> outcome -> unit
