(** The baseline gate: a fresh report must reproduce a committed one.

    Every fact in a report's rows is a deterministic result of
    simulation and linking, so NEW must equal OLD exactly. Rows are
    matched by (bench, build) and runs by level, and both must come in
    the same order. Each row and run is walked as {!Report.to_json}
    writes it and every leaf that differs is a finding, so a field added
    to {!Report.run} is gated with no change here. Host fields
    ([wall_s]) are skipped at any depth; the report's [relinks],
    [metrics] and [load] are host measurements and stay out. *)

type finding = {
  subject : string;
      (** ["li/compile-each"] for a row, ["li/compile-each om-full"] for
          a run, ["rows"] for the order of the rows *)
  field : string;
      (** the leaf's path, e.g. ["cycles"],
          ["attribution.addr_load.cycles"]; ["row"] or ["run"] for one
          on one side only, ["order"] for the order of rows or runs,
          ["mips"] for the [min_mips] floor *)
  old_value : string;  (** as JSON text; ["absent"] on one side only *)
  new_value : string;
}

val compare :
  ?min_mips:float -> old_r:Report.t -> new_r:Report.t -> unit -> finding list
(** Every difference between OLD and NEW, then every run of NEW that
    simulated at under [min_mips] MIPS (the one host-time check: off
    when absent, and runs without a host time are skipped). NEW passes
    iff the list is empty. *)

val pp_finding : Format.formatter -> finding -> unit
(** [subject  field: old -> new] *)
