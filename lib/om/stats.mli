(** Optimization statistics — the raw material for every figure of the
    paper's §5.1.

    "Address loads" are [Gatload]s whose pool entry is an address (constant
    pool loads are tallied separately). A load is {e converted} when it
    becomes a load-address operation ([lda]/[ldah] forms), {e nullified}
    when it becomes a no-op or is deleted outright. *)

type t = {
  mutable insns_before : int;
  mutable insns_after : int;
  mutable nops_added : int;
  mutable insns_deleted : int;
  mutable addr_loads : int;
  mutable addr_converted : int;
  mutable addr_nullified : int;
  mutable const_loads : int;
  mutable calls : int;
  mutable calls_pv_before : int;
  mutable calls_pv_after : int;
  mutable calls_reset_before : int;
  mutable calls_reset_after : int;
  mutable jsr_before : int;
  mutable jsr_after : int;
  mutable gp_setups_deleted : int;
  mutable gat_bytes_before : int;
  mutable gat_bytes_after : int;
  mutable pvs_devirtualized : int;
      (** GAT-mediated [jsr]s converted to direct [bsr]s {e with} their PV
          address load (and so its GAT slot) removed *)
  mutable procs_deleted : int;        (** unreachable procedures (om-gc) *)
  mutable gc_insns_deleted : int;
      (** static instructions inside deleted procedures (om-gc) *)
  mutable data_bytes_deleted : int;
      (** bytes of dead data sections and commons dropped (om-gc) *)
  mutable branches_elided : int;
      (** branch-to-next instructions relaxation removed outright *)
  mutable sites_narrowed : int;
      (** span-dependent sites rewritten to a shorter form (e.g. an
          [ldah]/[lda] pair to a single gp-relative [lda]) *)
  mutable sites_grown : int;
      (** sites that provably did not fit and took the long form *)
  mutable relax_iterations : int;
      (** placement fixed-point passes until no site changed size *)
  mutable relax_gat_bytes_freed : int;
      (** reservation bytes returned when the exact post-transform GAT
          replaced the pre-transform superset plan *)
}

val create : unit -> t

val measure_before : Symbolic.program -> Analysis.t -> t -> unit
(** Fill the [*_before], [addr_loads], [const_loads] and [calls] fields
    from the untransformed program. A call site "requires a PV load" when
    it is a GAT-mediated [jsr] or an indirect call; it "requires GP-reset
    code" when a GPDISP-linked pair is anchored at its return point. *)

val frac_addr_removed : t -> float * float
(** (converted, nullified) as fractions of [addr_loads]. *)

val frac_insns_nullified : t -> float
(** (nops added + deleted) / static instructions before. *)

val to_alist : t -> (string * int) list
(** Every field, in declaration order, under stable snake_case names —
    the flat form trace counters and JSON reports carry. *)

val of_alist : (string * int) list -> t
(** The inverse of {!to_alist}: the typed statistics back from a report
    row's [counters]. A field the list does not name stays 0, and names
    that are not fields are ignored. *)

val pp : Format.formatter -> t -> unit
