(** Cycle attribution: where a simulated run spends its time, and on what.

    This is the measurement layer behind the paper's §5 argument. A run of
    {!run_decoded} simulates once on the fused path with a per-instruction
    {!Machine.Blocks.profile}, then buckets every executed instruction —
    its retirements and its critical-path cycles — two ways at once:

    - {e by procedure}, mapping the PC through
      {!Linker.Image.proc_containing};
    - {e by address-calculation category}: GAT address loads, GP
      setup/reset code, PV loads, and everything else — the four
      mechanisms whose removal the optimizer is being graded on.

    I-cache and D-cache misses are attributed per procedure as well.
    Each executed instruction is mapped and classified once, however
    often it retired; the totals equal the reference interpreter's probe
    events classified one by one (the test suite checks this). *)

type category =
  | Addr_load  (** [ldq] off GP hitting the linked GAT *)
  | Gp_setup   (** any instruction writing GP: setups and resets *)
  | Pv_load    (** [ldq] into PV: materializing a callee's address *)
  | Other

val all_categories : category list
val category_name : category -> string

(** {1 Classification} *)

val classify :
  gat_base:int -> gat_bytes:int -> gp_value:int option -> Isa.Insn.t ->
  category
(** [gp_value] is the GP the enclosing procedure's code expects (from its
    {!Linker.Image.proc_info}); [None] when the PC maps to no known
    procedure, in which case any load off GP is conservatively counted as
    an address load. *)

(** {1 Profiles} *)

type bucket = { mutable b_insns : int; mutable b_cycles : int }

type proc_profile = {
  pname : string;
  mutable p_insns : int;
  mutable p_cycles : int;
  mutable p_imiss : int;
  mutable p_dmiss : int;
  p_buckets : bucket array;  (** in {!all_categories} order *)
}

type t = {
  procs : proc_profile list;
      (** sorted by cycles, descending; instructions outside any known
          procedure appear under the name ["?"] *)
  totals : proc_profile;     (** named ["TOTAL"] *)
  cpu : Machine.Cpu.stats;
  output : string;
  exit_code : int64;
}

val bucket : proc_profile -> category -> bucket
val proc : t -> string -> proc_profile option

val run_decoded :
  ?config:Machine.Cpu.config -> Linker.Image.decoded ->
  (t, Machine.Cpu.error) result
(** One profiled run of the decoded image, attributed. Callers hand on
    the text the image's link verified and decoded ([Om.link_at]'s, the
    standard image's included), so nothing decodes twice. *)

val pp : ?top:int -> Format.formatter -> t -> unit
(** Per-procedure table: cycles, instruction count, category cycles and
    cache misses. [top] limits the procedure rows (default 12); the totals
    row always prints. *)

val to_json : t -> Json.t
