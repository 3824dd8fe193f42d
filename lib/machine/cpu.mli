(** The executing simulator: a first-order dual-issue in-order model of the
    21064-class implementation the paper measured on (DECstation 3000/400).

    Timing model:
    - up to two instructions issue per cycle: an instruction pairs with
      its predecessor when the two sit in the same aligned quadword, go
      to different pipes ({!Isa.Latency.pipe_of}), the predecessor is
      neither a taken branch nor a [call_pal], the instruction's fetch
      hits the I-cache and its operands are ready in the predecessor's
      issue cycle. Only a read-after-write dependence blocks a pair: a
      write-after-write pair, a not-taken conditional and its successor,
      and an operate followed by [call_pal] all pair. (This rule is why
      the optimizer's quadword alignment of branch targets matters.)
    - loads have a 3-cycle latency on a D-cache hit plus a miss penalty;
    - taken branches cost a fetch bubble;
    - 8KB direct-mapped split I/D caches.

    System calls go through [call_pal 0x83] with the code in [v0]:
    0 exit, 1 put integer, 2 put character, 3 put quad-string, 4 sbrk.

    Two interpreters implement the model:
    - the fused superinstruction path ({!Blocks}, reached through
      {!run_decoded} and {!run}): traces of the decoded text fuse once
      into threaded code, one executor closure per instruction that
      tail-calls the next, with dispatch, pairing preconditions and
      cache-line crossings resolved at fuse time. Each step credits a
      per-instruction {!Blocks.profile} as it runs, which is what cycle
      attribution ([Obs.Attr]) reads, so a profiled run costs what a
      plain one does;
    - {!run_reference}, the original symbolic-form interpreter, kept as
      the semantic oracle for differential testing; its [probe] hook
      reports every retirement.

    Both produce identical outcomes (stats, output, exit code, faults —
    including fault PCs) on every image, and a profile's per-instruction
    counters equal the reference's probe events summed per PC; the test
    suite and the fuzzer enforce this. *)

type config = State.config = {
  icache_bytes : int;
  dcache_bytes : int;
  line_bytes : int;
  icache_miss_penalty : int;
  dcache_miss_penalty : int;
  branch_penalty : int;
  dual_issue : bool;
  heap_max : int;
      (** bytes of heap above the statics: the sbrk limit
          ([Heap_exhausted] past it) and the logical end of data+heap.
          Memory is allocated as the program writes it (see {!State}),
          so a large [heap_max] costs nothing until it is used. *)
  max_insns : int;
}

val default_config : config

type stats = State.stats = {
  insns : int;              (** instructions executed *)
  cycles : int;
  loads : int;
  stores : int;
  icache_misses : int;
  dcache_misses : int;
  nops_executed : int;
}

type outcome = State.outcome = {
  exit_code : int64;
  output : string;
  stats : stats;
}

type error = State.error =
  | Unaligned_access of int
  | Out_of_range_access of int
  | Undecodable of int
      (** carries the PC of the first undecodable instruction word *)
  | Bad_syscall of int64
      (** a [call_pal 0x83] with an unknown code in [v0] *)
  | Unknown_pal of int
      (** a [call_pal] other than the 0x83 system-call gate *)
  | Heap_exhausted
  | Insn_limit_reached

val pp_error : Format.formatter -> error -> unit

type probe_event = {
  ev_pc : int;
  ev_insn : Isa.Insn.t;
  ev_cycles : int;
      (** cycles this instruction added to the critical path: issue-slot
          advance plus any taken-branch penalty. Summing [ev_cycles] over a
          run reproduces {!stats.cycles} exactly. *)
  ev_icache_miss : bool;
  ev_dcache_miss : bool;
}

val decode : Linker.Image.t -> (Linker.Image.decoded, error) result
(** {!Linker.Image.decode_text} for an image nothing decoded yet (an OM
    link hands on its verified text): [Error (Undecodable pc)] names the
    offending word's PC. *)

val run_decoded :
  ?config:config -> ?profile:Blocks.profile -> ?blocks:Blocks.t ->
  Linker.Image.decoded -> (outcome, error) result
(** Boot and run a pre-decoded image ([pc] and [pv] at the entry point,
    [sp] near the stack top) until the exit system call, on the fused
    block-superinstruction path. Pass [blocks] (from {!Blocks.create} on
    the same decoded image and config) to reuse fused executors across
    runs — the big win for repeated simulation; without it a transient
    executor cache is built for the run. A [blocks] whose decoded image
    or config does not match is ignored (a fresh cache is used) rather
    than trusted. With [profile] (from {!Blocks.profile} on the same
    decoded image) every retired instruction is also counted there; see
    {!Blocks.profile} for the contract. *)

val run : ?config:config -> Linker.Image.t -> (outcome, error) result
(** [decode] then {!run_decoded}. *)

val run_reference :
  ?config:config -> ?probe:(probe_event -> unit) -> Linker.Image.t ->
  (outcome, error) result
(** The retained symbolic-form interpreter (re-derives uses/defs/pipe/
    latency from {!Isa.Insn} per retired instruction). Semantically
    identical to {!run}; exists as the oracle for differential tests and
    for measuring the fast path's speedup. [probe] is invoked after each
    instruction retires with its timing attribution. *)
