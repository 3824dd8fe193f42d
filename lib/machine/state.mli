(** The simulated machine's core state and semantics, shared by both
    interpreters: configuration, statistics, faults, the register file,
    the split memory map (data+heap / stack), system calls, and the
    register-scoreboard helpers the timing loops use.

    {!Cpu} re-exports the public record types ([config], [stats],
    [outcome], [error]) so external callers keep writing
    [Machine.Cpu.stats]; this module exists so {!Blocks} (the fused
    superinstruction executor) and {!Cpu} can share one implementation
    without a dependency cycle. Treat the [machine] record as internal
    to the [Machine] library. *)

type config = {
  icache_bytes : int;
  dcache_bytes : int;
  line_bytes : int;
  icache_miss_penalty : int;
  dcache_miss_penalty : int;
  branch_penalty : int;
  dual_issue : bool;
  heap_max : int;
  max_insns : int;
}

val default_config : config

type stats = {
  insns : int;
  cycles : int;
  loads : int;
  stores : int;
  icache_misses : int;
  dcache_misses : int;
  nops_executed : int;
}

type outcome = {
  exit_code : int64;
  output : string;
  stats : stats;
}

type error =
  | Unaligned_access of int
  | Out_of_range_access of int
  | Undecodable of int
  | Bad_syscall of int64
  | Unknown_pal of int
  | Heap_exhausted
  | Insn_limit_reached

val pp_error : Format.formatter -> error -> unit

exception Fault of error

type machine = {
  cfg : config;
  text_base : int;
  data_base : int;
  data : Bytes.t;
  stack_base : int;
  stack : Bytes.t;
  regs : Bytes.t;
      (** the 32 × 8-byte register file in host byte order; access only
          through {!rget}/{!rset} — raw bytes keep the GC write barrier
          out of the hot loop *)
  mutable brk : int;
  heap_limit : int;
  out : Buffer.t;
  icache : Cache.t;
  dcache : Cache.t;
  ready : int array;
      (** 33 slots: slot 31 is pinned at 0 (masks never touch it) and
          doubles as the "no operands" read for fused executors; slot 32
          is a write sink for instructions with no destination. *)
  mutable ninsns : int;
  mutable loads : int;
  mutable stores : int;
  mutable nops : int;
}

val create_machine : config -> Linker.Image.t -> machine
val boot : machine -> Linker.Image.t -> unit
val outcome_of : machine -> last_issue:int -> exit_code:int64 -> outcome

val rget : machine -> int -> int64
val rset : machine -> int -> int64 -> unit

val read64 : machine -> int -> int64
val write64 : machine -> int -> int64 -> unit
val bool64 : bool -> int64

val syscall : machine -> int64 option
(** Execute the [call_pal 0x83] system-call gate; [Some code] when the
    program exits. May raise {!Fault} ([Bad_syscall], [Heap_exhausted],
    or a memory fault from the string syscall). *)

val ntz : int -> int
(** Trailing zeros of an isolated bit below [2^32]. *)

val max_ready : int array -> int -> int
(** Max of [ready.(i)] over the bits of the mask; 0 on the empty mask. *)

val set_ready : int array -> int -> int -> unit
