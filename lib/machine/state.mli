(** The simulated machine's core state and semantics, shared by both
    interpreters: configuration, statistics, faults, the register file,
    the split memory map (data+heap / stack), system calls, and the
    register-scoreboard helpers the timing loops use.

    Memory is allocated on demand. Logically, data+heap spans
    [\[data_base, heap_base + heap_max)] and the stack
    [\[stack_top - stack_bytes, stack_top)]; a machine holds only the
    part of each that the program has written so far (the statics plus a
    small heap chunk, and a small chunk at the top of the stack, to
    start with). An aligned write past the allocated part grows it
    geometrically — the heap upward, the stack downward — up to the
    logical end; an aligned read of a never-written word returns 0;
    anything outside the logical regions faults with
    [Out_of_range_access addr]. Every observable result is what a fully
    zero-filled map would give. A simulation's memory therefore scales
    with what the program touches, not with [heap_max].

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
  mutable data : Bytes.t;
      (** the allocated prefix of data+heap, a multiple of 8 bytes long *)
  data_end : int;  (** logical end of data+heap: [heap_base + heap_max] *)
  mutable stack_base : int;
      (** low end of the allocated stack; [stack_base + length stack]
          is always [stack_top] *)
  mutable stack : Bytes.t;
      (** the allocated top of the stack, a multiple of 8 bytes long *)
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
(** Aligned 64-bit accesses under the memory model above.
    @raise Fault [Unaligned_access] or [Out_of_range_access]. *)

val read_cold : machine -> int -> unit
val write_cold : machine -> int -> int64 -> unit
(** The shared cold path of {!read64}/{!write64} and of {!Blocks}' local
    copies, for an aligned access outside the allocated parts:
    [read_cold] faults unless the address lies inside a logical region
    (where the never-written word reads 0 — the caller supplies the 0,
    which keeps its hot path unboxed); [write_cold] grows the allocated
    part to cover the word and stores it, or faults. *)

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
