(** Trace superinstructions: the simulator's fused fast path.

    A {!Linker.Image.decoded} image is carved lazily into traces: starting from an
    entry PC, the fuser follows straight-line code, the not-taken
    (fall-through) side of conditional branches, and statically-targeted
    unconditional [br] — so loop bodies and branch-over diamonds fuse
    into one superinstruction — stopping at jumps, calls, system calls,
    PAL traps, the end of text, or {!max_block_len}. Each trace fuses
    once into threaded code: one executor closure per instruction (a
    step), with the opcode, register read/write slots, dual-issue
    pairing preconditions, I-cache line crossings and retirement
    counters all resolved at fuse time, each step tail-calling the next;
    taken conditional branches are side exits that fix the counters up
    and leave the trace early. {!run} dispatches trace-to-trace through
    the entry-indexed executor cache; a branch into the middle of a
    fused trace just fuses a second, shorter executor at that entry —
    which is what keeps fused execution bit-identical to
    [Cpu.run_reference] (cycles, cache misses, output, exit codes, fault
    kinds and fault payloads). [test_blocks], the differential tests and
    the fuzzer's stats-agreement oracle enforce the equivalence.

    Every run fills a per-instruction {!profile} — the counters
    [Obs.Attr] attributes cycles from: each step credits its retirement,
    issue-cycle advance and cache misses before it calls the next. So
    plain and profiled runs share the executors and the dispatch loop
    and cost the same; a plain run credits into a scratch profile it
    drops.

    Loads and stores follow {!State}'s on-demand memory model: the
    allocated parts are tested inline, and every other access takes
    State's cold path, the same one the reference interpreter uses. *)

type t
(** A decoded image plus its (lazily filled) per-entry executor cache.
    Safe to share across domains: cache fills are racy but idempotent —
    executors are pure functions of (decoded image, config). *)

val max_block_len : int
(** Upper bound on instructions fused into one trace (runs longer than
    this split into chained fall-through traces). *)

val create : ?config:State.config -> Linker.Image.decoded -> t

val decoded : t -> Linker.Image.decoded
val config : t -> State.config

type profile = {
  retired : int array;  (** times the instruction retired *)
  cycles : int array;
      (** issue-cycle advance summed over its retirements, including the
          taken-branch penalty *)
  imisses : int array;  (** I-cache misses its fetches caused *)
  dmisses : int array;  (** D-cache misses its accesses caused *)
}
(** Per-instruction counters, indexed by instruction (word) index in the
    text. The contract, per retired instruction at index [i]: exactly the
    figures [Cpu.run_reference]'s probe reports for that retirement are
    added at [i] — one retirement, [ev_cycles], and one miss per
    [ev_icache_miss]/[ev_dcache_miss]. An instruction that faults is not
    retired and adds nothing. Summing a counter over the text therefore
    gives the run's [insns], [cycles], [icache_misses] or
    [dcache_misses]. *)

val profile : Linker.Image.decoded -> profile
(** Zeroed counters, one slot per instruction of the image. *)

val run : ?profile:profile -> t -> (State.outcome, State.error) result
(** Boot a fresh machine and execute through the fused executors until
    the exit system call, a fault, or the instruction limit. With
    [profile], every retired instruction also adds to its counters
    (which keep what earlier runs added).
    @raise Invalid_argument if [profile] was sized for another image. *)

val block_len : t -> int -> int
(** [block_len t idx] is the length of the trace entered at instruction
    index [idx], fusing (and caching) it if needed.
    @raise Invalid_argument when [idx] is outside the text. *)

val executors_cached : t -> int
(** Number of entry points with a fused executor currently cached. *)

type counters = { hits : int; misses : int; built : int }

val counters : unit -> counters
(** Process-wide totals across every [t]: block dispatches served by an
    already-fused executor ([hits]) or that fused one ([misses]), and
    executors fused ([built]). These are the counts' one home; the
    [omlt_blocks_*] metrics read them here. *)
