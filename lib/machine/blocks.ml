(* Trace superinstructions: the simulator's fused fast path.

   A [Decoded.t] image is carved — lazily, per entry point actually
   reached — into traces (superblocks): a run of instructions that
   follows fall-through edges, the fall-through side of conditional
   branches, and statically-targeted unconditional branches, ending at
   a register jump, a system call, a PAL trap, a branch that leaves the
   image, or the length cap. A loop body therefore fuses into one long
   trace that unrolls the loop up to [max_block_len] instructions — one
   dispatch per hundreds of retired instructions instead of one per
   basic block. A conditional branch inside a trace is a side exit:
   fall-through continues inside the trace at full speed, and the taken
   direction leaves the trace (setting a flag the executor loop
   checks). Each trace is fused once into an array of per-instruction
   executor closures with every static fact resolved at fuse time:

   - kind dispatch: the operator is selected when the closure is built
     (flat dispatch on the precomputed kind code) — one specialized
     closure per opcode, so the read-op-write chain compiles to direct
     unboxed int64 primitives (a closure-valued operator would force
     boxing both operands and the result at the call boundary);
   - issue timing threads through an unboxed int argument: a step takes
     the previous issue cycle and returns its own, so the hot loop never
     touches a mutable record between instructions — control-flow state
     is written only by the block's terminator;
   - register pressure: uses/defs bitmasks are decomposed into at most
     two scoreboard reads and one scoreboard write (slot 31 is the
     pinned-zero "no operands" read); instructions with no destination
     (stores, dead writes to r31) skip the scoreboard write entirely,
     and ops whose destination is r31 skip the value computation too —
     they cost issue slots but compute nothing;
   - dual-issue pairing: within a trace the previous instruction's PC,
     alignment, pipe and non-control status are compile-time constants
     (a not-taken conditional is not "control" for pairing, so its
     fall-through successor still pairs statically), so pairing drops
     from an 8-term test to [oready <= last_issue], with the full
     dynamic test kept only for the trace's first instruction (whose
     predecessor is whatever trace ran before);
   - instruction fetch: consecutive PCs share I-cache lines, so only
     line-crossing instructions, the trace's first, and the landing
     instruction after a followed branch touch the I-cache — same miss
     totals and tag state, a fraction of the accesses;
   - retirement counters: loads/stores/nops per trace are constants,
     added once at trace entry; a side exit refunds the suffix it
     skipped (constants captured in the exiting closure).

   Executors are cached by entry index, so a branch into the middle of
   an already-fused trace simply fuses (and caches) a second trace
   starting there — entry-indexed caching is what keeps fused execution
   exactly equivalent to instruction-at-a-time execution.

   Everything observable — cycles, cache misses, fault kinds and fault
   PCs, output, exit codes — is bit-identical to [Cpu.run_reference];
   the differential tests and the fuzzer's stats-agreement oracle
   enforce this.

   Profiling: [run ~profile] credits every retired instruction to its
   instruction index — retirements, the issue-cycle advance its step
   returns, and the I-/D-cache misses it caused — so the per-index sums
   equal the reference interpreter's probe events summed per PC. A
   profiled dispatch runs the whole trace through a loop of its own that
   credits each step as it returns and carries the instruction limit in
   its bound; the plain trace loops never look at the profile.

   Memory: the steps' loads and stores test the allocated parts of
   data+heap and of the stack inline; an access outside them (a
   never-written word, a store that grows memory, a fault) takes
   [State]'s cold path, shared with the reference interpreter. *)

module D = Decoded
module S = State

(* Local copies of State's register-file and memory primitives. The
   build compiles libraries with [-opaque] (and without flambda), so a
   cross-module [S.rget] is an indirect call through State's module
   block — and because its argument and result are [int64], every such
   call boxes: measured at ~9 minor words allocated per simulated
   instruction, the single largest cost in the fused loop. Same-module
   definitions inline under any build profile and keep the whole
   read-op-write chain unboxed. Keep these in sync with State. Memory
   accesses test the allocated parts of data+heap and of the stack
   inline; anything else (a never-written word, a write that grows
   memory, a fault) takes State's shared cold path, whose boxing is
   paid only there. *)
external reg_read : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external reg_write : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline always] rget m r = reg_read m.S.regs (r lsl 3)
let[@inline always] rset_u m r v = reg_write m.S.regs (r lsl 3) v
let[@inline always] bool64 c : int64 = if c then 1L else 0L

let[@inline always] read64 m addr =
  if addr land 7 <> 0 then raise (S.Fault (S.Unaligned_access addr));
  if addr >= m.S.data_base && addr < m.S.data_base + Bytes.length m.S.data
  then Bytes.get_int64_le m.S.data (addr - m.S.data_base)
  else if
    addr >= m.S.stack_base && addr < m.S.stack_base + Bytes.length m.S.stack
  then Bytes.get_int64_le m.S.stack (addr - m.S.stack_base)
  else (S.read_cold m addr; 0L)

let[@inline always] write64 m addr v =
  if addr land 7 <> 0 then raise (S.Fault (S.Unaligned_access addr));
  if addr >= m.S.data_base && addr < m.S.data_base + Bytes.length m.S.data
  then Bytes.set_int64_le m.S.data (addr - m.S.data_base) v
  else if
    addr >= m.S.stack_base && addr < m.S.stack_base + Bytes.length m.S.stack
  then Bytes.set_int64_le m.S.stack (addr - m.S.stack_base) v
  else S.write_cold m addr v

let max_block_len = 512

type rstate = {
  mutable pc_next : int;
  mutable last_issue : int;
  mutable last_pc : int;
  mutable last_pipe : int; (* -1 = none *)
  mutable last_was_ctl : bool;
  mutable jumped : bool; (* a side exit fired inside the trace *)
  mutable exited : bool;
  mutable exit_code : int64;
}

(* A step takes the previous instruction's issue cycle and returns its
   own; only terminators (and the block seal) write [rstate]. *)
type step = S.machine -> rstate -> int -> int

type binfo = {
  b_len : int;
  b_idx : int array; (* step -> instruction index *)
  b_loads : int;  (* static: every k_ldq retires one load *)
  b_stores : int;
  b_nops : int;
  b_has_exit : bool; (* a side-exit conditional lives inside the trace *)
  b_steps : step array;
  b_seal : (rstate -> unit) option;
      (* fall-through exit state for traces with no terminator
         (length-capped, or the image's text ran out) *)
}

type t = {
  decoded : D.t;
  config : S.config;
  execs : binfo option array; (* entry index -> fused executor *)
  hits : int Atomic.t;
  misses : int Atomic.t;
}

(* Per-instruction counters, filled by [run ~profile]. Plain int arrays
   updated only from this module: see the [-opaque] note above. *)
type profile = {
  retired : int array;
  cycles : int array;
  imisses : int array;
  dmisses : int array;
}

let profile (d : D.t) =
  let n = Array.length d.D.kind in
  { retired = Array.make n 0;
    cycles = Array.make n 0;
    imisses = Array.make n 0;
    dmisses = Array.make n 0 }

let decoded t = t.decoded
let config t = t.config
let cache_stats t = (Atomic.get t.hits, Atomic.get t.misses)

let executors_cached t =
  Array.fold_left (fun n e -> if e = None then n else n + 1) 0 t.execs

(* process-wide totals, mirrored into the Obs.Metrics registry by
   Reports.Measure (this library carries no obs dependency) *)
let hits_total = Atomic.make 0
let misses_total = Atomic.make 0
let built_total = Atomic.make 0

type counters = { hits : int; misses : int; built : int }

let counters () =
  { hits = Atomic.get hits_total;
    misses = Atomic.get misses_total;
    built = Atomic.get built_total }

let is_terminator k =
  k = D.k_br || k = D.k_jump || k = D.k_bcond || k = D.k_syscall || k = D.k_pal

(* --- fuse-time decomposition helpers --- *)

(* uses masks carry at most two bits for every kind except Call_pal
   (handled generically); the empty mask reads the pinned-zero slot 31 *)
let two_of_mask mask =
  if mask = 0 then (31, 31)
  else
    let r1 = S.ntz (mask land (-mask)) in
    let rest = mask land (mask - 1) in
    if rest = 0 then (r1, r1) else (r1, S.ntz (rest land (-rest)))

(* The full issue equation, reached only by the block's first
   instruction (dynamic pairing against the previous block's exit
   state) and by cache-line-crossing ones (I-fetch check). Everything
   else takes the two-branch fast path in [issue_pre]. *)
let step_issue_slow m rs ~entry ~dual ~ipen ~pc ~pipe ~static_pair ~oready li
    =
  let fetch = if Cache.access m.S.icache pc then 0 else ipen in
  let pair =
    fetch = 0 && oready <= li
    && (if entry then
          dual
          && pc = rs.last_pc + 4
          && rs.last_pc land 7 = 0
          && (not rs.last_was_ctl)
          && rs.last_pipe >= 0
          && rs.last_pipe <> pipe
        else static_pair)
  in
  if pair then li
  else (let base = li + 1 in if oready > base then oready else base) + fetch

(* The hot-path prelude, fused into steps that are neither a trace
   entry, a line-crossing, nor a followed-branch landing: two scoreboard
   reads, then pairing reduced to [oready <= li]. Kept tiny so fast-arm
   closures compile frameless with no cold code inlined. *)
let[@inline always] pre_fast m li ~sp ~u1 ~u2 =
  let ready = m.S.ready in
  let a = Array.unsafe_get ready u1 in
  let b = Array.unsafe_get ready u2 in
  let oready = if a > b then a else b in
  if sp && oready <= li then li
  else
    let base = li + 1 in
    if oready > base then oready else base

(* Prelude for the remaining steps: scoreboard reads feeding the full
   issue equation (I-fetch plus, at the entry, dynamic pairing). *)
let[@inline always] pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2
    =
  let ready = m.S.ready in
  let a = Array.unsafe_get ready u1 in
  let b = Array.unsafe_get ready u2 in
  let oready = if a > b then a else b in
  step_issue_slow m rs ~entry ~dual ~ipen ~pc ~pipe ~static_pair:sp ~oready li

(* Result writeback shared by every operate arm. *)
let[@inline always] fin m rc lat issue v =
  rset_u m rc v;
  Array.unsafe_set m.S.ready rc (issue + lat);
  issue

(* Branch conditions dispatch on a fuse-time-captured index: a jump
   table per execution, no closure boundary around the register value. *)
let[@inline always] cond ci v =
  match ci with
  | 0 -> Int64.equal v 0L
  | 1 -> not (Int64.equal v 0L)
  | 2 -> Int64.compare v 0L < 0
  | 3 -> Int64.compare v 0L <= 0
  | 4 -> Int64.compare v 0L >= 0
  | 5 -> Int64.compare v 0L > 0
  | 6 -> Int64.equal (Int64.logand v 1L) 0L
  | _ -> Int64.equal (Int64.logand v 1L) 1L

(* What precedes a step inside its trace — decides which issue path it
   fuses to:
   - [P_entry]: the trace's first instruction; its predecessor is
     whatever ran before, so pairing needs the full dynamic test;
   - [P_straight pc pipe]: the preceding trace position at [pc]
     (fall-through, including a not-taken conditional) — pairing is
     static, and the I-fetch is elided off line boundaries;
   - [P_jumped]: the landing point of a followed unconditional branch —
     never pairs (the branch was control), and must touch the I-cache
     because the PC just moved to a new line. *)
type prev = P_entry | P_straight of int * int | P_jumped

(* Build the executor closure for the trace position holding instruction
   [idx] at address [pc]. [mid] marks a branch fused *inside* the trace:
   a conditional whose fall-through continues in-trace (taken = side
   exit, refunding the [d_*] suffix counts), or an unconditional whose
   target is the next trace position.

   Every arm exists in a fast- and a slow-prelude variant selected at
   fuse time. The split is what keeps the hot arms lean: inlining the
   cold issue path into one shared closure body would force it to load
   the cold path's captures (pc, penalties, pipe, entry flag) and spill
   registers on every execution, tripling the fast path's prologue. *)
let build_step (d : D.t) (cfg : S.config) ~pc ~prev ~mid ~d_insns ~d_loads
    ~d_stores ~d_nops idx : step =
  let dual = cfg.S.dual_issue in
  let ipen = cfg.S.icache_miss_penalty in
  let dpen = cfg.S.dcache_miss_penalty in
  let bpen = cfg.S.branch_penalty in
  let pipe = d.D.pipe.(idx) in
  let entry = match prev with P_entry -> true | _ -> false in
  let sp =
    match prev with
    | P_straight (ppc, ppipe) -> dual && ppc land 7 = 0 && ppipe <> pipe
    | P_entry | P_jumped -> false
  in
  let fast =
    (match prev with P_straight _ -> true | P_entry | P_jumped -> false)
    && pc mod cfg.S.line_bytes <> 0
  in
  let uses = d.D.uses.(idx) in
  let u1, u2 = two_of_mask uses in
  let lat = d.D.lat.(idx) in
  let k = d.D.kind.(idx) in
  let ra = d.D.ra.(idx)
  and rb = d.D.rb.(idx)
  and rc = d.D.rc.(idx)
  and imm = d.D.imm.(idx)
  and target = d.D.target.(idx) in
  if k >= D.k_op_base && k < D.k_syscall then
    if rc = 31 then
      (* dead destination (scheduling nop): pure issue timing *)
      if fast then fun m _rs li -> pre_fast m li ~sp ~u1 ~u2
      else
        fun m rs li -> pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2
    else if k < D.k_opi_base then begin
      (* register operand: one closure per opcode, the whole
         read-op-write chain syntactically direct so it stays unboxed *)
      if fast then
        match k - D.k_op_base with
        | 0 ->
            fun m _rs li ->
              let i = pre_fast m li ~sp ~u1 ~u2 in
              fin m rc lat i (Int64.add (rget m ra) (rget m rb))
        | 1 ->
            fun m _rs li ->
              let i = pre_fast m li ~sp ~u1 ~u2 in
              fin m rc lat i (Int64.sub (rget m ra) (rget m rb))
        | 2 ->
            fun m _rs li ->
              let i = pre_fast m li ~sp ~u1 ~u2 in
              fin m rc lat i (Int64.mul (rget m ra) (rget m rb))
        | 3 ->
            fun m _rs li ->
              let i = pre_fast m li ~sp ~u1 ~u2 in
              fin m rc lat i (bool64 (Int64.equal (rget m ra) (rget m rb)))
        | 4 ->
            fun m _rs li ->
              let i = pre_fast m li ~sp ~u1 ~u2 in
              fin m rc lat i
                (bool64 (Int64.compare (rget m ra) (rget m rb) < 0))
        | 5 ->
            fun m _rs li ->
              let i = pre_fast m li ~sp ~u1 ~u2 in
              fin m rc lat i
                (bool64 (Int64.compare (rget m ra) (rget m rb) <= 0))
        | 6 ->
            fun m _rs li ->
              let i = pre_fast m li ~sp ~u1 ~u2 in
              fin m rc lat i
                (bool64
                   (Int64.unsigned_compare (rget m ra) (rget m rb) < 0))
        | 7 ->
            fun m _rs li ->
              let i = pre_fast m li ~sp ~u1 ~u2 in
              fin m rc lat i
                (bool64
                   (Int64.unsigned_compare (rget m ra) (rget m rb) <= 0))
        | 8 ->
            fun m _rs li ->
              let i = pre_fast m li ~sp ~u1 ~u2 in
              fin m rc lat i (Int64.logand (rget m ra) (rget m rb))
        | 9 ->
            fun m _rs li ->
              let i = pre_fast m li ~sp ~u1 ~u2 in
              fin m rc lat i (Int64.logor (rget m ra) (rget m rb))
        | 10 ->
            fun m _rs li ->
              let i = pre_fast m li ~sp ~u1 ~u2 in
              fin m rc lat i (Int64.logxor (rget m ra) (rget m rb))
        | 11 ->
            fun m _rs li ->
              let i = pre_fast m li ~sp ~u1 ~u2 in
              fin m rc lat i
                (Int64.logor (rget m ra) (Int64.lognot (rget m rb)))
        | 12 ->
            fun m _rs li ->
              let i = pre_fast m li ~sp ~u1 ~u2 in
              fin m rc lat i
                (Int64.shift_left (rget m ra)
                   (Int64.to_int (Int64.logand (rget m rb) 63L)))
        | 13 ->
            fun m _rs li ->
              let i = pre_fast m li ~sp ~u1 ~u2 in
              fin m rc lat i
                (Int64.shift_right_logical (rget m ra)
                   (Int64.to_int (Int64.logand (rget m rb) 63L)))
        | _ ->
            fun m _rs li ->
              let i = pre_fast m li ~sp ~u1 ~u2 in
              fin m rc lat i
                (Int64.shift_right (rget m ra)
                   (Int64.to_int (Int64.logand (rget m rb) 63L)))
      else
        match k - D.k_op_base with
        | 0 ->
            fun m rs li ->
              let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
              fin m rc lat i (Int64.add (rget m ra) (rget m rb))
        | 1 ->
            fun m rs li ->
              let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
              fin m rc lat i (Int64.sub (rget m ra) (rget m rb))
        | 2 ->
            fun m rs li ->
              let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
              fin m rc lat i (Int64.mul (rget m ra) (rget m rb))
        | 3 ->
            fun m rs li ->
              let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
              fin m rc lat i (bool64 (Int64.equal (rget m ra) (rget m rb)))
        | 4 ->
            fun m rs li ->
              let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
              fin m rc lat i
                (bool64 (Int64.compare (rget m ra) (rget m rb) < 0))
        | 5 ->
            fun m rs li ->
              let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
              fin m rc lat i
                (bool64 (Int64.compare (rget m ra) (rget m rb) <= 0))
        | 6 ->
            fun m rs li ->
              let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
              fin m rc lat i
                (bool64
                   (Int64.unsigned_compare (rget m ra) (rget m rb) < 0))
        | 7 ->
            fun m rs li ->
              let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
              fin m rc lat i
                (bool64
                   (Int64.unsigned_compare (rget m ra) (rget m rb) <= 0))
        | 8 ->
            fun m rs li ->
              let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
              fin m rc lat i (Int64.logand (rget m ra) (rget m rb))
        | 9 ->
            fun m rs li ->
              let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
              fin m rc lat i (Int64.logor (rget m ra) (rget m rb))
        | 10 ->
            fun m rs li ->
              let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
              fin m rc lat i (Int64.logxor (rget m ra) (rget m rb))
        | 11 ->
            fun m rs li ->
              let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
              fin m rc lat i
                (Int64.logor (rget m ra) (Int64.lognot (rget m rb)))
        | 12 ->
            fun m rs li ->
              let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
              fin m rc lat i
                (Int64.shift_left (rget m ra)
                   (Int64.to_int (Int64.logand (rget m rb) 63L)))
        | 13 ->
            fun m rs li ->
              let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
              fin m rc lat i
                (Int64.shift_right_logical (rget m ra)
                   (Int64.to_int (Int64.logand (rget m rb) 63L)))
        | _ ->
            fun m rs li ->
              let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
              fin m rc lat i
                (Int64.shift_right (rget m ra)
                   (Int64.to_int (Int64.logand (rget m rb) 63L)))
    end
    else begin
      (* 8-bit literal operand, folded to a constant at fuse time *)
      let bI = Int64.of_int imm in
      let nbI = Int64.lognot bI in
      let bsh = imm land 63 in
      if fast then
        match k - D.k_opi_base with
        | 0 ->
            fun m _rs li ->
              let i = pre_fast m li ~sp ~u1 ~u2 in
              fin m rc lat i (Int64.add (rget m ra) bI)
        | 1 ->
            fun m _rs li ->
              let i = pre_fast m li ~sp ~u1 ~u2 in
              fin m rc lat i (Int64.sub (rget m ra) bI)
        | 2 ->
            fun m _rs li ->
              let i = pre_fast m li ~sp ~u1 ~u2 in
              fin m rc lat i (Int64.mul (rget m ra) bI)
        | 3 ->
            fun m _rs li ->
              let i = pre_fast m li ~sp ~u1 ~u2 in
              fin m rc lat i (bool64 (Int64.equal (rget m ra) bI))
        | 4 ->
            fun m _rs li ->
              let i = pre_fast m li ~sp ~u1 ~u2 in
              fin m rc lat i (bool64 (Int64.compare (rget m ra) bI < 0))
        | 5 ->
            fun m _rs li ->
              let i = pre_fast m li ~sp ~u1 ~u2 in
              fin m rc lat i (bool64 (Int64.compare (rget m ra) bI <= 0))
        | 6 ->
            fun m _rs li ->
              let i = pre_fast m li ~sp ~u1 ~u2 in
              fin m rc lat i
                (bool64 (Int64.unsigned_compare (rget m ra) bI < 0))
        | 7 ->
            fun m _rs li ->
              let i = pre_fast m li ~sp ~u1 ~u2 in
              fin m rc lat i
                (bool64 (Int64.unsigned_compare (rget m ra) bI <= 0))
        | 8 ->
            fun m _rs li ->
              let i = pre_fast m li ~sp ~u1 ~u2 in
              fin m rc lat i (Int64.logand (rget m ra) bI)
        | 9 ->
            fun m _rs li ->
              let i = pre_fast m li ~sp ~u1 ~u2 in
              fin m rc lat i (Int64.logor (rget m ra) bI)
        | 10 ->
            fun m _rs li ->
              let i = pre_fast m li ~sp ~u1 ~u2 in
              fin m rc lat i (Int64.logxor (rget m ra) bI)
        | 11 ->
            fun m _rs li ->
              let i = pre_fast m li ~sp ~u1 ~u2 in
              fin m rc lat i (Int64.logor (rget m ra) nbI)
        | 12 ->
            fun m _rs li ->
              let i = pre_fast m li ~sp ~u1 ~u2 in
              fin m rc lat i (Int64.shift_left (rget m ra) bsh)
        | 13 ->
            fun m _rs li ->
              let i = pre_fast m li ~sp ~u1 ~u2 in
              fin m rc lat i (Int64.shift_right_logical (rget m ra) bsh)
        | _ ->
            fun m _rs li ->
              let i = pre_fast m li ~sp ~u1 ~u2 in
              fin m rc lat i (Int64.shift_right (rget m ra) bsh)
      else
        match k - D.k_opi_base with
        | 0 ->
            fun m rs li ->
              let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
              fin m rc lat i (Int64.add (rget m ra) bI)
        | 1 ->
            fun m rs li ->
              let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
              fin m rc lat i (Int64.sub (rget m ra) bI)
        | 2 ->
            fun m rs li ->
              let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
              fin m rc lat i (Int64.mul (rget m ra) bI)
        | 3 ->
            fun m rs li ->
              let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
              fin m rc lat i (bool64 (Int64.equal (rget m ra) bI))
        | 4 ->
            fun m rs li ->
              let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
              fin m rc lat i (bool64 (Int64.compare (rget m ra) bI < 0))
        | 5 ->
            fun m rs li ->
              let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
              fin m rc lat i (bool64 (Int64.compare (rget m ra) bI <= 0))
        | 6 ->
            fun m rs li ->
              let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
              fin m rc lat i
                (bool64 (Int64.unsigned_compare (rget m ra) bI < 0))
        | 7 ->
            fun m rs li ->
              let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
              fin m rc lat i
                (bool64 (Int64.unsigned_compare (rget m ra) bI <= 0))
        | 8 ->
            fun m rs li ->
              let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
              fin m rc lat i (Int64.logand (rget m ra) bI)
        | 9 ->
            fun m rs li ->
              let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
              fin m rc lat i (Int64.logor (rget m ra) bI)
        | 10 ->
            fun m rs li ->
              let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
              fin m rc lat i (Int64.logxor (rget m ra) bI)
        | 11 ->
            fun m rs li ->
              let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
              fin m rc lat i (Int64.logor (rget m ra) nbI)
        | 12 ->
            fun m rs li ->
              let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
              fin m rc lat i (Int64.shift_left (rget m ra) bsh)
        | 13 ->
            fun m rs li ->
              let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
              fin m rc lat i (Int64.shift_right_logical (rget m ra) bsh)
        | _ ->
            fun m rs li ->
              let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
              fin m rc lat i (Int64.shift_right (rget m ra) bsh)
    end
  else if k = D.k_lda then begin
    let disp = Int64.of_int imm in
    if ra = 31 then
      (* the canonical nop *)
      if fast then fun m _rs li -> pre_fast m li ~sp ~u1 ~u2
      else
        fun m rs li -> pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2
    else if fast then
      fun m _rs li ->
        let i = pre_fast m li ~sp ~u1 ~u2 in
        fin m ra lat i (Int64.add (rget m rb) disp)
    else
      fun m rs li ->
        let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
        fin m ra lat i (Int64.add (rget m rb) disp)
  end
  else if k = D.k_ldq then begin
    if ra = 31 then
      (* dead load: the access (cache state, faults) still happens *)
      if fast then
        fun m _rs li ->
          let i = pre_fast m li ~sp ~u1 ~u2 in
          let addr = Int64.to_int (rget m rb) + imm in
          ignore (Cache.access m.S.dcache addr);
          ignore (read64 m addr);
          i
      else
        fun m rs li ->
          let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
          let addr = Int64.to_int (rget m rb) + imm in
          ignore (Cache.access m.S.dcache addr);
          ignore (read64 m addr);
          i
    else if fast then
      fun m _rs li ->
        let i = pre_fast m li ~sp ~u1 ~u2 in
        let addr = Int64.to_int (rget m rb) + imm in
        let l = if Cache.access m.S.dcache addr then lat else lat + dpen in
        rset_u m ra (read64 m addr);
        Array.unsafe_set m.S.ready ra (i + l);
        i
    else
      fun m rs li ->
        let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
        let addr = Int64.to_int (rget m rb) + imm in
        let l = if Cache.access m.S.dcache addr then lat else lat + dpen in
        rset_u m ra (read64 m addr);
        Array.unsafe_set m.S.ready ra (i + l);
        i
  end
  else if k = D.k_stq then begin
    if fast then
      fun m _rs li ->
        let i = pre_fast m li ~sp ~u1 ~u2 in
        let addr = Int64.to_int (rget m rb) + imm in
        ignore (Cache.access m.S.dcache addr);
        write64 m addr (rget m ra);
        i
    else
      fun m rs li ->
        let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
        let addr = Int64.to_int (rget m rb) + imm in
        ignore (Cache.access m.S.dcache addr);
        write64 m addr (rget m ra);
        i
  end
  else if k = D.k_bcond then begin
    let ci = rc in
    if mid then
      (* side exit: fall-through continues inside the trace and writes
         nothing; taken leaves the trace, restoring the control state
         the next trace's entry step will read and refunding the
         retirement counters for the suffix it skipped *)
      if fast then
        fun m rs li ->
          let issue = pre_fast m li ~sp ~u1 ~u2 in
          if cond ci (rget m ra) then begin
            m.S.ninsns <- m.S.ninsns - d_insns;
            m.S.loads <- m.S.loads - d_loads;
            m.S.stores <- m.S.stores - d_stores;
            m.S.nops <- m.S.nops - d_nops;
            rs.last_pc <- pc;
            rs.last_pipe <- pipe;
            rs.last_was_ctl <- true;
            rs.pc_next <- target;
            rs.jumped <- true;
            issue + bpen
          end
          else issue
      else
        fun m rs li ->
          let issue =
            pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2
          in
          if cond ci (rget m ra) then begin
            m.S.ninsns <- m.S.ninsns - d_insns;
            m.S.loads <- m.S.loads - d_loads;
            m.S.stores <- m.S.stores - d_stores;
            m.S.nops <- m.S.nops - d_nops;
            rs.last_pc <- pc;
            rs.last_pipe <- pipe;
            rs.last_was_ctl <- true;
            rs.pc_next <- target;
            rs.jumped <- true;
            issue + bpen
          end
          else issue
    else if fast then
      fun m rs li ->
        let issue = pre_fast m li ~sp ~u1 ~u2 in
        rs.last_pc <- pc;
        rs.last_pipe <- pipe;
        if cond ci (rget m ra) then begin
          rs.last_was_ctl <- true;
          rs.pc_next <- target;
          issue + bpen
        end
        else begin
          rs.last_was_ctl <- false;
          rs.pc_next <- pc + 4;
          issue
        end
    else
      fun m rs li ->
        let issue = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
        rs.last_pc <- pc;
        rs.last_pipe <- pipe;
        if cond ci (rget m ra) then begin
          rs.last_was_ctl <- true;
          rs.pc_next <- target;
          issue + bpen
        end
        else begin
          rs.last_was_ctl <- false;
          rs.pc_next <- pc + 4;
          issue
        end
  end
  else if k = D.k_br then begin
    let link = Int64.of_int (pc + 4) in
    if mid then
      (* followed at fuse time: the next trace position IS the target,
         so no control state needs writing — the landing step was fused
         as [P_jumped] and never consults it *)
      if ra = 31 then
        if fast then fun m _rs li -> pre_fast m li ~sp ~u1 ~u2 + bpen
        else
          fun m rs li ->
            pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 + bpen
      else if fast then
        fun m _rs li ->
          let issue = pre_fast m li ~sp ~u1 ~u2 in
          rset_u m ra link;
          Array.unsafe_set m.S.ready ra (issue + lat);
          issue + bpen
      else
        fun m rs li ->
          let issue =
            pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2
          in
          rset_u m ra link;
          Array.unsafe_set m.S.ready ra (issue + lat);
          issue + bpen
    else
      fun m rs li ->
        let issue =
          if fast then pre_fast m li ~sp ~u1 ~u2
          else pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2
        in
        if ra <> 31 then begin
          rset_u m ra link;
          Array.unsafe_set m.S.ready ra (issue + lat)
        end;
        rs.last_pc <- pc;
        rs.last_pipe <- pipe;
        rs.last_was_ctl <- true;
        rs.pc_next <- target;
        issue + bpen
  end
  else if k = D.k_jump then begin
    let link = Int64.of_int (pc + 4) in
    if fast then
      fun m rs li ->
        let issue = pre_fast m li ~sp ~u1 ~u2 in
        let tgt = Int64.to_int (rget m rb) land lnot 3 in
        if ra <> 31 then begin
          rset_u m ra link;
          Array.unsafe_set m.S.ready ra (issue + lat)
        end;
        rs.last_pc <- pc;
        rs.last_pipe <- pipe;
        rs.last_was_ctl <- true;
        rs.pc_next <- tgt;
        issue + bpen
    else
      fun m rs li ->
        let issue = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
        let tgt = Int64.to_int (rget m rb) land lnot 3 in
        if ra <> 31 then begin
          rset_u m ra link;
          Array.unsafe_set m.S.ready ra (issue + lat)
        end;
        rs.last_pc <- pc;
        rs.last_pipe <- pipe;
        rs.last_was_ctl <- true;
        rs.pc_next <- tgt;
        issue + bpen
  end
  else if k = D.k_syscall then begin
    (* Call_pal reads four argument registers: keep the general mask
       walk for this one (rare) kind *)
    let defs = d.D.defs.(idx) in
    fun m rs li ->
      let oready = S.max_ready m.S.ready uses in
      let issue =
        if fast then
          if sp && oready <= li then li
          else
            let base = li + 1 in
            if oready > base then oready else base
        else
          step_issue_slow m rs ~entry ~dual ~ipen ~pc ~pipe ~static_pair:sp
            ~oready li
      in
      (match S.syscall m with
      | Some code ->
          rs.exited <- true;
          rs.exit_code <- code
      | None -> ());
      S.set_ready m.S.ready defs (issue + lat);
      rs.last_pc <- pc;
      rs.last_pipe <- pipe;
      rs.last_was_ctl <- true;
      rs.pc_next <- pc + 4;
      issue
  end
  else fun _m _rs _li -> raise (S.Fault (S.Unknown_pal imm))
let fuse t e =
  let d = t.decoded in
  let kind = d.D.kind in
  let n = Array.length kind in
  let base = (D.image d).Linker.Image.text_base in
  (* Trace collection: walk forward from the entry, following
     fall-through edges, the fall-through side of conditionals (side
     exits), and statically-targeted unconditional branches (which
     re-enter the walk at their target — a loop backedge unrolls the
     loop into the trace until the cap). A branch is only fused [mid]
     when its continuation both exists in the image and fits under the
     cap; otherwise it terminates the trace and writes full control
     state like any basic-block terminator. *)
  let elems = ref [] in
  let count = ref 0 in
  let has_term = ref false in
  let rec collect prev i =
    let k = Array.unsafe_get kind i in
    let pc = base + (4 * i) in
    if k = D.k_bcond && !count + 1 < max_block_len && i + 1 < n then begin
      elems := (i, pc, prev, true) :: !elems;
      incr count;
      collect (P_straight (pc, d.D.pipe.(i))) (i + 1)
    end
    else if k = D.k_br then begin
      let tidx = (d.D.target.(i) - base) asr 2 in
      if !count + 1 < max_block_len && tidx >= 0 && tidx < n then begin
        elems := (i, pc, prev, true) :: !elems;
        incr count;
        collect P_jumped tidx
      end
      else begin
        elems := (i, pc, prev, false) :: !elems;
        has_term := true
      end
    end
    else if is_terminator k then begin
      elems := (i, pc, prev, false) :: !elems;
      has_term := true
    end
    else begin
      elems := (i, pc, prev, false) :: !elems;
      incr count;
      if !count < max_block_len && i + 1 < n then
        collect (P_straight (pc, d.D.pipe.(i))) (i + 1)
    end
  in
  collect P_entry e;
  let arr = Array.of_list (List.rev !elems) in
  let len = Array.length arr in
  let t_loads = ref 0 and t_stores = ref 0 and t_nops = ref 0 in
  Array.iter
    (fun (i, _, _, _) ->
      let k = Array.unsafe_get kind i in
      if k = D.k_ldq then incr t_loads
      else if k = D.k_stq then incr t_stores;
      if d.D.flags.(i) land D.flag_nop <> 0 then incr t_nops)
    arr;
  let t_loads = !t_loads and t_stores = !t_stores and t_nops = !t_nops in
  (* prefix counts walk along with the build so each side exit captures
     the exact suffix it must refund when taken *)
  let pl = ref 0 and ps = ref 0 and pn = ref 0 in
  let has_exit = ref false in
  let steps =
    Array.mapi
      (fun j (i, pc, prev, mid) ->
        let k = Array.unsafe_get kind i in
        if k = D.k_ldq then incr pl else if k = D.k_stq then incr ps;
        if d.D.flags.(i) land D.flag_nop <> 0 then incr pn;
        if mid && k = D.k_bcond then has_exit := true;
        build_step d t.config ~pc ~prev ~mid
          ~d_insns:(len - (j + 1))
          ~d_loads:(t_loads - !pl)
          ~d_stores:(t_stores - !ps)
          ~d_nops:(t_nops - !pn)
          i)
      arr
  in
  let seal =
    if !has_term then None
    else begin
      let li, lpc, _, _ = arr.(len - 1) in
      let lpipe = d.D.pipe.(li) in
      Some
        (fun rs ->
          rs.last_pc <- lpc;
          rs.last_pipe <- lpipe;
          rs.last_was_ctl <- false;
          rs.pc_next <- lpc + 4)
    end
  in
  Atomic.incr built_total;
  { b_len = len;
    b_idx = Array.map (fun (i, _, _, _) -> i) arr;
    b_loads = t_loads;
    b_stores = t_stores;
    b_nops = t_nops;
    b_has_exit = !has_exit;
    b_steps = steps;
    b_seal = seal }

let create ?(config = S.default_config) (d : D.t) =
  { decoded = d;
    config;
    execs = Array.make (Array.length d.D.kind) None;
    hits = Atomic.make 0;
    misses = Atomic.make 0 }

(* Cache fills are racy-but-idempotent across domains: a cell flips from
   [None] to a valid executor exactly once per domain that loses the
   race, and executors are pure functions of (decoded, config), so a
   duplicate build is wasted work, never wrong results. *)
let executor t idx =
  match Array.unsafe_get t.execs idx with
  | Some bi -> bi
  | None ->
      let bi = fuse t idx in
      Array.unsafe_set t.execs idx (Some bi);
      bi

let block_len t idx =
  if idx < 0 || idx >= Array.length t.decoded.D.kind then
    invalid_arg "Blocks.block_len";
  (executor t idx).b_len

(* The block body: issue cycles thread through [li] in a register; six
   arguments keep everything off the heap and the recursion compiles to
   a loop. *)
let rec exec_steps (steps : step array) len j m rs li =
  if j >= len then li
  else exec_steps steps len (j + 1) m rs ((Array.unsafe_get steps j) m rs li)

(* Variant for traces carrying side exits, and for a plain dispatch the
   instruction limit cuts short: one well-predicted flag test per
   instruction buys early exit when a fused conditional takes. *)
let rec exec_steps_chk (steps : step array) len j m rs li =
  if j >= len then li
  else
    let li' = (Array.unsafe_get steps j) m rs li in
    if rs.jumped then li' else exec_steps_chk steps len (j + 1) m rs li'

(* A profiled dispatch runs the trace's first [lim] steps through this
   loop, crediting each step to its instruction index once it returns,
   so a faulting instruction counts nowhere — the reference fires no
   probe for it either. The miss counters are loaded as fields (a
   [Cache.misses] call per step would go through the module block), and
   a miss array is written only when its counter moved: most steps
   touch neither cache. *)
let exec_steps_prof bi (p : profile) m rs li ~lim =
  let steps = bi.b_steps and idx = bi.b_idx in
  let ic = m.S.icache and dc = m.S.dcache in
  let li = ref li and j = ref 0 in
  let im = ref ic.Cache.misses and dm = ref dc.Cache.misses in
  while !j < lim && not rs.jumped do
    let li' = (Array.unsafe_get steps !j) m rs !li in
    let i = Array.unsafe_get idx !j in
    Array.unsafe_set p.retired i (Array.unsafe_get p.retired i + 1);
    Array.unsafe_set p.cycles i (Array.unsafe_get p.cycles i + li' - !li);
    li := li';
    if ic.Cache.misses <> !im then begin
      Array.unsafe_set p.imisses i
        (Array.unsafe_get p.imisses i + ic.Cache.misses - !im);
      im := ic.Cache.misses
    end;
    if dc.Cache.misses <> !dm then begin
      Array.unsafe_set p.dmisses i
        (Array.unsafe_get p.dmisses i + dc.Cache.misses - !dm);
      dm := dc.Cache.misses
    end;
    incr j
  done;
  !li

let run ?profile t =
  let config = t.config in
  let d = t.decoded in
  let n = Array.length d.D.kind in
  (match profile with
  | Some p when Array.length p.retired <> n -> invalid_arg "Blocks.run: profile"
  | _ -> ());
  let image = D.image d in
  let m = S.create_machine config image in
  S.boot m image;
  let text_base = m.S.text_base in
  let max_insns = config.S.max_insns in
  (* a profiled run fails the whole-trace test at every dispatch, so the
     plain path tests nothing extra for it *)
  let whole_limit = if Option.is_some profile then -1 else max_insns in
  let execs = t.execs in
  let rs =
    { pc_next = image.Linker.Image.entry;
      last_issue = -1;
      last_pc = min_int;
      last_pipe = -1;
      last_was_ctl = true;
      jumped = false;
      exited = false;
      exit_code = 0L }
  in
  let hits = ref 0 and misses = ref 0 in
  let result =
    try
      while not rs.exited do
        if m.S.ninsns >= max_insns then raise (S.Fault S.Insn_limit_reached);
        let pc = rs.pc_next in
        let idx = (pc - text_base) asr 2 in
        if idx < 0 || idx >= n then
          raise (S.Fault (S.Out_of_range_access pc));
        let bi =
          match Array.unsafe_get execs idx with
          | Some bi ->
              incr hits;
              bi
          | None ->
              let bi = fuse t idx in
              Array.unsafe_set execs idx (Some bi);
              incr misses;
              bi
        in
        let len = bi.b_len in
        let n0 = m.S.ninsns in
        m.S.ninsns <- n0 + len;
        m.S.loads <- m.S.loads + bi.b_loads;
        m.S.stores <- m.S.stores + bi.b_stores;
        m.S.nops <- m.S.nops + bi.b_nops;
        rs.jumped <- false;
        let li =
          if n0 + len <= whole_limit then
            if bi.b_has_exit then
              exec_steps_chk bi.b_steps len 0 m rs rs.last_issue
            else exec_steps bi.b_steps len 0 m rs rs.last_issue
          else
            (* a profiled dispatch, or one the instruction limit cuts
               short: run only the steps before the limit — [ninsns]
               already counts the whole trace, so the test at the top of
               the loop then faults where the per-instruction reference
               would, unless a side exit left the trace first *)
            let lim = min len (max_insns - n0) in
            match profile with
            | Some p -> exec_steps_prof bi p m rs rs.last_issue ~lim
            | None -> exec_steps_chk bi.b_steps lim 0 m rs rs.last_issue
        in
        rs.last_issue <- li;
        match bi.b_seal with
        | Some f when not rs.jumped -> f rs
        | _ -> ()
      done;
      Ok (S.outcome_of m ~last_issue:rs.last_issue ~exit_code:rs.exit_code)
    with S.Fault e -> Error e
  in
  if !hits > 0 then begin
    ignore (Atomic.fetch_and_add t.hits !hits);
    ignore (Atomic.fetch_and_add hits_total !hits)
  end;
  if !misses > 0 then begin
    ignore (Atomic.fetch_and_add t.misses !misses);
    ignore (Atomic.fetch_and_add misses_total !misses)
  end;
  result
