(* Trace superinstructions: the simulator's fused fast path.

   A decoded image ([Linker.Image.decoded]) is carved — lazily, per
   entry point actually reached — into traces (superblocks): a run of
   instructions that follows fall-through edges, the fall-through side
   of conditional branches, and statically-targeted unconditional branches, ending at
   a register jump, a system call, a PAL trap, a branch that leaves the
   image, or the length cap. A loop body therefore fuses into one long
   trace that unrolls the loop up to [max_block_len] instructions — one
   dispatch per hundreds of retired instructions instead of one per
   basic block. A conditional branch inside a trace is a side exit:
   fall-through continues inside the trace at full speed, and the taken
   direction leaves the trace. Each trace is fused once into threaded
   code: one executor closure per instruction (a step), built back to
   front so that each step captures its successor and tail-calls it,
   with every static fact resolved at fuse time:

   - constructor dispatch: the operator is selected when the closure is
     built (one match on the [Isa.Insn.t] constructor and operator) —
     one specialized closure per opcode, capturing register numbers,
     displacements and targets as plain ints, so the read-op-write chain
     compiles to direct unboxed int64 primitives (a closure-valued
     operator would force boxing both operands and the result at the
     call boundary);
   - issue timing threads through an unboxed int argument: a step takes
     the previous issue cycle and passes its own to the next step, so
     the trace never touches a mutable record between instructions —
     control-flow state is written only where the trace is left;
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

   A trace ends where a step returns instead of calling on: a
   terminator, a taken side exit, or — for a trace with no terminator
   (length-capped, or the image's text ran out) — a final seal step
   that leaves the fall-through control state. The dispatch loop calls
   a trace's first step and gets the last issue cycle back.

   Executors are cached by entry index, so a branch into the middle of
   an already-fused trace simply fuses (and caches) a second trace
   starting there — entry-indexed caching is what keeps fused execution
   exactly equivalent to instruction-at-a-time execution.

   Everything observable — cycles, cache misses, fault kinds and fault
   PCs, output, exit codes — is bit-identical to [Cpu.run_reference];
   the differential tests and the fuzzer's stats-agreement oracle
   enforce this.

   Profiling: every step credits its own retirement, issue-cycle
   advance and cache misses at its instruction index in the run's
   profile before it calls on, so the per-index sums equal the reference
   interpreter's probe events summed per PC. Plain and profiled runs
   share the executors and the dispatch loop; a plain run credits into
   a scratch profile it drops.

   Memory: the steps' loads and stores test the allocated parts of
   data+heap and of the stack inline; an access outside them (a
   never-written word, a store that grows memory, a fault) takes
   [State]'s cold path, shared with the reference interpreter. *)

module D = Linker.Image
module I = Isa.Insn
module S = State

(* Local copies of State's register-file and memory primitives, and of
   [Cache.access]. The build compiles libraries with [-opaque] (and
   without flambda), so a cross-module [S.rget] is an indirect call
   through State's module block — and because its argument and result
   are [int64], every such call boxes: measured at ~9 minor words
   allocated per simulated instruction, the single largest cost in the
   fused loop. Same-module definitions inline under any build profile
   and keep the whole read-op-write chain unboxed. Keep these in sync
   with State and Cache. Memory accesses test the allocated parts of
   data+heap and of the stack inline; anything else (a never-written
   word, a write that grows memory, a fault) takes State's shared cold
   path, whose boxing is paid only there. *)
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

(* [Cache.access]: a hit changes no state, a miss is [Cache.fill] *)
let[@inline always] access (c : Cache.t) addr =
  let line = addr lsr c.Cache.line_shift in
  if Array.unsafe_get c.Cache.tags (line land c.Cache.index_mask) = line then
    true
  else (Cache.fill c addr; false)

let max_block_len = 512

type rstate = {
  mutable pc_next : int;
  mutable last_issue : int;
  mutable last_pc : int;
  mutable last_pipe : int; (* -1 = none *)
  mutable last_was_ctl : bool;
  mutable imiss : bool; (* the running step's I-fetch missed *)
  mutable exited : bool;
  mutable exit_code : int64;
  (* the run's per-instruction counters (see [profile]) *)
  retired : int array;
  cycles : int array;
  imisses : int array;
  dmisses : int array;
}

(* A step takes the previous instruction's issue cycle, executes, and
   tail-calls the trace's next step with its own; the step that leaves
   the trace returns it instead. *)
type step = S.machine -> rstate -> int -> int

type binfo = {
  b_entry : step; (* the trace's first step *)
  b_len : int;
  b_loads : int;  (* static: every Ldq retires one load *)
  b_stores : int;
  b_nops : int;
}

type t = {
  decoded : D.decoded;
  config : S.config;
  execs : binfo option array; (* entry index -> fused executor *)
}

(* Per-instruction counters, filled by [run ~profile]. Plain int arrays
   updated only from this module: see the [-opaque] note above. *)
type profile = {
  retired : int array;
  cycles : int array;
  imisses : int array;
  dmisses : int array;
}

let profile (d : D.decoded) =
  let n = Array.length d.D.insns in
  { retired = Array.make n 0;
    cycles = Array.make n 0;
    imisses = Array.make n 0;
    dmisses = Array.make n 0 }

let decoded t = t.decoded
let config t = t.config

let executors_cached t =
  Array.fold_left (fun n e -> if e = None then n else n + 1) 0 t.execs

(* process-wide totals and the counts' one home: Reports.Measure
   registers Obs.Metrics readers over them (this library carries no obs
   dependency) *)
let hits_total = Atomic.make 0
let misses_total = Atomic.make 0
let built_total = Atomic.make 0

type counters = { hits : int; misses : int; built : int }

let counters () =
  { hits = Atomic.get hits_total;
    misses = Atomic.get misses_total;
    built = Atomic.get built_total }

(* --- fuse-time decomposition helpers --- *)

(* the issue pipe as an int: 0 = E, 1 = A ([last_pipe] keeps -1 for none) *)
let pipe_index insn =
  match Isa.Latency.pipe_of insn with Isa.Latency.E -> 0 | Isa.Latency.A -> 1

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
   else takes the two-branch fast path in [pre_fast]. A fetch miss
   raises [rs.imiss] for the step to credit once it has executed. *)
let step_issue_slow m rs ~entry ~dual ~ipen ~pc ~pipe ~static_pair ~oready li
    =
  let fetch =
    if access m.S.icache pc then 0 else (rs.imiss <- true; ipen)
  in
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

(* Write a result and the cycle it is ready in. *)
let[@inline always] wb m rc lat i v =
  rset_u m rc v;
  Array.unsafe_set m.S.ready rc (i + lat)

(* The end of every step, once its instruction has executed (so a
   faulting instruction credits nothing): [ret] credits one retirement
   and the issue-cycle advance [issue - li] to instruction [ix] and
   returns [issue]; [go] credits and tail-calls the next step. The
   [_fetch] forms, for the steps whose fetch touches the I-cache, also
   credit a miss that fetch flagged. *)
let[@inline always] credit (rs : rstate) ix li issue =
  let c = rs.cycles and r = rs.retired in
  Array.unsafe_set c ix (Array.unsafe_get c ix + issue - li);
  Array.unsafe_set r ix (Array.unsafe_get r ix + 1)

let[@inline always] credit_fetch (rs : rstate) ix li issue =
  credit rs ix li issue;
  if rs.imiss then begin
    rs.imiss <- false;
    Array.unsafe_set rs.imisses ix (Array.unsafe_get rs.imisses ix + 1)
  end

let[@inline always] credit_dmiss (rs : rstate) ix =
  Array.unsafe_set rs.dmisses ix (Array.unsafe_get rs.dmisses ix + 1)

let[@inline always] ret rs ix li issue = credit rs ix li issue; issue
let[@inline always] ret_fetch rs ix li issue = credit_fetch rs ix li issue; issue

let[@inline always] go m rs ix (next : step) li issue =
  credit rs ix li issue;
  next m rs issue

let[@inline always] go_fetch m rs ix (next : step) li issue =
  credit_fetch rs ix li issue;
  next m rs issue

(* The end of an operate step. *)
let[@inline always] fin m rs ix next li rc lat i v =
  wb m rc lat i v;
  go m rs ix next li i

let[@inline always] fin_fetch m rs ix next li rc lat i v =
  wb m rc lat i v;
  go_fetch m rs ix next li i

(* Leave the trace: the control state the next trace's entry step
   reads. *)
let[@inline always] leave rs ~pc ~pipe ~ctl ~next_pc =
  rs.last_pc <- pc;
  rs.last_pipe <- pipe;
  rs.last_was_ctl <- ctl;
  rs.pc_next <- next_pc

(* A taken side exit refunds the retirement counters of the trace
   suffix it skips. *)
let[@inline always] refund m ~d_insns ~d_loads ~d_stores ~d_nops =
  m.S.ninsns <- m.S.ninsns - d_insns;
  m.S.loads <- m.S.loads - d_loads;
  m.S.stores <- m.S.stores - d_stores;
  m.S.nops <- m.S.nops - d_nops

(* Branch conditions dispatch on the fuse-time-captured condition, a
   constant constructor: a jump table per execution, no closure boundary
   around the register value. The match lives here, not behind a call
   into Isa: see the [-opaque] note above. *)
let[@inline always] cond (c : I.cond) v =
  match c with
  | I.Beq -> Int64.equal v 0L
  | I.Bne -> not (Int64.equal v 0L)
  | I.Blt -> Int64.compare v 0L < 0
  | I.Ble -> Int64.compare v 0L <= 0
  | I.Bge -> Int64.compare v 0L >= 0
  | I.Bgt -> Int64.compare v 0L > 0
  | I.Blbc -> Int64.equal (Int64.logand v 1L) 0L
  | I.Blbs -> Int64.equal (Int64.logand v 1L) 1L

(* What precedes a step inside its trace — decides which issue path it
   fuses to:
   - [P_entry]: the trace's first instruction; its predecessor is
     whatever ran before, so pairing needs the full dynamic test;
   - [P_straight pc pipe]: the preceding trace position at [pc]
     (fall-through, including a not-taken conditional) — pairing is
     static, and the I-fetch is elided off line boundaries;
   - [P_landing]: the landing point of a followed unconditional branch —
     never pairs (the branch was control), and must touch the I-cache
     because the PC just moved to a new line. *)
type prev = P_entry | P_straight of int * int | P_landing

(* Build the step for the trace position holding instruction [ix], at
   address [pc], whose successor in the trace is [next]. [mid] marks a
   branch fused *inside* the trace: a conditional whose fall-through
   continues in-trace (taken = side exit, refunding the [d_*] suffix
   counts), or an unconditional whose target is the next trace
   position.

   The match on [insn]'s constructor (and operator) runs here, once;
   each arm binds register numbers, displacements and targets as plain
   ints, so a closure captures those and never the instruction. Every
   arm exists in a fast- and a slow-prelude variant selected at fuse
   time. The split is what keeps the hot arms lean: inlining the cold
   issue path into one shared closure body would force it to load the
   cold path's captures (pc, penalties, pipe, entry flag) and spill
   registers on every execution, tripling the fast path's prologue. *)
let build_step (cfg : S.config) ~ix ~pc ~prev ~mid ~d_insns ~d_loads ~d_stores
    ~d_nops ~(next : step) insn : step =
  let dual = cfg.S.dual_issue in
  let ipen = cfg.S.icache_miss_penalty in
  let dpen = cfg.S.dcache_miss_penalty in
  let bpen = cfg.S.branch_penalty in
  let pipe = pipe_index insn in
  let entry = match prev with P_entry -> true | _ -> false in
  let sp =
    match prev with
    | P_straight (ppc, ppipe) -> dual && ppc land 7 = 0 && ppipe <> pipe
    | P_entry | P_landing -> false
  in
  let fast =
    (match prev with P_straight _ -> true | P_entry | P_landing -> false)
    && pc mod cfg.S.line_bytes <> 0
  in
  let uses = I.uses_mask insn in
  let u1, u2 = two_of_mask uses in
  let lat = Isa.Latency.latency insn in
  match insn with
  | I.Op { rc; _ } when (rc :> int) = 31 ->
      (* dead destination (scheduling nop): pure issue timing *)
      if fast then fun m rs li -> go m rs ix next li (pre_fast m li ~sp ~u1 ~u2)
      else
        fun m rs li ->
          go_fetch m rs ix next li
            (pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2)
  | I.Op { op; ra; rb = I.Rb rb; rc } -> begin
      (* register operand: one closure per opcode, the whole
         read-op-write chain syntactically direct so it stays unboxed *)
      let ra = (ra :> int) and rb = (rb :> int) and rc = (rc :> int) in
      if fast then
        match op with
        | I.Addq ->
            fun m rs li ->
              let i = pre_fast m li ~sp ~u1 ~u2 in
              fin m rs ix next li rc lat i (Int64.add (rget m ra) (rget m rb))
        | I.Subq ->
            fun m rs li ->
              let i = pre_fast m li ~sp ~u1 ~u2 in
              fin m rs ix next li rc lat i (Int64.sub (rget m ra) (rget m rb))
        | I.Mulq ->
            fun m rs li ->
              let i = pre_fast m li ~sp ~u1 ~u2 in
              fin m rs ix next li rc lat i (Int64.mul (rget m ra) (rget m rb))
        | I.Cmpeq ->
            fun m rs li ->
              let i = pre_fast m li ~sp ~u1 ~u2 in
              fin m rs ix next li rc lat i
                (bool64 (Int64.equal (rget m ra) (rget m rb)))
        | I.Cmplt ->
            fun m rs li ->
              let i = pre_fast m li ~sp ~u1 ~u2 in
              fin m rs ix next li rc lat i
                (bool64 (Int64.compare (rget m ra) (rget m rb) < 0))
        | I.Cmple ->
            fun m rs li ->
              let i = pre_fast m li ~sp ~u1 ~u2 in
              fin m rs ix next li rc lat i
                (bool64 (Int64.compare (rget m ra) (rget m rb) <= 0))
        | I.Cmpult ->
            fun m rs li ->
              let i = pre_fast m li ~sp ~u1 ~u2 in
              fin m rs ix next li rc lat i
                (bool64
                   (Int64.unsigned_compare (rget m ra) (rget m rb) < 0))
        | I.Cmpule ->
            fun m rs li ->
              let i = pre_fast m li ~sp ~u1 ~u2 in
              fin m rs ix next li rc lat i
                (bool64
                   (Int64.unsigned_compare (rget m ra) (rget m rb) <= 0))
        | I.And_ ->
            fun m rs li ->
              let i = pre_fast m li ~sp ~u1 ~u2 in
              fin m rs ix next li rc lat i
                (Int64.logand (rget m ra) (rget m rb))
        | I.Bis ->
            fun m rs li ->
              let i = pre_fast m li ~sp ~u1 ~u2 in
              fin m rs ix next li rc lat i (Int64.logor (rget m ra) (rget m rb))
        | I.Xor ->
            fun m rs li ->
              let i = pre_fast m li ~sp ~u1 ~u2 in
              fin m rs ix next li rc lat i
                (Int64.logxor (rget m ra) (rget m rb))
        | I.Ornot ->
            fun m rs li ->
              let i = pre_fast m li ~sp ~u1 ~u2 in
              fin m rs ix next li rc lat i
                (Int64.logor (rget m ra) (Int64.lognot (rget m rb)))
        | I.Sll ->
            fun m rs li ->
              let i = pre_fast m li ~sp ~u1 ~u2 in
              fin m rs ix next li rc lat i
                (Int64.shift_left (rget m ra)
                   (Int64.to_int (Int64.logand (rget m rb) 63L)))
        | I.Srl ->
            fun m rs li ->
              let i = pre_fast m li ~sp ~u1 ~u2 in
              fin m rs ix next li rc lat i
                (Int64.shift_right_logical (rget m ra)
                   (Int64.to_int (Int64.logand (rget m rb) 63L)))
        | I.Sra ->
            fun m rs li ->
              let i = pre_fast m li ~sp ~u1 ~u2 in
              fin m rs ix next li rc lat i
                (Int64.shift_right (rget m ra)
                   (Int64.to_int (Int64.logand (rget m rb) 63L)))
      else
        match op with
        | I.Addq ->
            fun m rs li ->
              let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
              fin_fetch m rs ix next li rc lat i
                (Int64.add (rget m ra) (rget m rb))
        | I.Subq ->
            fun m rs li ->
              let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
              fin_fetch m rs ix next li rc lat i
                (Int64.sub (rget m ra) (rget m rb))
        | I.Mulq ->
            fun m rs li ->
              let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
              fin_fetch m rs ix next li rc lat i
                (Int64.mul (rget m ra) (rget m rb))
        | I.Cmpeq ->
            fun m rs li ->
              let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
              fin_fetch m rs ix next li rc lat i
                (bool64 (Int64.equal (rget m ra) (rget m rb)))
        | I.Cmplt ->
            fun m rs li ->
              let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
              fin_fetch m rs ix next li rc lat i
                (bool64 (Int64.compare (rget m ra) (rget m rb) < 0))
        | I.Cmple ->
            fun m rs li ->
              let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
              fin_fetch m rs ix next li rc lat i
                (bool64 (Int64.compare (rget m ra) (rget m rb) <= 0))
        | I.Cmpult ->
            fun m rs li ->
              let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
              fin_fetch m rs ix next li rc lat i
                (bool64
                   (Int64.unsigned_compare (rget m ra) (rget m rb) < 0))
        | I.Cmpule ->
            fun m rs li ->
              let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
              fin_fetch m rs ix next li rc lat i
                (bool64
                   (Int64.unsigned_compare (rget m ra) (rget m rb) <= 0))
        | I.And_ ->
            fun m rs li ->
              let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
              fin_fetch m rs ix next li rc lat i
                (Int64.logand (rget m ra) (rget m rb))
        | I.Bis ->
            fun m rs li ->
              let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
              fin_fetch m rs ix next li rc lat i
                (Int64.logor (rget m ra) (rget m rb))
        | I.Xor ->
            fun m rs li ->
              let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
              fin_fetch m rs ix next li rc lat i
                (Int64.logxor (rget m ra) (rget m rb))
        | I.Ornot ->
            fun m rs li ->
              let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
              fin_fetch m rs ix next li rc lat i
                (Int64.logor (rget m ra) (Int64.lognot (rget m rb)))
        | I.Sll ->
            fun m rs li ->
              let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
              fin_fetch m rs ix next li rc lat i
                (Int64.shift_left (rget m ra)
                   (Int64.to_int (Int64.logand (rget m rb) 63L)))
        | I.Srl ->
            fun m rs li ->
              let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
              fin_fetch m rs ix next li rc lat i
                (Int64.shift_right_logical (rget m ra)
                   (Int64.to_int (Int64.logand (rget m rb) 63L)))
        | I.Sra ->
            fun m rs li ->
              let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
              fin_fetch m rs ix next li rc lat i
                (Int64.shift_right (rget m ra)
                   (Int64.to_int (Int64.logand (rget m rb) 63L)))
    end
  | I.Op { op; ra; rb = I.Imm imm; rc } -> begin
      (* 8-bit literal operand, folded to a constant at fuse time *)
      let ra = (ra :> int) and rc = (rc :> int) in
      let bI = Int64.of_int imm in
      let nbI = Int64.lognot bI in
      let bsh = imm land 63 in
      if fast then
        match op with
        | I.Addq ->
            fun m rs li ->
              let i = pre_fast m li ~sp ~u1 ~u2 in
              fin m rs ix next li rc lat i (Int64.add (rget m ra) bI)
        | I.Subq ->
            fun m rs li ->
              let i = pre_fast m li ~sp ~u1 ~u2 in
              fin m rs ix next li rc lat i (Int64.sub (rget m ra) bI)
        | I.Mulq ->
            fun m rs li ->
              let i = pre_fast m li ~sp ~u1 ~u2 in
              fin m rs ix next li rc lat i (Int64.mul (rget m ra) bI)
        | I.Cmpeq ->
            fun m rs li ->
              let i = pre_fast m li ~sp ~u1 ~u2 in
              fin m rs ix next li rc lat i (bool64 (Int64.equal (rget m ra) bI))
        | I.Cmplt ->
            fun m rs li ->
              let i = pre_fast m li ~sp ~u1 ~u2 in
              fin m rs ix next li rc lat i
                (bool64 (Int64.compare (rget m ra) bI < 0))
        | I.Cmple ->
            fun m rs li ->
              let i = pre_fast m li ~sp ~u1 ~u2 in
              fin m rs ix next li rc lat i
                (bool64 (Int64.compare (rget m ra) bI <= 0))
        | I.Cmpult ->
            fun m rs li ->
              let i = pre_fast m li ~sp ~u1 ~u2 in
              fin m rs ix next li rc lat i
                (bool64 (Int64.unsigned_compare (rget m ra) bI < 0))
        | I.Cmpule ->
            fun m rs li ->
              let i = pre_fast m li ~sp ~u1 ~u2 in
              fin m rs ix next li rc lat i
                (bool64 (Int64.unsigned_compare (rget m ra) bI <= 0))
        | I.And_ ->
            fun m rs li ->
              let i = pre_fast m li ~sp ~u1 ~u2 in
              fin m rs ix next li rc lat i (Int64.logand (rget m ra) bI)
        | I.Bis ->
            fun m rs li ->
              let i = pre_fast m li ~sp ~u1 ~u2 in
              fin m rs ix next li rc lat i (Int64.logor (rget m ra) bI)
        | I.Xor ->
            fun m rs li ->
              let i = pre_fast m li ~sp ~u1 ~u2 in
              fin m rs ix next li rc lat i (Int64.logxor (rget m ra) bI)
        | I.Ornot ->
            fun m rs li ->
              let i = pre_fast m li ~sp ~u1 ~u2 in
              fin m rs ix next li rc lat i (Int64.logor (rget m ra) nbI)
        | I.Sll ->
            fun m rs li ->
              let i = pre_fast m li ~sp ~u1 ~u2 in
              fin m rs ix next li rc lat i (Int64.shift_left (rget m ra) bsh)
        | I.Srl ->
            fun m rs li ->
              let i = pre_fast m li ~sp ~u1 ~u2 in
              fin m rs ix next li rc lat i
                (Int64.shift_right_logical (rget m ra) bsh)
        | I.Sra ->
            fun m rs li ->
              let i = pre_fast m li ~sp ~u1 ~u2 in
              fin m rs ix next li rc lat i (Int64.shift_right (rget m ra) bsh)
      else
        match op with
        | I.Addq ->
            fun m rs li ->
              let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
              fin_fetch m rs ix next li rc lat i (Int64.add (rget m ra) bI)
        | I.Subq ->
            fun m rs li ->
              let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
              fin_fetch m rs ix next li rc lat i (Int64.sub (rget m ra) bI)
        | I.Mulq ->
            fun m rs li ->
              let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
              fin_fetch m rs ix next li rc lat i (Int64.mul (rget m ra) bI)
        | I.Cmpeq ->
            fun m rs li ->
              let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
              fin_fetch m rs ix next li rc lat i
                (bool64 (Int64.equal (rget m ra) bI))
        | I.Cmplt ->
            fun m rs li ->
              let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
              fin_fetch m rs ix next li rc lat i
                (bool64 (Int64.compare (rget m ra) bI < 0))
        | I.Cmple ->
            fun m rs li ->
              let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
              fin_fetch m rs ix next li rc lat i
                (bool64 (Int64.compare (rget m ra) bI <= 0))
        | I.Cmpult ->
            fun m rs li ->
              let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
              fin_fetch m rs ix next li rc lat i
                (bool64 (Int64.unsigned_compare (rget m ra) bI < 0))
        | I.Cmpule ->
            fun m rs li ->
              let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
              fin_fetch m rs ix next li rc lat i
                (bool64 (Int64.unsigned_compare (rget m ra) bI <= 0))
        | I.And_ ->
            fun m rs li ->
              let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
              fin_fetch m rs ix next li rc lat i (Int64.logand (rget m ra) bI)
        | I.Bis ->
            fun m rs li ->
              let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
              fin_fetch m rs ix next li rc lat i (Int64.logor (rget m ra) bI)
        | I.Xor ->
            fun m rs li ->
              let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
              fin_fetch m rs ix next li rc lat i (Int64.logxor (rget m ra) bI)
        | I.Ornot ->
            fun m rs li ->
              let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
              fin_fetch m rs ix next li rc lat i (Int64.logor (rget m ra) nbI)
        | I.Sll ->
            fun m rs li ->
              let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
              fin_fetch m rs ix next li rc lat i
                (Int64.shift_left (rget m ra) bsh)
        | I.Srl ->
            fun m rs li ->
              let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
              fin_fetch m rs ix next li rc lat i
                (Int64.shift_right_logical (rget m ra) bsh)
        | I.Sra ->
            fun m rs li ->
              let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
              fin_fetch m rs ix next li rc lat i
                (Int64.shift_right (rget m ra) bsh)
    end

  | I.Lda { ra; rb; disp } | I.Ldah { ra; rb; disp } ->
      let ra = (ra :> int) and rb = (rb :> int) in
      let disp =
        Int64.of_int (match insn with I.Ldah _ -> disp * 65536 | _ -> disp)
      in
      if ra = 31 then
        (* the canonical nop *)
        if fast then
          fun m rs li -> go m rs ix next li (pre_fast m li ~sp ~u1 ~u2)
        else
          fun m rs li ->
            go_fetch m rs ix next li
              (pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2)
      else if fast then
        fun m rs li ->
          let i = pre_fast m li ~sp ~u1 ~u2 in
          fin m rs ix next li ra lat i (Int64.add (rget m rb) disp)
      else
        fun m rs li ->
          let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
          fin_fetch m rs ix next li ra lat i (Int64.add (rget m rb) disp)
  | I.Ldq { ra; rb; disp = imm } ->
      (* a D-miss is credited once the access has succeeded *)
      let ra = (ra :> int) and rb = (rb :> int) in
      if ra = 31 then
        (* dead load: the access (cache state, faults) still happens *)
        if fast then
          fun m rs li ->
            let i = pre_fast m li ~sp ~u1 ~u2 in
            let addr = Int64.to_int (rget m rb) + imm in
            let hit = access m.S.dcache addr in
            ignore (read64 m addr);
            if not hit then credit_dmiss rs ix;
            go m rs ix next li i
        else
          fun m rs li ->
            let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
            let addr = Int64.to_int (rget m rb) + imm in
            let hit = access m.S.dcache addr in
            ignore (read64 m addr);
            if not hit then credit_dmiss rs ix;
            go_fetch m rs ix next li i
      else if fast then
        fun m rs li ->
          let i = pre_fast m li ~sp ~u1 ~u2 in
          let addr = Int64.to_int (rget m rb) + imm in
          let hit = access m.S.dcache addr in
          rset_u m ra (read64 m addr);
          if hit then Array.unsafe_set m.S.ready ra (i + lat)
          else begin
            Array.unsafe_set m.S.ready ra (i + lat + dpen);
            credit_dmiss rs ix
          end;
          go m rs ix next li i
      else
        fun m rs li ->
          let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
          let addr = Int64.to_int (rget m rb) + imm in
          let hit = access m.S.dcache addr in
          rset_u m ra (read64 m addr);
          if hit then Array.unsafe_set m.S.ready ra (i + lat)
          else begin
            Array.unsafe_set m.S.ready ra (i + lat + dpen);
            credit_dmiss rs ix
          end;
          go_fetch m rs ix next li i
  | I.Stq { ra; rb; disp = imm } ->
      let ra = (ra :> int) and rb = (rb :> int) in
      if fast then
        fun m rs li ->
          let i = pre_fast m li ~sp ~u1 ~u2 in
          let addr = Int64.to_int (rget m rb) + imm in
          let hit = access m.S.dcache addr in
          write64 m addr (rget m ra);
          if not hit then credit_dmiss rs ix;
          go m rs ix next li i
      else
        fun m rs li ->
          let i = pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2 in
          let addr = Int64.to_int (rget m rb) + imm in
          let hit = access m.S.dcache addr in
          write64 m addr (rget m ra);
          if not hit then credit_dmiss rs ix;
          go_fetch m rs ix next li i
  | I.Bcond { cond = ci; ra; disp } ->
      let ra = (ra :> int) in
      let target = pc + 4 + (4 * disp) in
      if mid then
        (* side exit: fall-through calls on inside the trace and writes
           nothing; taken leaves the trace, refunding the retirement
           counters for the suffix it skipped *)
        if fast then
          fun m rs li ->
            let issue = pre_fast m li ~sp ~u1 ~u2 in
            if cond ci (rget m ra) then begin
              refund m ~d_insns ~d_loads ~d_stores ~d_nops;
              leave rs ~pc ~pipe ~ctl:true ~next_pc:target;
              ret rs ix li (issue + bpen)
            end
            else go m rs ix next li issue
        else
          fun m rs li ->
            let issue =
              pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2
            in
            if cond ci (rget m ra) then begin
              refund m ~d_insns ~d_loads ~d_stores ~d_nops;
              leave rs ~pc ~pipe ~ctl:true ~next_pc:target;
              ret_fetch rs ix li (issue + bpen)
            end
            else go_fetch m rs ix next li issue
      else if fast then
        fun m rs li ->
          let issue = pre_fast m li ~sp ~u1 ~u2 in
          if cond ci (rget m ra) then begin
            leave rs ~pc ~pipe ~ctl:true ~next_pc:target;
            ret rs ix li (issue + bpen)
          end
          else begin
            leave rs ~pc ~pipe ~ctl:false ~next_pc:(pc + 4);
            ret rs ix li issue
          end
      else
        fun m rs li ->
          let issue =
            pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2
          in
          if cond ci (rget m ra) then begin
            leave rs ~pc ~pipe ~ctl:true ~next_pc:target;
            ret_fetch rs ix li (issue + bpen)
          end
          else begin
            leave rs ~pc ~pipe ~ctl:false ~next_pc:(pc + 4);
            ret_fetch rs ix li issue
          end
  | I.Br { ra; disp } | I.Bsr { ra; disp } ->
      let ra = (ra :> int) in
      let target = pc + 4 + (4 * disp) in
      let link = Int64.of_int (pc + 4) in
      if mid then
        (* followed at fuse time: the next trace position IS the target,
           so no control state needs writing — the landing step was fused
           as [P_landing] and never consults it *)
        if ra = 31 then
          if fast then
            fun m rs li -> go m rs ix next li (pre_fast m li ~sp ~u1 ~u2 + bpen)
          else
            fun m rs li ->
              go_fetch m rs ix next li
                (pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2
                + bpen)
        else if fast then
          fun m rs li ->
            let issue = pre_fast m li ~sp ~u1 ~u2 in
            wb m ra lat issue link;
            go m rs ix next li (issue + bpen)
        else
          fun m rs li ->
            let issue =
              pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2
            in
            wb m ra lat issue link;
            go_fetch m rs ix next li (issue + bpen)
      else
        fun m rs li ->
          let issue =
            if fast then pre_fast m li ~sp ~u1 ~u2
            else pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2
          in
          if ra <> 31 then wb m ra lat issue link;
          leave rs ~pc ~pipe ~ctl:true ~next_pc:target;
          ret_fetch rs ix li (issue + bpen)
  | I.Jump { ra; rb; _ } ->
      let ra = (ra :> int) and rb = (rb :> int) in
      let link = Int64.of_int (pc + 4) in
      if fast then
        fun m rs li ->
          let issue = pre_fast m li ~sp ~u1 ~u2 in
          let tgt = Int64.to_int (rget m rb) land lnot 3 in
          if ra <> 31 then wb m ra lat issue link;
          leave rs ~pc ~pipe ~ctl:true ~next_pc:tgt;
          ret rs ix li (issue + bpen)
      else
        fun m rs li ->
          let issue =
            pre_slow m rs li ~entry ~dual ~ipen ~pc ~pipe ~sp ~u1 ~u2
          in
          let tgt = Int64.to_int (rget m rb) land lnot 3 in
          if ra <> 31 then wb m ra lat issue link;
          leave rs ~pc ~pipe ~ctl:true ~next_pc:tgt;
          ret_fetch rs ix li (issue + bpen)
  | I.Call_pal 0x83 ->
      (* Call_pal reads four argument registers: keep the general mask
         walk for this one (rare) kind *)
      let defs = I.defs_mask insn in
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
        leave rs ~pc ~pipe ~ctl:true ~next_pc:(pc + 4);
        ret_fetch rs ix li issue
  | I.Call_pal code -> fun _m _rs _li -> raise (S.Fault (S.Unknown_pal code))

(* The last step of a trace with no terminator: the fall-through exit
   state after the instruction at [pc]. *)
let seal ~pc ~pipe : step =
 fun _m rs li ->
  leave rs ~pc ~pipe ~ctl:false ~next_pc:(pc + 4);
  li

(* Fuse the trace entered at instruction index [e], at most [cap]
   instructions long. *)
let fuse t e ~cap =
  let d = t.decoded in
  let insns = d.D.insns in
  let n = Array.length insns in
  let base = d.D.image.D.text_base in
  (* Trace collection: walk forward from the entry, following
     fall-through edges, the fall-through side of conditionals (side
     exits), and statically-targeted unconditional branches (which
     re-enter the walk at their target — a loop backedge unrolls the
     loop into the trace until the cap). A branch is only fused [mid]
     when its continuation both exists in the image and fits under the
     cap; otherwise it terminates the trace and writes full control
     state like any basic-block terminator. [elems] lists the trace
     last position first. *)
  let elems = ref [] in
  let count = ref 0 in
  let rec collect prev i =
    let insn = Array.unsafe_get insns i in
    let pc = base + (4 * i) in
    match insn with
    | I.Bcond _ when !count + 1 < cap && i + 1 < n ->
        elems := (i, pc, prev, true) :: !elems;
        incr count;
        collect (P_straight (pc, pipe_index insn)) (i + 1)
    | I.Br { disp; _ } | I.Bsr { disp; _ } ->
        let tidx = i + 1 + disp in
        if !count + 1 < cap && tidx >= 0 && tidx < n then begin
          elems := (i, pc, prev, true) :: !elems;
          incr count;
          collect P_landing tidx
        end
        else elems := (i, pc, prev, false) :: !elems
    | I.Bcond _ | I.Jump _ | I.Call_pal _ ->
        elems := (i, pc, prev, false) :: !elems
    | _ ->
        elems := (i, pc, prev, false) :: !elems;
        incr count;
        if !count < cap && i + 1 < n then
          collect (P_straight (pc, pipe_index insn)) (i + 1)
  in
  collect P_entry e;
  (* Build back to front: each step captures the one built before it,
     and the suffix counts a side exit refunds are the counts so far.
     The first [next] is the seal, which a terminator never calls. *)
  let next =
    match !elems with
    | (i, pc, _, _) :: _ -> ref (seal ~pc ~pipe:(pipe_index insns.(i)))
    | [] -> assert false
  in
  let len = ref 0 and loads = ref 0 and stores = ref 0 and nops = ref 0 in
  List.iter
    (fun (i, pc, prev, mid) ->
      let insn = Array.unsafe_get insns i in
      next :=
        build_step t.config ~ix:i ~pc ~prev ~mid ~d_insns:!len ~d_loads:!loads
          ~d_stores:!stores ~d_nops:!nops ~next:!next insn;
      incr len;
      (match insn with
      | I.Ldq _ -> incr loads
      | I.Stq _ -> incr stores
      | _ -> ());
      if I.is_nop insn then incr nops)
    !elems;
  Atomic.incr built_total;
  { b_entry = !next;
    b_len = !len;
    b_loads = !loads;
    b_stores = !stores;
    b_nops = !nops }

let create ?(config = S.default_config) (d : D.decoded) =
  { decoded = d;
    config;
    execs = Array.make (Array.length d.D.insns) None }

(* Cache fills are racy-but-idempotent across domains: a cell flips from
   [None] to a valid executor exactly once per domain that loses the
   race, and executors are pure functions of (decoded, config) — the
   per-run state they touch comes in through [rstate] — so a duplicate
   build is wasted work, never wrong results. *)
let executor t idx =
  match Array.unsafe_get t.execs idx with
  | Some bi -> bi
  | None ->
      let bi = fuse t idx ~cap:max_block_len in
      Array.unsafe_set t.execs idx (Some bi);
      bi

let block_len t idx =
  if idx < 0 || idx >= Array.length t.decoded.D.insns then
    invalid_arg "Blocks.block_len";
  (executor t idx).b_len

let run ?profile t =
  let config = t.config in
  let d = t.decoded in
  let n = Array.length d.D.insns in
  let p =
    match profile with
    | Some p ->
        let sized a = Array.length a = n in
        if not (sized p.retired && sized p.cycles && sized p.imisses
                && sized p.dmisses)
        then invalid_arg "Blocks.run: profile";
        p
    | None ->
        (* a plain run credits into one scratch array and drops it *)
        let a = Array.make n 0 in
        { retired = a; cycles = a; imisses = a; dmisses = a }
  in
  let image = d.D.image in
  let m = S.create_machine config image in
  S.boot m image;
  let text_base = m.S.text_base in
  let max_insns = config.S.max_insns in
  let execs = t.execs in
  let rs =
    { pc_next = image.Linker.Image.entry;
      last_issue = -1;
      last_pc = min_int;
      last_pipe = -1;
      last_was_ctl = true;
      imiss = false;
      exited = false;
      exit_code = 0L;
      retired = p.retired;
      cycles = p.cycles;
      imisses = p.imisses;
      dmisses = p.dmisses }
  in
  let hits = ref 0 and misses = ref 0 in
  let result =
    try
      while not rs.exited do
        let n0 = m.S.ninsns in
        if n0 >= max_insns then raise (S.Fault S.Insn_limit_reached);
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
              let bi = fuse t idx ~cap:max_block_len in
              Array.unsafe_set execs idx (Some bi);
              incr misses;
              bi
        in
        (* A dispatch the instruction limit would cut short runs the
           trace fused afresh with its length capped at the instructions
           left, and not cached: [ninsns] then reaches the limit, and
           the test above faults where the per-instruction reference
           would, unless a side exit left the trace first. *)
        let bi =
          if n0 + bi.b_len <= max_insns then bi
          else fuse t idx ~cap:(max_insns - n0)
        in
        m.S.ninsns <- n0 + bi.b_len;
        m.S.loads <- m.S.loads + bi.b_loads;
        m.S.stores <- m.S.stores + bi.b_stores;
        m.S.nops <- m.S.nops + bi.b_nops;
        rs.last_issue <- bi.b_entry m rs rs.last_issue
      done;
      Ok (S.outcome_of m ~last_issue:rs.last_issue ~exit_code:rs.exit_code)
    with S.Fault e -> Error e
  in
  if !hits > 0 then ignore (Atomic.fetch_and_add hits_total !hits);
  if !misses > 0 then ignore (Atomic.fetch_and_add misses_total !misses);
  result
