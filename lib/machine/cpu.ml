(* The executing simulator's front door. The machine state and its
   semantics live in {!State}; the fused block-superinstruction executor
   lives in {!Blocks}. This module re-exports the public types, routes
   runs (plain or profiled) to the fused path, and retains the symbolic
   reference interpreter ([run_reference]) as the oracle. *)

open State

type config = State.config = {
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

let default_config = State.default_config

type stats = State.stats = {
  insns : int;
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
  | Bad_syscall of int64
  | Unknown_pal of int
  | Heap_exhausted
  | Insn_limit_reached

let pp_error = State.pp_error

type probe_event = {
  ev_pc : int;
  ev_insn : Isa.Insn.t;
  ev_cycles : int;
  ev_icache_miss : bool;
  ev_dcache_miss : bool;
}

module R = Isa.Reg
module I = Isa.Insn
module D = Decoded

let run_decoded ?(config = default_config) ?profile ?blocks (d : D.t) =
  let b =
    match blocks with
    | Some b when Blocks.decoded b == d && Blocks.config b = config -> b
    | _ -> Blocks.create ~config d
  in
  Blocks.run ?profile b

let decode (image : Linker.Image.t) =
  match D.of_image image with
  | Ok d -> Ok d
  | Error (pc, _) -> Error (Undecodable pc)

let run ?config (image : Linker.Image.t) =
  match decode image with
  | Error e -> Error e
  | Ok d -> run_decoded ?config d

(* --- the reference interpreter ---

   The original symbolic-form interpreter, retained verbatim as the
   semantic oracle: it re-derives uses/defs/pipe/latency from [Isa.Insn]
   on every retired instruction. The differential tests require
   [run_decoded] to reproduce its stats, output and exit code exactly. *)

let operand m = function
  | I.Rb r -> rget m (R.to_int r)
  | I.Imm n -> Int64.of_int n

let eval_op m (op : I.binop) ra rb =
  let a = rget m (R.to_int ra) in
  let b = operand m rb in
  match op with
  | I.Addq -> Int64.add a b
  | I.Subq -> Int64.sub a b
  | I.Mulq -> Int64.mul a b
  | I.Cmpeq -> bool64 (Int64.equal a b)
  | I.Cmplt -> bool64 (Int64.compare a b < 0)
  | I.Cmple -> bool64 (Int64.compare a b <= 0)
  | I.Cmpult -> bool64 (Int64.unsigned_compare a b < 0)
  | I.Cmpule -> bool64 (Int64.unsigned_compare a b <= 0)
  | I.And_ -> Int64.logand a b
  | I.Bis -> Int64.logor a b
  | I.Xor -> Int64.logxor a b
  | I.Ornot -> Int64.logor a (Int64.lognot b)
  | I.Sll -> Int64.shift_left a (Int64.to_int (Int64.logand b 63L))
  | I.Srl -> Int64.shift_right_logical a (Int64.to_int (Int64.logand b 63L))
  | I.Sra -> Int64.shift_right a (Int64.to_int (Int64.logand b 63L))

let cond_true (c : I.cond) v =
  match c with
  | I.Beq -> Int64.equal v 0L
  | I.Bne -> not (Int64.equal v 0L)
  | I.Blt -> Int64.compare v 0L < 0
  | I.Ble -> Int64.compare v 0L <= 0
  | I.Bge -> Int64.compare v 0L >= 0
  | I.Bgt -> Int64.compare v 0L > 0
  | I.Blbc -> Int64.equal (Int64.logand v 1L) 0L
  | I.Blbs -> Int64.equal (Int64.logand v 1L) 1L

let run_reference ?(config = default_config) ?probe (image : Linker.Image.t) =
  match Isa.Decode.of_bytes_loc image.Linker.Image.text with
  | Error (off, _) ->
      Error (Undecodable (image.Linker.Image.text_base + off))
  | Ok code ->
    let m = create_machine config image in
    boot m image;
    let pc = ref image.Linker.Image.entry in
    let last_issue = ref (-1) in
    let last_pc = ref min_int in
    let last_pipe = ref None in
    let last_was_ctl = ref true in
    let finished = ref None in
    (try
       while Option.is_none !finished do
         if m.ninsns >= config.max_insns then
           raise (Fault Insn_limit_reached);
         let idx = (!pc - m.text_base) asr 2 in
         if idx < 0 || idx >= Array.length code then
           raise (Fault (Out_of_range_access !pc));
         let insn = code.(idx) in
         m.ninsns <- m.ninsns + 1;
         if I.is_nop insn then m.nops <- m.nops + 1;
         let issue0 = !last_issue in
         let dmiss0 =
           match probe with Some _ -> Cache.misses m.dcache | None -> 0
         in
         (* --- timing --- *)
         let fetch_penalty =
           if Cache.access m.icache !pc then 0 else config.icache_miss_penalty
         in
         let operand_ready =
           List.fold_left (fun acc r -> max acc m.ready.(R.to_int r)) 0
             (I.uses insn)
         in
         let pipe = Isa.Latency.pipe_of insn in
         let pairable =
           config.dual_issue && fetch_penalty = 0
           && !pc = !last_pc + 4
           && !last_pc land 7 = 0
           && (not !last_was_ctl)
           && (match !last_pipe with Some p -> p <> pipe | None -> false)
           && operand_ready <= !last_issue
         in
         let issue =
           if pairable then !last_issue
           else max (!last_issue + 1) operand_ready + fetch_penalty
         in
         (* --- execute --- *)
         let next_pc = ref (!pc + 4) in
         let taken = ref false in
         let result_latency = ref (Isa.Latency.latency insn) in
         (match insn with
         | I.Lda { ra; rb; disp } ->
             rset m (R.to_int ra)
               (Int64.add (rget m (R.to_int rb)) (Int64.of_int disp))
         | I.Ldah { ra; rb; disp } ->
             rset m (R.to_int ra)
               (Int64.add (rget m (R.to_int rb)) (Int64.of_int (disp * 65536)))
         | I.Ldq { ra; rb; disp } ->
             let addr = Int64.to_int (rget m (R.to_int rb)) + disp in
             m.loads <- m.loads + 1;
             let hit = Cache.access m.dcache addr in
             if not hit then
               result_latency := !result_latency + config.dcache_miss_penalty;
             rset m (R.to_int ra) (read64 m addr)
         | I.Stq { ra; rb; disp } ->
             let addr = Int64.to_int (rget m (R.to_int rb)) + disp in
             m.stores <- m.stores + 1;
             ignore (Cache.access m.dcache addr);
             write64 m addr (rget m (R.to_int ra))
         | I.Br { ra; disp } | I.Bsr { ra; disp } ->
             rset m (R.to_int ra) (Int64.of_int (!pc + 4));
             next_pc := !pc + 4 + (4 * disp);
             taken := true
         | I.Bcond { cond; ra; disp } ->
             if cond_true cond (rget m (R.to_int ra)) then begin
               next_pc := !pc + 4 + (4 * disp);
               taken := true
             end
         | I.Jump { ra; rb; _ } ->
             let target = Int64.to_int (rget m (R.to_int rb)) land lnot 3 in
             rset m (R.to_int ra) (Int64.of_int (!pc + 4));
             next_pc := target;
             taken := true
         | I.Op { op; ra; rb; rc } -> rset m (R.to_int rc) (eval_op m op ra rb)
         | I.Call_pal 0x83 -> finished := syscall m
         | I.Call_pal code -> raise (Fault (Unknown_pal code)));
         (* --- writeback timing --- *)
         List.iter
           (fun r -> m.ready.(R.to_int r) <- issue + !result_latency)
           (I.defs insn);
         last_pc := !pc;
         last_pipe := Some pipe;
         let is_ctl =
           I.is_branch insn || (match insn with I.Call_pal _ -> true | _ -> false)
         in
         last_was_ctl := is_ctl && !taken
           || (match insn with I.Call_pal _ -> true | _ -> false);
         last_issue :=
           if !taken then issue + config.branch_penalty else issue;
         (match probe with
         | Some f ->
             f
               { ev_pc = !last_pc;
                 ev_insn = insn;
                 ev_cycles = !last_issue - issue0;
                 ev_icache_miss = fetch_penalty > 0;
                 ev_dcache_miss = Cache.misses m.dcache > dmiss0 }
         | None -> ());
         pc := !next_pc
       done;
       Ok
         (outcome_of m ~last_issue:!last_issue
            ~exit_code:(Option.get !finished))
     with Fault e -> Error e)
