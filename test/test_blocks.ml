(* Block/trace-boundary edge cases of the fused superinstruction path
   (Machine.Blocks), and of its per-instruction profile.

   Every test drives the same image through both interpreters — fused
   (cold and warm executor cache) and symbolic reference — and requires
   bit-identical results: outcomes (stats, cycles, cache misses, output,
   exit codes) and faults (kind and carried address/PC) alike. A profiled
   fused run must also credit exactly the reference's probe events to
   each PC, faulting and limit-stopped runs included. *)

module I = Isa.Insn
module R = Isa.Reg

let image_of_items items =
  let m = Minic.Masm.create "blocks.o" in
  Minic.Masm.add_proc m ~name:"__start" items;
  let unit = Minic.Masm.assemble m in
  match Linker.Link.link [ unit ] ~archives:[] with
  | Ok image -> image
  | Error msg -> Alcotest.failf "link: %s" msg

let exit_with code =
  [ Minic.Masm.Insn (I.Lda { ra = R.a0; rb = code; disp = 0 });
    Minic.Masm.Insn (I.Lda { ra = R.v0; rb = R.zero; disp = 0 });
    Minic.Masm.Insn (I.Call_pal 0x83) ]

let pp_result ppf = function
  | Ok (o : Machine.Cpu.outcome) ->
      Format.fprintf ppf "exit=%Ld insns=%d cycles=%d loads=%d stores=%d \
                          imiss=%d dmiss=%d nops=%d out=%S"
        o.Machine.Cpu.exit_code o.Machine.Cpu.stats.Machine.Cpu.insns
        o.Machine.Cpu.stats.Machine.Cpu.cycles
        o.Machine.Cpu.stats.Machine.Cpu.loads
        o.Machine.Cpu.stats.Machine.Cpu.stores
        o.Machine.Cpu.stats.Machine.Cpu.icache_misses
        o.Machine.Cpu.stats.Machine.Cpu.dcache_misses
        o.Machine.Cpu.stats.Machine.Cpu.nops_executed
        o.Machine.Cpu.output
  | Error e -> Format.fprintf ppf "fault: %a" Machine.Cpu.pp_error e

let result_t = Alcotest.testable pp_result ( = )

(* Run [image] through the fused path (twice, so the second pass
   exercises the warmed executor cache) and the reference, and require
   identical results; then require a profiled fused run's per-instruction
   counters to equal the reference's per-PC probe sums. Returns the
   [Blocks.t] for further inspection. *)
let check_agree ?config name image =
  let d =
    match Machine.Cpu.decode image with
    | Ok d -> d
    | Error e -> Alcotest.failf "%s: decode: %a" name Machine.Cpu.pp_error e
  in
  let blocks = Machine.Blocks.create ?config d in
  let reference, ref_prof = Fuzz.Oracle.reference_profile ?config d in
  let fused_cold = Machine.Cpu.run_decoded ?config ~blocks d in
  let fused_warm = Machine.Cpu.run_decoded ?config ~blocks d in
  Alcotest.check result_t (name ^ ": fused(cold) = reference") reference
    fused_cold;
  Alcotest.check result_t (name ^ ": fused(warm) = reference") reference
    fused_warm;
  let profile = Machine.Blocks.profile d in
  Alcotest.check result_t (name ^ ": profiled = reference") reference
    (Machine.Cpu.run_decoded ?config ~blocks ~profile d);
  (match
     Fuzz.Oracle.check_profile name d ~fused:profile ~reference:ref_prof
   with
  | Ok () -> ()
  | Error f -> Alcotest.failf "%a" Fuzz.Oracle.pp_failure f);
  blocks

(* A loop whose back-edge lands in the middle of the trace fused at the
   program's entry: the first dispatch fuses one long trace through the
   not-taken exit branch; the taken back-edge then enters mid-trace and
   must fuse (and cache) a second, shorter executor at that entry. *)
let test_branch_into_middle () =
  let m = Minic.Masm.create "blocks.o" in
  let l = Minic.Masm.fresh_label m in
  Minic.Masm.add_proc m ~name:"__start"
    ([ Minic.Masm.Insn (I.Lda { ra = R.t0; rb = R.zero; disp = 10 });
       Minic.Masm.Insn (I.Lda { ra = R.t1; rb = R.zero; disp = 0 });
       Minic.Masm.Label l;
       Minic.Masm.Insn
         (I.Op { op = I.Addq; ra = R.t1; rb = I.Rb R.t0; rc = R.t1 });
       Minic.Masm.Insn
         (I.Op { op = I.Subq; ra = R.t0; rb = I.Imm 1; rc = R.t0 });
       Minic.Masm.Branch
         { insn = I.Bcond { cond = I.Bne; ra = R.t0; disp = 0 }; target = l } ]
    @ [ Minic.Masm.Insn (I.Op { op = I.Addq; ra = R.t1; rb = I.Imm 0; rc = R.a0 });
        Minic.Masm.Insn (I.Lda { ra = R.v0; rb = R.zero; disp = 0 });
        Minic.Masm.Insn (I.Call_pal 0x83) ]);
  let unit = Minic.Masm.assemble m in
  let image = Result.get_ok (Linker.Link.link [ unit ] ~archives:[]) in
  let blocks = check_agree "mid-entry loop" image in
  (* sum 10+9+...+1 = 55 must have come out *)
  (match Machine.Blocks.run blocks with
  | Ok o -> Alcotest.(check int64) "loop computed 55" 55L o.Machine.Cpu.exit_code
  | Error e -> Alcotest.failf "fault: %a" Machine.Cpu.pp_error e);
  (* both the entry trace and the mid-trace back-edge entry are cached *)
  Alcotest.(check bool) "two executors fused" true
    (Machine.Blocks.executors_cached blocks >= 2)

(* A taken branch straight to the exit syscall: the landing entry is a
   single-instruction block. *)
let test_single_insn_block () =
  let m = Minic.Masm.create "blocks.o" in
  let l = Minic.Masm.fresh_label m in
  Minic.Masm.add_proc m ~name:"__start"
    [ Minic.Masm.Insn (I.Lda { ra = R.t0; rb = R.zero; disp = 1 });
      Minic.Masm.Insn (I.Lda { ra = R.a0; rb = R.zero; disp = 7 });
      Minic.Masm.Insn (I.Lda { ra = R.v0; rb = R.zero; disp = 0 });
      Minic.Masm.Branch
        { insn = I.Bcond { cond = I.Bne; ra = R.t0; disp = 0 }; target = l };
      Minic.Masm.Insn I.nop;
      Minic.Masm.Label l;
      Minic.Masm.Insn (I.Call_pal 0x83) ];
  let unit = Minic.Masm.assemble m in
  let image = Result.get_ok (Linker.Link.link [ unit ] ~archives:[]) in
  let blocks = check_agree "single-insn block" image in
  (* entry 5 is the call_pal: a one-instruction block *)
  Alcotest.(check int) "call_pal block has length 1" 1
    (Machine.Blocks.block_len blocks 5);
  match Machine.Blocks.run blocks with
  | Ok o -> Alcotest.(check int64) "skipped the nop path" 7L o.Machine.Cpu.exit_code
  | Error e -> Alcotest.failf "fault: %a" Machine.Cpu.pp_error e

(* A trace ending in an unknown PAL trap: the fault (kind and code) must
   match the reference, and the straight-line prefix must retire. *)
let test_block_ends_in_unknown_pal () =
  let image =
    image_of_items
      [ Minic.Masm.Insn (I.Lda { ra = R.t0; rb = R.zero; disp = 3 });
        Minic.Masm.Insn
          (I.Op { op = I.Addq; ra = R.t0; rb = I.Rb R.t0; rc = R.t1 });
        Minic.Masm.Insn (I.Call_pal 0x12) ]
  in
  ignore (check_agree "unknown pal" image);
  match Machine.Cpu.run image with
  | Error (Machine.Cpu.Unknown_pal 0x12) -> ()
  | Error e -> Alcotest.failf "wrong fault: %a" Machine.Cpu.pp_error e
  | Ok _ -> Alcotest.fail "expected a fault"

(* A load that faults in the middle of a fused trace, with live code
   after it: the fault payload (the bad address) must agree and the
   instructions after the fault must not execute. *)
let test_fault_mid_block () =
  let image =
    image_of_items
      ([ Minic.Masm.Insn (I.Lda { ra = R.t0; rb = R.zero; disp = 5 });
         Minic.Masm.Insn (I.Ldq { ra = R.t1; rb = R.sp; disp = -13 });
         Minic.Masm.Insn
           (I.Op { op = I.Addq; ra = R.t1; rb = I.Rb R.t0; rc = R.a0 }) ]
      @ exit_with R.a0)
  in
  ignore (check_agree "mid-trace fault" image);
  match Machine.Cpu.run image with
  | Error (Machine.Cpu.Unaligned_access _) -> ()
  | Error e -> Alcotest.failf "wrong fault: %a" Machine.Cpu.pp_error e
  | Ok _ -> Alcotest.fail "expected a fault"

(* Text that simply ends — the last block has no terminator. Execution
   must fall off the end identically on every path (same fault, same
   address). *)
let test_no_terminator () =
  let image =
    image_of_items
      [ Minic.Masm.Insn (I.Lda { ra = R.t0; rb = R.zero; disp = 1 });
        Minic.Masm.Insn I.nop ]
  in
  ignore (check_agree "no terminator" image);
  match Machine.Cpu.run image with
  | Error (Machine.Cpu.Out_of_range_access _) -> ()
  | Error e -> Alcotest.failf "wrong fault: %a" Machine.Cpu.pp_error e
  | Ok _ -> Alcotest.fail "expected a fault"

(* A straight-line run longer than [max_block_len]: the fuser must chain
   capped traces by fall-through without disturbing timing. *)
let test_longer_than_max_block () =
  let n = Machine.Blocks.max_block_len + 90 in
  let body = List.init n (fun _ -> Minic.Masm.Insn I.nop) in
  let image = image_of_items (body @ exit_with R.zero) in
  let blocks = check_agree "overlong straight run" image in
  Alcotest.(check bool) "entry trace is capped" true
    (Machine.Blocks.block_len blocks 0 <= Machine.Blocks.max_block_len)

(* The instruction limit firing inside a fused trace: the fused path
   over-advances by up to a block and must still report the limit at the
   same point as the per-instruction interpreters. *)
let test_insn_limit_mid_block () =
  let m = Minic.Masm.create "blocks.o" in
  let l = Minic.Masm.fresh_label m in
  Minic.Masm.add_proc m ~name:"__start"
    [ Minic.Masm.Label l;
      Minic.Masm.Insn (I.Op { op = I.Addq; ra = R.t0; rb = I.Imm 1; rc = R.t0 });
      Minic.Masm.Insn I.nop;
      Minic.Masm.Insn I.nop;
      Minic.Masm.Branch { insn = I.Br { ra = R.zero; disp = 0 }; target = l } ];
  let unit = Minic.Masm.assemble m in
  let image = Result.get_ok (Linker.Link.link [ unit ] ~archives:[]) in
  (* 1001 is not a multiple of the 4-instruction loop body, so the limit
     lands mid-trace *)
  let config = { Machine.Cpu.default_config with max_insns = 1001 } in
  ignore (check_agree ~config "limit mid-trace" image);
  match Machine.Cpu.run ~config image with
  | Error Machine.Cpu.Insn_limit_reached -> ()
  | Error e -> Alcotest.failf "wrong fault: %a" Machine.Cpu.pp_error e
  | Ok _ -> Alcotest.fail "expected the limit"

(* Executor-cache accounting: a second run of the same [Blocks.t] must
   be all hits, fusing nothing new. *)
let test_cache_counters () =
  let image =
    image_of_items
      ([ Minic.Masm.Insn (I.Lda { ra = R.t0; rb = R.zero; disp = 4 }) ]
      @ exit_with R.zero)
  in
  let d = Result.get_ok (Machine.Cpu.decode image) in
  let blocks = Machine.Blocks.create d in
  (match Machine.Blocks.run blocks with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "fault: %a" Machine.Cpu.pp_error e);
  let h1, m1 = Machine.Blocks.cache_stats blocks in
  let cached1 = Machine.Blocks.executors_cached blocks in
  Alcotest.(check bool) "first run fused something" true (m1 > 0 && cached1 > 0);
  (match Machine.Blocks.run blocks with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "fault: %a" Machine.Cpu.pp_error e);
  let h2, m2 = Machine.Blocks.cache_stats blocks in
  Alcotest.(check int) "second run fused nothing" m1 m2;
  Alcotest.(check int) "second run built nothing" cached1
    (Machine.Blocks.executors_cached blocks);
  Alcotest.(check bool) "second run hit the cache" true (h2 > h1)

let suite =
  ( "blocks",
    [ Alcotest.test_case "branch into middle of fused trace" `Quick
        test_branch_into_middle;
      Alcotest.test_case "single-instruction block" `Quick
        test_single_insn_block;
      Alcotest.test_case "block ending in unknown pal" `Quick
        test_block_ends_in_unknown_pal;
      Alcotest.test_case "fault mid-trace" `Quick test_fault_mid_block;
      Alcotest.test_case "last block has no terminator" `Quick
        test_no_terminator;
      Alcotest.test_case "straight run longer than max_block_len" `Quick
        test_longer_than_max_block;
      Alcotest.test_case "insn limit fires mid-trace" `Quick
        test_insn_limit_mid_block;
      Alcotest.test_case "executor cache hits and misses" `Quick
        test_cache_counters ] )
