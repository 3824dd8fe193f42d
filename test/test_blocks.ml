(* Block/trace-boundary edge cases of the fused superinstruction path
   (Machine.Blocks), and of its per-instruction profile.

   Every test drives the same image through both interpreters — fused
   (cold and warm executor cache) and symbolic reference — and requires
   bit-identical results: outcomes (stats, cycles, cache misses, output,
   exit codes) and faults (kind and carried address/PC) alike. A profiled
   fused run must also credit exactly the reference's probe events to
   each PC, faulting and limit-stopped runs included, and its counters
   must add up to the run's stats. *)

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
  let profiled = Machine.Cpu.run_decoded ?config ~blocks ~profile d in
  Alcotest.check result_t (name ^ ": profiled = reference") reference profiled;
  (match profiled with
  | Ok o ->
      let sum = Array.fold_left ( + ) 0 in
      let s = o.Machine.Cpu.stats and p = profile in
      Alcotest.(check (list int))
        (name ^ ": profile sums = insns, cycles, i-/d-misses")
        Machine.Cpu.[ s.insns; s.cycles; s.icache_misses; s.dcache_misses ]
        Machine.Blocks.
          [ sum p.retired; sum p.cycles; sum p.imisses; sum p.dmisses ]
  | Error _ -> ());
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

(* --- the on-demand memory model ---

   Memory is allocated as the program writes it, and all three runs
   above reach State's one cold path for an access outside the
   allocated part. These programs probe its edges. [sp] starts 64 bytes
   below the stack top; [sbrk(0)] leaves the heap base in [v0]. *)

let ins i = Minic.Masm.Insn i
let heap_max = Machine.Cpu.default_config.Machine.Cpu.heap_max
let stack_bytes = Linker.Layout.stack_bytes
let stack_lo = Linker.Layout.stack_top - stack_bytes

let heap_base_in_v0 =
  [ ins (I.Lda { ra = R.v0; rb = R.zero; disp = 4 });
    ins (I.Lda { ra = R.a0; rb = R.zero; disp = 0 });
    ins (I.Call_pal 0x83) ]

let addq ra rb rc = ins (I.Op { op = I.Addq; ra; rb = I.Rb rb; rc })

(* the [ldah] displacement that adds [n], a multiple of 64 KB *)
let hi16 n =
  assert (n land 0xffff = 0 && n asr 16 >= -0x8000 && n asr 16 < 0x8000);
  n asr 16

let run_exit name image =
  ignore (check_agree name image);
  match Machine.Cpu.run image with
  | Ok o -> o.Machine.Cpu.exit_code
  | Error e -> Alcotest.failf "%s: fault: %a" name Machine.Cpu.pp_error e

let test_never_written_reads_zero () =
  let image =
    image_of_items
      (heap_base_in_v0
      @ [ (* 8 MB above the heap base: far above brk, never written *)
          ins (I.Ldah { ra = R.t0; rb = R.v0; disp = hi16 (heap_max / 2) });
          ins (I.Ldq { ra = R.t1; rb = R.t0; disp = 0 });
          (* half the stack below sp *)
          ins (I.Ldah { ra = R.t2; rb = R.sp; disp = hi16 (-stack_bytes / 2) });
          ins (I.Ldq { ra = R.t3; rb = R.t2; disp = 0 });
          addq R.t1 R.t3 R.t4;
          ins (I.Lda { ra = R.a0; rb = R.t4; disp = 7 }) ]
      @ exit_with R.a0)
  in
  Alcotest.(check int64) "both words read 0" 7L
    (run_exit "never-written words" image)

(* Writing the last heap word and the lowest stack word grows each
   region to its logical end: the words read back, the words grown next
   to them read 0, and words written before the growth survive it. *)
let test_region_ends_hold_data () =
  let image =
    image_of_items
      (heap_base_in_v0
      @ [ ins (I.Lda { ra = R.t0; rb = R.zero; disp = 1234 });
          ins (I.Stq { ra = R.t0; rb = R.sp; disp = -8 });
          ins (I.Stq { ra = R.t0; rb = R.v0; disp = 0 });
          (* t1 = heap_base + heap_max - 8, the last heap word *)
          ins (I.Ldah { ra = R.t1; rb = R.v0; disp = hi16 heap_max });
          ins (I.Lda { ra = R.t1; rb = R.t1; disp = -8 });
          ins (I.Lda { ra = R.t2; rb = R.zero; disp = 99 });
          ins (I.Stq { ra = R.t2; rb = R.t1; disp = 0 });
          (* t3 = stack_top - stack_bytes, the lowest stack word *)
          ins (I.Ldah { ra = R.t3; rb = R.sp; disp = hi16 (-stack_bytes) });
          ins (I.Lda { ra = R.t3; rb = R.t3; disp = 64 });
          ins (I.Lda { ra = R.t4; rb = R.zero; disp = 7 });
          ins (I.Stq { ra = R.t4; rb = R.t3; disp = 0 });
          ins (I.Ldq { ra = R.t5; rb = R.t1; disp = 0 });
          ins (I.Ldq { ra = R.t6; rb = R.t3; disp = 0 });
          ins (I.Ldq { ra = R.t7; rb = R.t1; disp = -8 });
          ins (I.Ldq { ra = R.s0; rb = R.t3; disp = 8 });
          ins (I.Ldq { ra = R.s1; rb = R.v0; disp = 0 });
          ins (I.Ldq { ra = R.s2; rb = R.sp; disp = -8 });
          addq R.t5 R.t6 R.a0;
          addq R.a0 R.t7 R.a0;
          addq R.a0 R.s0 R.a0;
          addq R.a0 R.s1 R.a0;
          addq R.a0 R.s2 R.a0 ]
      @ exit_with R.a0)
  in
  Alcotest.(check int64) "99 + 7 + 0 + 0 + 1234 + 1234" 2574L
    (run_exit "region ends" image)

(* Shapes the compiler never emits and random mutants seldom execute:
   operates into r31 in both operand forms, [lda]/[ldah]/[ldq] into r31,
   then a read of r31, which must still be 0; and linked branches off
   either end of the text, which fault at their target. *)
let test_rare_shapes () =
  let image =
    image_of_items
      ([ ins (I.Lda { ra = R.t0; rb = R.zero; disp = 5 });
         ins (I.Op { op = I.Bis; ra = R.t0; rb = I.Imm 9; rc = R.zero });
         ins (I.Op { op = I.Addq; ra = R.t0; rb = I.Rb R.t0; rc = R.zero });
         ins (I.Ldah { ra = R.zero; rb = R.t0; disp = 3 });
         ins (I.Lda { ra = R.zero; rb = R.t0; disp = 3 });
         ins (I.Ldq { ra = R.zero; rb = R.sp; disp = 0 });
         ins (I.Op { op = I.Addq; ra = R.zero; rb = I.Imm 7; rc = R.a0 }) ]
      @ exit_with R.a0)
  in
  Alcotest.(check int64) "r31 still reads 0" 7L
    (run_exit "writes to r31" image);
  List.iter
    (fun disp ->
      let image = image_of_items [ ins (I.Br { ra = R.t1; disp }) ] in
      ignore (check_agree (Printf.sprintf "br %+d" disp) image);
      match Machine.Cpu.run image with
      | Error (Machine.Cpu.Out_of_range_access _) -> ()
      | Error e ->
          Alcotest.failf "br %+d: wrong fault: %a" disp Machine.Cpu.pp_error e
      | Ok _ -> Alcotest.failf "br %+d: expected a fault" disp)
    [ 100_000; -100_000 ]

(* One word past each end of each region faults, loads and stores
   alike, with [Out_of_range_access] of that word — as when the whole
   map was allocated up front. A [heap_max] that is not a multiple of 8
   leaves a partial last word, which is out of range too. *)
let test_past_each_end_faults () =
  let probe ?config name at expect_addr =
    List.iter
      (fun (what, access) ->
        let image = image_of_items (at @ [ ins access ] @ exit_with R.zero) in
        let name = name ^ " " ^ what in
        ignore (check_agree ?config name image);
        match Machine.Cpu.run ?config image with
        | Error (Machine.Cpu.Out_of_range_access a) ->
            Alcotest.(check int) (name ^ ": fault address")
              (expect_addr image) a
        | Error e ->
            Alcotest.failf "%s: wrong fault: %a" name Machine.Cpu.pp_error e
        | Ok _ -> Alcotest.failf "%s: expected a fault" name)
      [ ("load", I.Ldq { ra = R.t1; rb = R.t0; disp = 0 });
        ("store", I.Stq { ra = R.sp; rb = R.t0; disp = 0 }) ]
  in
  let heap_end image = image.Linker.Image.heap_base + heap_max in
  let at_heap_end =
    heap_base_in_v0
    @ [ ins (I.Ldah { ra = R.t0; rb = R.v0; disp = hi16 heap_max }) ]
  in
  probe "past the heap" at_heap_end heap_end;
  probe "below the stack"
    [ ins (I.Ldah { ra = R.t0; rb = R.sp; disp = hi16 (-stack_bytes) });
      ins (I.Lda { ra = R.t0; rb = R.t0; disp = 56 }) ]
    (fun _ -> stack_lo - 8);
  probe "above the stack"
    [ ins (I.Lda { ra = R.t0; rb = R.sp; disp = 64 }) ]
    (fun _ -> Linker.Layout.stack_top);
  let data_base = Linker.Layout.data_base in
  probe "below the data"
    [ ins (I.Lda { ra = R.t0; rb = R.zero; disp = data_base asr 32 });
      ins (I.Op { op = I.Sll; ra = R.t0; rb = I.Imm 32; rc = R.t0 });
      ins
        (I.Ldah
           { ra = R.t0; rb = R.t0; disp = hi16 (data_base land 0xffff_ffff) });
      ins (I.Lda { ra = R.t0; rb = R.t0; disp = -8 }) ]
    (fun _ -> data_base - 8);
  let config =
    { Machine.Cpu.default_config with Machine.Cpu.heap_max = heap_max + 4 }
  in
  probe ~config "into a partial last heap word" at_heap_end heap_end

(* --- the quick subset's images ---

   Each quick-subset program in both builds: the standard link, and
   the om-full+sched link whose scheduled and aligned code is the
   furthest from what the compiler emits. *)

let quick_images ~om =
  List.concat_map
    (fun (b : Workloads.Programs.benchmark) ->
      List.concat_map
        (fun build ->
          let name level =
            Printf.sprintf "%s/%s/%s" b.Workloads.Programs.name
              (Workloads.Suite.build_name build) level
          in
          let world =
            match Workloads.Suite.compile_cached build b with
            | Ok w -> w
            | Error m -> Alcotest.failf "%s: %s" (name "compile") m
          in
          let std =
            match Linker.Link.link_resolved world with
            | Ok image -> (name "std", image)
            | Error m -> Alcotest.failf "%s: %s" (name "std") m
          in
          if not om then [ std ]
          else
            match Om.optimize_resolved Om.Full_sched world with
            | Ok { Om.image; _ } -> [ std; (name "om-full+sched", image) ]
            | Error m -> Alcotest.failf "%s: %s" (name "om-full+sched") m)
        Workloads.Suite.all_builds)
    (Testutil.quick_benchmarks ())

(* Mutated text: the fused executors on instruction shapes the compiler
   never emits — writes to r31, odd PAL codes, branches out of the text,
   loads and stores through garbage. Each mutant flips one to three bits
   of random text words; every mutant that still decodes must give the
   same result (outcome and stats, or the same fault) on the plain fused
   run, the profiled fused run and the reference, and the profile must
   match the reference's per PC. *)
let test_mutated_text () =
  let images = Array.of_list (quick_images ~om:true) in
  let rng = Fuzz.Rng.create 25 in
  let config = { Machine.Cpu.default_config with max_insns = 20_000 } in
  let decoded = ref 0 in
  for k = 1 to 1000 do
    let name, image = images.(Fuzz.Rng.int rng (Array.length images)) in
    let text = Bytes.copy image.Linker.Image.text in
    let words = Bytes.length text / 4 in
    for _ = 0 to Fuzz.Rng.int rng 3 do
      let w = Fuzz.Rng.int rng words in
      Bytes.set_int32_le text (4 * w)
        (Int32.of_int (Isa.Decode.word text w lxor (1 lsl Fuzz.Rng.int rng 32)))
    done;
    match Machine.Cpu.decode { image with Linker.Image.text } with
    | Error _ -> ()
    | Ok d ->
        incr decoded;
        let what = Printf.sprintf "mutant %d of %s" k name in
        let blocks = Machine.Blocks.create ~config d in
        let plain = Machine.Cpu.run_decoded ~config ~blocks d in
        let profile = Machine.Blocks.profile d in
        let profiled = Machine.Cpu.run_decoded ~config ~blocks ~profile d in
        let reference, ref_prof = Fuzz.Oracle.reference_profile ~config d in
        Alcotest.check result_t (what ^ ": fused = reference") reference plain;
        Alcotest.check result_t (what ^ ": profiled = reference") reference
          profiled;
        (match
           Fuzz.Oracle.check_profile what d ~fused:profile ~reference:ref_prof
         with
        | Ok () -> ()
        | Error f -> Alcotest.failf "%a" Fuzz.Oracle.pp_failure f)
  done;
  (* a floor, so that a decoder refusing everything cannot pass *)
  Alcotest.(check bool)
    (Printf.sprintf "%d of 1000 mutants decode" !decoded)
    true (!decoded >= 400)

(* The unboxed hot loop: once a [Blocks.t] has fused an image, running
   it again allocates only the fresh machine and the outcome — a few
   hundred minor words however many instructions retire. An executor
   that boxed its operands (a cross-module call into its body, see the
   [-opaque] note in blocks.ml) would allocate millions. *)
let test_warm_run_allocates_nothing () =
  List.iter
    (fun (name, image) ->
      let d = Result.get_ok (Machine.Cpu.decode image) in
      let blocks = Machine.Blocks.create d in
      ignore (Machine.Cpu.run_decoded ~blocks d);
      let before = Gc.minor_words () in
      let r = Machine.Cpu.run_decoded ~blocks d in
      let words = Gc.minor_words () -. before in
      (match r with
      | Ok o ->
          Alcotest.(check bool) (name ^ ": ran") true
            (o.Machine.Cpu.stats.Machine.Cpu.insns > 100_000)
      | Error e -> Alcotest.failf "%s: fault: %a" name Machine.Cpu.pp_error e);
      if words >= 1000. then
        Alcotest.failf "%s: warm run allocated %.0f minor words" name words)
    (quick_images ~om:false)

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
        test_cache_counters;
      Alcotest.test_case "never-written memory reads 0" `Quick
        test_never_written_reads_zero;
      Alcotest.test_case "last heap and lowest stack word hold data" `Quick
        test_region_ends_hold_data;
      Alcotest.test_case "one word past each region end faults" `Quick
        test_past_each_end_faults;
      Alcotest.test_case "writes to r31 and branches off the text" `Quick
        test_rare_shapes;
      Alcotest.test_case "mutated text: fused = profiled = reference" `Quick
        test_mutated_text;
      Alcotest.test_case "warm run allocates nothing per instruction" `Quick
        test_warm_run_allocates_nothing ] )
