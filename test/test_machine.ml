module I = Isa.Insn
module R = Isa.Reg

(* Build a runnable image from raw instructions via the normal pipeline,
   so the machine tests exercise real linked code. *)
let image_of_insns insns =
  let m = Minic.Masm.create "m.o" in
  Minic.Masm.add_proc m ~name:"__start" insns;
  let unit = Minic.Masm.assemble m in
  match Linker.Link.link [ unit ] ~archives:[] with
  | Ok image -> image
  | Error msg -> Alcotest.failf "link: %s" msg

let exit_with code =
  [ Minic.Masm.Insn (I.Lda { ra = R.a0; rb = code; disp = 0 });
    Minic.Masm.Insn (I.Lda { ra = R.v0; rb = R.zero; disp = 0 });
    Minic.Masm.Insn (I.Call_pal 0x83) ]

let run insns =
  match Machine.Cpu.run (image_of_insns insns) with
  | Ok o -> o
  | Error e -> Alcotest.failf "fault: %a" Machine.Cpu.pp_error e

let test_cache () =
  let c = Machine.Cache.create ~size_bytes:64 ~line_bytes:32 in
  Alcotest.(check bool) "first access misses" false (Machine.Cache.access c 0);
  Alcotest.(check bool) "same line hits" true (Machine.Cache.access c 24);
  Alcotest.(check bool) "second line misses" false (Machine.Cache.access c 32);
  (* 64-byte direct-mapped: address 64 maps to line 0 again *)
  Alcotest.(check bool) "conflict evicts" false (Machine.Cache.access c 64);
  Alcotest.(check bool) "original line was evicted" false
    (Machine.Cache.access c 0);
  Alcotest.(check int) "misses counted" 4 (Machine.Cache.misses c)

let test_arithmetic () =
  (* v0=6*7 via mulq; exit with it *)
  let o =
    run
      ([ Minic.Masm.Insn (I.Lda { ra = R.t0; rb = R.zero; disp = 6 });
         Minic.Masm.Insn (I.Lda { ra = R.t1; rb = R.zero; disp = 7 });
         Minic.Masm.Insn (I.Op { op = I.Mulq; ra = R.t0; rb = I.Rb R.t1; rc = R.a0 });
         Minic.Masm.Insn (I.Lda { ra = R.v0; rb = R.zero; disp = 0 });
         Minic.Masm.Insn (I.Call_pal 0x83) ])
  in
  Alcotest.(check int64) "6*7" 42L o.Machine.Cpu.exit_code

let test_memory () =
  (* store then load through sp *)
  let o =
    run
      [ Minic.Masm.Insn (I.Lda { ra = R.t0; rb = R.zero; disp = 1234 });
        Minic.Masm.Insn (I.Stq { ra = R.t0; rb = R.sp; disp = -16 });
        Minic.Masm.Insn (I.Ldq { ra = R.a0; rb = R.sp; disp = -16 });
        Minic.Masm.Insn (I.Lda { ra = R.v0; rb = R.zero; disp = 0 });
        Minic.Masm.Insn (I.Call_pal 0x83) ]
  in
  Alcotest.(check int64) "store/load" 1234L o.Machine.Cpu.exit_code

let test_unaligned_faults () =
  let image =
    image_of_insns
      [ Minic.Masm.Insn (I.Ldq { ra = R.t0; rb = R.sp; disp = -13 });
        Minic.Masm.Insn (I.Call_pal 0x83) ]
  in
  match Machine.Cpu.run image with
  | Error (Machine.Cpu.Unaligned_access _) -> ()
  | Error e -> Alcotest.failf "wrong fault: %a" Machine.Cpu.pp_error e
  | Ok _ -> Alcotest.fail "expected a fault"

let test_wild_address_faults () =
  let image =
    image_of_insns
      [ Minic.Masm.Insn (I.Ldq { ra = R.t0; rb = R.zero; disp = 16 });
        Minic.Masm.Insn (I.Call_pal 0x83) ]
  in
  match Machine.Cpu.run image with
  | Error (Machine.Cpu.Out_of_range_access _) -> ()
  | Error e -> Alcotest.failf "wrong fault: %a" Machine.Cpu.pp_error e
  | Ok _ -> Alcotest.fail "expected a fault"

let test_insn_limit () =
  let m = Minic.Masm.create "loop.o" in
  let l = Minic.Masm.fresh_label m in
  Minic.Masm.add_proc m ~name:"__start"
    [ Minic.Masm.Label l;
      Minic.Masm.Branch { insn = I.Br { ra = R.zero; disp = 0 }; target = l } ];
  let unit = Minic.Masm.assemble m in
  let image = Result.get_ok (Linker.Link.link [ unit ] ~archives:[]) in
  let config = { Machine.Cpu.default_config with max_insns = 1000 } in
  match Machine.Cpu.run ~config image with
  | Error Machine.Cpu.Insn_limit_reached -> ()
  | Error e -> Alcotest.failf "wrong fault: %a" Machine.Cpu.pp_error e
  | Ok _ -> Alcotest.fail "expected the limit to fire"

let test_output_syscalls () =
  let out = Testutil.run_src {|
func main() {
  io_putint(0 - 42);
  io_putchar(10);
  io_puts("hi");
  io_newline();
  return 0;
}
|} in
  Alcotest.(check string) "stdout" "-42\nhi\n" out

let test_sbrk () =
  let out = Testutil.run_src {|
func main() {
  var p = alloc(4);
  var q = alloc(4);
  p[0] = 5;
  q[0] = 7;
  io_putint(q - p);
  io_putchar(10);
  io_putint(p[0] + q[0]);
  return 0;
}
|} in
  Alcotest.(check string) "bump allocation" "32\n12" out

let test_branch_timing () =
  (* a taken branch must cost at least one extra cycle over fall-through *)
  let straight =
    run
      ([ Minic.Masm.Insn I.nop; Minic.Masm.Insn I.nop ] @ exit_with R.zero)
  in
  let m = Minic.Masm.create "b.o" in
  let l = Minic.Masm.fresh_label m in
  Minic.Masm.add_proc m ~name:"__start"
    ([ Minic.Masm.Branch { insn = I.Br { ra = R.zero; disp = 0 }; target = l };
       Minic.Masm.Insn I.nop;
       Minic.Masm.Label l ]
    @ exit_with R.zero);
  let unit = Minic.Masm.assemble m in
  let image = Result.get_ok (Linker.Link.link [ unit ] ~archives:[]) in
  let branchy =
    match Machine.Cpu.run image with
    | Ok o -> o
    | Error e -> Alcotest.failf "fault: %a" Machine.Cpu.pp_error e
  in
  Alcotest.(check bool) "taken branch costs a bubble" true
    (branchy.Machine.Cpu.stats.Machine.Cpu.cycles
     >= straight.Machine.Cpu.stats.Machine.Cpu.cycles)

let test_dual_issue_effect () =
  (* the same program runs in fewer cycles with dual issue enabled *)
  let src = {|
func main() {
  var s = 0;
  var i = 0;
  while (i < 1000) { s = s + i * 3; i = i + 1; }
  io_putint(s);
  return 0;
}
|} in
  let image = Testutil.link_std [ Testutil.compile src ] in
  let dual = Testutil.run_image image in
  let single =
    match
      Machine.Cpu.run
        ~config:{ Machine.Cpu.default_config with dual_issue = false }
        image
    with
    | Ok o -> o
    | Error e -> Alcotest.failf "fault: %a" Machine.Cpu.pp_error e
  in
  Alcotest.(check string) "same output" dual.Machine.Cpu.output
    single.Machine.Cpu.output;
  Alcotest.(check bool) "dual issue is faster" true
    (dual.Machine.Cpu.stats.Machine.Cpu.cycles
     < single.Machine.Cpu.stats.Machine.Cpu.cycles)

(* The simulator's pairing rule, on two-instruction programs at
   [__start] (the first word of an aligned quadword): the second
   instruction issues in its predecessor's cycle exactly when its
   reference probe event costs 0 cycles, and the fused path agrees on
   the total. Only a read-after-write dependence, a shared pipe or a
   control predecessor splits a pair. *)
let test_dual_issue_pairing () =
  let pairs name i1 i2 =
    let image =
      image_of_insns
        ([ Minic.Masm.Insn i1; Minic.Masm.Insn i2 ] @ exit_with R.zero)
    in
    let entry = image.Linker.Image.entry in
    Alcotest.(check int) "__start is quadword-aligned" 0 (entry land 7);
    let second = ref None in
    let reference =
      match
        Machine.Cpu.run_reference
          ~probe:(fun ev ->
            if ev.Machine.Cpu.ev_pc = entry + 4 && !second = None then
              second := Some ev.Machine.Cpu.ev_cycles)
          image
      with
      | Ok o -> o
      | Error e -> Alcotest.failf "%s: fault: %a" name Machine.Cpu.pp_error e
    in
    Alcotest.(check int)
      (name ^ ": the fused path agrees on cycles")
      reference.Machine.Cpu.stats.Machine.Cpu.cycles
      (run ([ Minic.Masm.Insn i1; Minic.Masm.Insn i2 ] @ exit_with R.zero))
        .Machine.Cpu.stats.Machine.Cpu.cycles;
    match !second with
    | Some cycles -> cycles = 0
    | None -> Alcotest.failf "%s: the second instruction never retired" name
  in
  let addq ra rb rc = I.Op { op = I.Addq; ra; rb; rc } in
  List.iter
    (fun (name, expected, i1, i2) ->
      Alcotest.(check bool) name expected (pairs name i1 i2))
    [ ( "an operate and an independent load pair", true,
        addq R.t0 (I.Imm 1) R.t1,
        I.Ldq { ra = R.t2; rb = R.sp; disp = 0 } );
      ( "a load reading the operate's result does not pair", false,
        addq R.sp (I.Imm 0) R.t1,
        I.Ldq { ra = R.t2; rb = R.t1; disp = 0 } );
      ( "two operates share the E pipe and do not pair", false,
        addq R.t0 (I.Imm 1) R.t1,
        I.Op { op = I.Subq; ra = R.t3; rb = I.Imm 1; rc = R.t4 } );
      ( "a write-after-write pair pairs", true,
        addq R.t0 (I.Imm 1) R.t1,
        I.Ldq { ra = R.t1; rb = R.sp; disp = 0 } );
      ( "a not-taken conditional pairs with its successor", true,
        I.Bcond { cond = I.Bne; ra = R.zero; disp = 0 },
        addq R.t0 (I.Imm 1) R.t1 );
      ( "an operate pairs with a following call_pal", true,
        addq R.t0 (I.Imm 1) R.t1,
        I.Call_pal 0x83 ) ]

let test_cycles_at_least_insns () =
  let o = run (exit_with R.zero) in
  Alcotest.(check bool) "cycles >= insns/2" true
    (o.Machine.Cpu.stats.Machine.Cpu.cycles
     >= o.Machine.Cpu.stats.Machine.Cpu.insns / 2)

let test_cache_hits_and_aliasing () =
  let c = Machine.Cache.create ~size_bytes:128 ~line_bytes:32 in
  Alcotest.(check (list bool)) "line 0: a miss, then two hits"
    [ false; true; true ]
    (List.map (Machine.Cache.access c) [ 0; 8; 31 ]);
  Alcotest.(check int) "one miss on line 0" 1 (Machine.Cache.misses c);
  (* 128 and 0 alias in a 128-byte direct-mapped cache; 32 does not *)
  Alcotest.(check bool) "line 1 misses" false (Machine.Cache.access c 32);
  Alcotest.(check bool) "aliased line misses" false
    (Machine.Cache.access c 128);
  Alcotest.(check bool) "alias evicted line 0" false
    (Machine.Cache.access c 0);
  Alcotest.(check bool) "line 1 survives the alias war" true
    (Machine.Cache.access c 40);
  Alcotest.(check int) "misses tallied" 4 (Machine.Cache.misses c);
  (* [fill] is [access]'s miss path: it installs the line and counts *)
  Machine.Cache.fill c 128;
  Alcotest.(check int) "fill counts a miss" 5 (Machine.Cache.misses c);
  Alcotest.(check bool) "filled line hits" true (Machine.Cache.access c 150);
  Alcotest.(check bool) "fill evicted line 0" false (Machine.Cache.access c 0)

let test_unknown_pal () =
  let image = image_of_insns [ Minic.Masm.Insn (I.Call_pal 0x12) ] in
  (match Machine.Cpu.run image with
  | Error (Machine.Cpu.Unknown_pal 0x12) -> ()
  | Error e -> Alcotest.failf "wrong fault: %a" Machine.Cpu.pp_error e
  | Ok _ -> Alcotest.fail "expected a fault");
  match Machine.Cpu.run_reference image with
  | Error (Machine.Cpu.Unknown_pal 0x12) -> ()
  | Error e ->
      Alcotest.failf "reference: wrong fault: %a" Machine.Cpu.pp_error e
  | Ok _ -> Alcotest.fail "reference: expected a fault"

let test_bad_syscall_is_not_unknown_pal () =
  (* callsys with a bogus code in v0: Bad_syscall, never Unknown_pal *)
  let image =
    image_of_insns
      [ Minic.Masm.Insn (I.Lda { ra = R.v0; rb = R.zero; disp = 99 });
        Minic.Masm.Insn (I.Call_pal 0x83) ]
  in
  match Machine.Cpu.run image with
  | Error (Machine.Cpu.Bad_syscall 99L) -> ()
  | Error e -> Alcotest.failf "wrong fault: %a" Machine.Cpu.pp_error e
  | Ok _ -> Alcotest.fail "expected a fault"

let test_undecodable_reports_real_pc () =
  (* corrupt the second instruction word: the fault must carry that PC,
     not the image base *)
  let image = image_of_insns (exit_with R.zero) in
  let text = Bytes.copy image.Linker.Image.text in
  Bytes.set_int32_le text 4 0x10000000l (* opcode 0x04: unassigned *);
  let image = { image with Linker.Image.text } in
  let expect name = function
    | Error (Machine.Cpu.Undecodable pc) ->
        Alcotest.(check int)
          (name ^ " names the offending pc")
          (image.Linker.Image.text_base + 4)
          pc
    | Error e -> Alcotest.failf "%s: wrong fault: %a" name Machine.Cpu.pp_error e
    | Ok _ -> Alcotest.failf "%s: expected a decode fault" name
  in
  expect "fast path" (Machine.Cpu.run image);
  expect "reference" (Machine.Cpu.run_reference image)

let mask_of_regs regs =
  List.fold_left
    (fun m r ->
      let i = R.to_int r in
      if i = 31 then m else m lor (1 lsl i))
    0 regs

let test_masks_match_lists () =
  let samples =
    [ I.Lda { ra = R.t0; rb = R.sp; disp = 8 };
      I.Ldah { ra = R.gp; rb = R.t11; disp = 1 };
      I.Ldq { ra = R.a0; rb = R.gp; disp = -16 };
      I.Stq { ra = R.t1; rb = R.sp; disp = 0 };
      I.Br { ra = R.zero; disp = 3 };
      I.Bsr { ra = R.ra; disp = -2 };
      I.Bcond { cond = I.Beq; ra = R.t2; disp = 1 };
      I.Jump { kind = I.Jsr; ra = R.ra; rb = R.pv; hint = 0 };
      I.Jump { kind = I.Ret; ra = R.zero; rb = R.ra; hint = 0 };
      I.Op { op = I.Addq; ra = R.t0; rb = I.Rb R.t1; rc = R.t2 };
      I.Op { op = I.Subq; ra = R.t3; rb = I.Imm 5; rc = R.zero };
      I.Call_pal 0x83;
      I.nop ]
  in
  List.iter
    (fun insn ->
      Alcotest.(check int)
        (Format.asprintf "defs mask of %a" I.pp insn)
        (mask_of_regs (I.defs insn))
        (I.defs_mask insn);
      Alcotest.(check int)
        (Format.asprintf "uses mask of %a" I.pp insn)
        (mask_of_regs (I.uses insn))
        (I.uses_mask insn))
    samples

(* --- programs that cross several memory-growth steps ---

   Memory is allocated as the program writes it, and both interpreters
   share State's cold path for that, so the differential tests cannot
   catch a bug in it (a wrong blit offset when the stack grows would
   corrupt both alike). These programs check known answers instead, at
   std and at every OM level, on the fused path, the profiled fused path
   and the reference interpreter. *)

let pp_known ppf = function
  | Ok out -> Format.fprintf ppf "output %S" out
  | Error e -> Format.fprintf ppf "fault: %a" Machine.Cpu.pp_error e

let known_t = Alcotest.testable pp_known ( = )

let check_known_answer src expect =
  List.iter
    (fun (level, d) ->
      List.iter
        (fun (how, r) ->
          Alcotest.check known_t (level ^ ", " ^ how) expect
            (Result.map (fun o -> o.Machine.Cpu.output) r))
        [ ("fused", Machine.Cpu.run_decoded d);
          ( "profiled",
            Machine.Cpu.run_decoded ~profile:(Machine.Blocks.profile d) d );
          ("reference", Machine.Cpu.run_reference d.Linker.Image.image) ])
    (Testutil.level_images src)

(* [down]'s frames are 16 bytes, so a depth of 20000 uses 320 KB of
   stack: the stack grows from its initial chunk several times, and every
   saved return address and argument must survive each move. *)
let recursion_src depth =
  Printf.sprintf
    {|
func down(n) {
  if (n == 0) { return 0; }
  return n + down(n - 1);
}
func main() { io_put_labeled("sum", down(%d)); return 0; }
|}
    depth

let test_deep_recursion () =
  let n = 20_000 in
  check_known_answer (recursion_src n)
    (Ok (Printf.sprintf "sum=%d\n" (n * (n + 1) / 2)))

(* 1 MB of heap, filled front to back (growing the heap at each
   doubling) and then summed, so every word written before a growth step
   must still be there after it. *)
let test_large_alloc () =
  let n = 131_072 in
  check_known_answer
    (Printf.sprintf
       {|
func main() {
  var p = alloc(%d);
  var i = 0;
  while (i < %d) { p[i] = i * 3 + 1; i = i + 1; }
  var s = 0;
  i = 0;
  while (i < %d) { s = s + p[i]; i = i + 1; }
  io_put_labeled("sum", s);
  return 0;
}
|}
       n n n)
    (Ok (Printf.sprintf "sum=%d\n" ((3 * n * (n - 1) / 2) + n)))

(* Recursing past the 1 MB stack faults on the first store below it,
   exactly as when the whole stack was allocated up front: [down]'s
   frame that no longer fits starts 16 bytes below the stack's low end. *)
let test_stack_overflow () =
  check_known_answer (recursion_src 1_000_000)
    (Error
       (Machine.Cpu.Out_of_range_access
          (Linker.Layout.stack_top - Linker.Layout.stack_bytes - 16)))

let suite =
  ( "machine",
    [ Alcotest.test_case "direct-mapped cache" `Quick test_cache;
      Alcotest.test_case "arithmetic" `Quick test_arithmetic;
      Alcotest.test_case "memory" `Quick test_memory;
      Alcotest.test_case "unaligned access faults" `Quick test_unaligned_faults;
      Alcotest.test_case "wild address faults" `Quick test_wild_address_faults;
      Alcotest.test_case "instruction limit" `Quick test_insn_limit;
      Alcotest.test_case "output system calls" `Quick test_output_syscalls;
      Alcotest.test_case "sbrk allocation" `Quick test_sbrk;
      Alcotest.test_case "branch timing" `Quick test_branch_timing;
      Alcotest.test_case "dual issue speeds up" `Quick test_dual_issue_effect;
      Alcotest.test_case "cycle sanity" `Quick test_cycles_at_least_insns;
      Alcotest.test_case "cache hits, aliasing, fill" `Quick
        test_cache_hits_and_aliasing;
      Alcotest.test_case "unknown palcode faults" `Quick test_unknown_pal;
      Alcotest.test_case "bad syscall is not unknown pal" `Quick
        test_bad_syscall_is_not_unknown_pal;
      Alcotest.test_case "undecodable fault carries real pc" `Quick
        test_undecodable_reports_real_pc;
      Alcotest.test_case "uses/defs masks match lists" `Quick
        test_masks_match_lists;
      Alcotest.test_case "deep recursion grows the stack" `Quick
        test_deep_recursion;
      Alcotest.test_case "1 MB alloc grows the heap" `Quick test_large_alloc;
      Alcotest.test_case "stack overflow faults as before" `Quick
        test_stack_overflow;
      Alcotest.test_case "dual-issue pairing" `Quick test_dual_issue_pairing ] )
