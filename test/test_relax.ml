(* The span-relaxation fixed point (Om.Relax), exercised at unit level:
   the pipeline pieces are driven by hand so tests can inject
   span-dependent sites at exactly the widths where decisions flip, and
   compare the relaxed emission against the one-shot conservative one on
   the same transformed program. *)

module S = Om.Symbolic
module I = Isa.Insn
module R = Isa.Reg

let resolve_units units =
  match Linker.Resolve.run units ~archives:[ Runtime.libstd () ] with
  | Ok w -> w
  | Error m -> Alcotest.failf "resolve: %s" m

let lift world =
  match Om.Lift.run world with
  | Ok p -> p
  | Error m -> Alcotest.failf "lift: %s" m

let std_output world =
  match Linker.Link.link_resolved world with
  | Ok image -> (Testutil.run_image image).Machine.Cpu.output
  | Error m -> Alcotest.failf "standard link: %s" m

(* The conservative merged-group plan the pre-relax levels use: a correct
   upper bound for any program, including ones with injected nodes.
   [gat_bytes] overrides the reservation with a single roomier group, for
   tests that add GAT keys beyond what the object code referenced. *)
let merged_plan ?gat_bytes (world : Linker.Resolve.t) =
  let merged = Linker.Gat.merge world in
  match gat_bytes with
  | Some b ->
      Om.Datalayout.plan world
        ~group_of_module:
          (Array.map (fun _ -> 0) merged.Linker.Gat.group_of_module)
        ~ngroups:1 ~group_gat_bytes:[| b |]
  | None ->
      let bytes =
        Array.init merged.Linker.Gat.ngroups (fun g ->
            let first = merged.Linker.Gat.group_first_slot.(g) in
            let next =
              if g + 1 < merged.Linker.Gat.ngroups then
                merged.Linker.Gat.group_first_slot.(g + 1)
              else Array.length merged.Linker.Gat.slots
            in
            8 * (next - first))
      in
      Om.Datalayout.plan world
        ~group_of_module:merged.Linker.Gat.group_of_module
        ~ngroups:merged.Linker.Gat.ngroups ~group_gat_bytes:bytes

(* Relax, lower, verify; any failure fails the test. *)
let relax_lower program plan =
  let stats = Om.Stats.create () in
  let plan =
    match Om.Relax.run program plan stats with
    | Ok p -> p
    | Error m -> Alcotest.failf "relax: %s" m
  in
  match Om.Lower.run program plan with
  | Error m -> Alcotest.failf "lower: %s" m
  | Ok (image, _) -> (
      match Om.Verify.check image with
      | Ok () -> (image, stats)
      | Error m -> Alcotest.failf "verify: %s" m)

let find_proc (program : S.program) name =
  match
    Array.to_list program.S.procs
    |> List.find_opt (fun (p : S.proc) -> String.equal p.S.sp_name name)
  with
  | Some p -> p
  | None -> Alcotest.failf "no procedure %s in lifted program" name

let seven = {|func main() { io_putint(7); return 0; }|}

(* Every relaxation decision below is made on dead code appended after
   main's return: the sites are placed (and must be correct) statically,
   while the program's runtime behavior pins down that nothing else was
   disturbed. *)

let test_far_branches_at_disp21_edge () =
  let world = resolve_units [ Testutil.compile seven ] in
  let expected = std_output world in
  let program = lift world in
  let main = find_proc program "main" in
  let mk i = S.make_node program i in
  let far = S.fresh_label program in
  let near = S.fresh_label program in
  let bc =
    mk (S.Branch { insn = I.Bcond { cond = I.Beq; ra = R.zero; disp = 0 };
                   target = far })
  in
  let bsr = mk (S.Branch { insn = I.Bsr { ra = R.ra; disp = 0 }; target = far }) in
  let br_grow = mk (S.Branch { insn = I.Br { ra = R.zero; disp = 0 }; target = far }) in
  let br_fit = mk (S.Branch { insn = I.Br { ra = R.zero; disp = 0 }; target = near }) in
  (* br_fit -> land_near spans exactly 1048575 words, the last value
     fits_disp21 accepts; the three sites before it span one-plus words
     more and must all grow. Their growth shifts br_fit and its target
     together, so the edge distance survives every pass. *)
  let pad = Array.init 1048575 (fun _ -> mk (S.Raw I.nop)) in
  let land_near = mk (S.Raw I.nop) in
  land_near.S.labels <- [ near ];
  let land_far = mk (S.Raw I.nop) in
  land_far.S.labels <- [ far ];
  main.S.body <-
    Array.concat
      [ main.S.body; [| bc; bsr; br_grow; br_fit |]; pad;
        [| land_near; land_far |] ];
  let image, stats = relax_lower program (merged_plan world) in
  (match br_fit.S.insn with
  | S.Branch _ -> ()
  | _ -> Alcotest.fail "the exactly-in-range branch must keep its short form");
  (match br_grow.S.insn with
  | S.Br_far { ra; _ } when R.equal ra R.zero -> ()
  | _ -> Alcotest.fail "out-of-range br must grow to Br_far");
  (match bsr.S.insn with
  | S.Bsr_far { ra; _ } when R.equal ra R.ra -> ()
  | _ -> Alcotest.fail "out-of-range bsr must grow to Bsr_far");
  (match bc.S.insn with
  | S.Bcond_far { cond = I.Beq; _ } -> ()
  | _ -> Alcotest.fail "out-of-range bcond must grow to Bcond_far");
  Alcotest.(check int) "three sites grown" 3 stats.Om.Stats.sites_grown;
  Alcotest.(check int) "converges in two passes" 2
    stats.Om.Stats.relax_iterations;
  Alcotest.(check string) "behavior unchanged" expected
    (Testutil.run_image image).Machine.Cpu.output

let test_branch_to_next_is_elided () =
  let world = resolve_units [ Testutil.compile seven ] in
  let expected = std_output world in
  let program = lift world in
  let main = find_proc program "main" in
  let lbl = S.fresh_label program in
  let br =
    S.make_node program
      (S.Branch { insn = I.Br { ra = R.zero; disp = 0 }; target = lbl })
  in
  let landing = S.make_node program (S.Raw I.nop) in
  landing.S.labels <- [ lbl ];
  main.S.body <- Array.append main.S.body [| br; landing |];
  let plan = merged_plan world in
  (* one-shot emission keeps the branch; relaxation must drop it *)
  let one_shot =
    match Om.Lower.run program plan with
    | Ok (image, _) -> Bytes.length image.Linker.Image.text
    | Error m -> Alcotest.failf "one-shot lower: %s" m
  in
  let image, stats = relax_lower program plan in
  (match br.S.insn with
  | S.Elided (S.Branch _) -> ()
  | _ -> Alcotest.fail "branch to the next instruction must be elided");
  (* the lifted runtime may contribute its own branch-to-next sites; the
     injected one is among them and each saves exactly one word *)
  Alcotest.(check bool) "the injected branch is counted" true
    (stats.Om.Stats.branches_elided >= 1);
  Alcotest.(check int) "text shrinks by exactly the elided branches"
    (one_shot - (4 * stats.Om.Stats.branches_elided))
    (Bytes.length image.Linker.Image.text);
  Alcotest.(check string) "behavior unchanged" expected
    (Testutil.run_image image).Machine.Cpu.output

let test_gat_slots_past_window_grow_wide () =
  let world = resolve_units [ Testutil.compile seven ] in
  let expected = std_output world in
  let program = lift world in
  let main = find_proc program "main" in
  (* 8300 distinct literal keys force slots past the 16-bit GP window
     (the GP sits 0x7ff0 into the table, so slots from index 8190 on are
     out of a short Gatload's reach) *)
  let nconst = 8300 in
  let injected =
    List.init nconst (fun i ->
        S.make_node program
          (S.Gatload { ra = R.t0; key = S.Pconst (Int64.of_int (1_000_000 + i)) }))
  in
  main.S.body <- Array.append main.S.body (Array.of_list injected);
  let plan = merged_plan ~gat_bytes:(8 * (nconst + 64)) world in
  let image, stats = relax_lower program plan in
  (* keys referenced after the injected ones (the runtime's own loads)
     land on even later slots and grow too — count program-wide *)
  let wide = ref 0 in
  S.iter_nodes program (fun _ n ->
      match n.S.insn with S.Gatload_wide _ -> incr wide | _ -> ());
  Alcotest.(check bool) "some slots went wide" true (!wide > 0);
  Alcotest.(check bool) "most slots stayed short" true (!wide < nconst / 2);
  Alcotest.(check int) "growth is counted" !wide stats.Om.Stats.sites_grown;
  Alcotest.(check string) "behavior unchanged" expected
    (Testutil.run_image image).Machine.Cpu.output

let test_lea_wide_in_window_narrows () =
  let world =
    resolve_units
      [ Testutil.compile
          {|var g = 5; func main() { io_putint(g); return 0; }|} ]
  in
  let expected = std_output world in
  let program = lift world in
  let main = find_proc program "main" in
  let gi = ref (-1) in
  Array.iteri
    (fun i (o : Linker.Resolve.obj_rec) ->
      if String.equal o.Linker.Resolve.o_name "g" then gi := i)
    world.Linker.Resolve.objs;
  Alcotest.(check bool) "g resolved" true (!gi >= 0);
  let lea =
    S.make_node program
      (S.Lea_wide { ra = R.t0; target = Linker.Resolve.Tobj !gi; addend = 0 })
  in
  main.S.body <- Array.append main.S.body [| lea |];
  let image, stats = relax_lower program (merged_plan world) in
  (match lea.S.insn with
  | S.Gprel { insn = I.Lda _; part = S.Pfull; _ } -> ()
  | _ -> Alcotest.fail "in-window lea-wide must narrow to a gp-relative lda");
  Alcotest.(check int) "one site narrowed" 1 stats.Om.Stats.sites_narrowed;
  Alcotest.(check string) "behavior unchanged" expected
    (Testutil.run_image image).Machine.Cpu.output

(* The serial oracle: on the same transformed program, relaxed emission
   must behave exactly like the one-shot conservative emission and never
   produce more text. *)
let test_relaxed_matches_one_shot_oracle () =
  List.iter
    (fun src ->
      let world = resolve_units [ Testutil.compile src ] in
      let program = lift world in
      let plan = merged_plan world in
      let stats = Om.Stats.create () in
      ignore (Om.Transform.run Om.Transform.Full program plan stats);
      let conservative =
        match Om.Lower.run program plan with
        | Ok (image, _) -> image
        | Error m -> Alcotest.failf "one-shot lower: %s" m
      in
      let relaxed, _ = relax_lower program plan in
      Alcotest.(check string) "identical behavior"
        (Testutil.run_image conservative).Machine.Cpu.output
        (Testutil.run_image relaxed).Machine.Cpu.output;
      Alcotest.(check bool) "text never grows" true
        (Bytes.length relaxed.Linker.Image.text
        <= Bytes.length conservative.Linker.Image.text))
    [ seven;
      {|var a = 3; var b = 4;
        func max(x, y) { if (x > y) { return x; } return y; }
        func main() {
          var i; var s;
          s = 0;
          for (i = 0; i < 10; i = i + 1) { s = s + max(a, i * b); }
          io_putint(s);
          return 0; }|};
      {|var tbl[16];
        func fill() { var i; for (i = 0; i < 16; i = i + 1) { tbl[i] = i * i; } return 0; }
        func main() {
          fill();
          io_putint(tbl[3] + tbl[15]);
          return 0; }|} ]

(* End-to-end over the public pipeline: every OM level agrees with the
   standard link, and the relaxing levels never emit more text than the
   non-relaxing baseline of the same program. *)
let test_levels_agree_and_text_shrinks () =
  let src =
    {|var acc = 0;
      func bump(n) { acc = acc + n; return acc; }
      func main() {
        var i;
        for (i = 1; i < 6; i = i + 1) { bump(i); }
        io_putint(acc);
        return 0; }|}
  in
  let world = resolve_units [ Testutil.compile src ] in
  let expected = std_output world in
  let text_of level =
    match Om.optimize_resolved level world with
    | Error m -> Alcotest.failf "%s: %s" (Om.level_name level) m
    | Ok { Om.image; stats; _ } ->
        Alcotest.(check string)
          (Om.level_name level ^ " behavior")
          expected
          (Testutil.run_image image).Machine.Cpu.output;
        (Bytes.length image.Linker.Image.text, stats)
  in
  let noopt, _ = text_of Om.No_opt in
  List.iter
    (fun level ->
      let t, stats = text_of level in
      Alcotest.(check bool)
        (Om.level_name level ^ " text <= om-noopt")
        true (t <= noopt);
      Alcotest.(check bool)
        (Om.level_name level ^ " ran the fixed point")
        true
        (stats.Om.Stats.relax_iterations >= 1))
    [ Om.Full; Om.Full_sched; Om.Gc ]

let suite =
  ( "relax",
    [ Alcotest.test_case "far branch forms at the disp21 edge" `Slow
        test_far_branches_at_disp21_edge;
      Alcotest.test_case "branch to next is elided" `Quick
        test_branch_to_next_is_elided;
      Alcotest.test_case "GAT slots past the window grow wide" `Quick
        test_gat_slots_past_window_grow_wide;
      Alcotest.test_case "in-window lea-wide narrows" `Quick
        test_lea_wide_in_window_narrows;
      Alcotest.test_case "relaxed emission matches the one-shot oracle" `Quick
        test_relaxed_matches_one_shot_oracle;
      Alcotest.test_case "levels agree and text never grows" `Quick
        test_levels_agree_and_text_shrinks ] )
