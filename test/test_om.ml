module S = Om.Symbolic
module I = Isa.Insn
module R = Isa.Reg

let world_of ?(extra = []) src =
  let units = Testutil.compile src :: extra in
  match Linker.Resolve.run units ~archives:[ Runtime.libstd () ] with
  | Ok w -> w
  | Error m -> Alcotest.failf "resolve: %s" m

let lift world =
  match Om.Lift.run world with
  | Ok p -> p
  | Error m -> Alcotest.failf "lift: %s" m

let om_level level world =
  match Om.optimize_resolved level world with
  | Ok r -> r
  | Error m -> Alcotest.failf "%s: %s" (Om.level_name level) m

let find_proc (p : S.program) name =
  match
    Array.to_seq p.S.procs
    |> Seq.find (fun (pr : S.proc) -> String.equal pr.sp_name name)
  with
  | Some pr -> pr
  | None -> Alcotest.failf "no procedure %s in symbolic program" name

(* --- lift --- *)

let test_lift_classifies () =
  let world =
    world_of {|var g = 1;
               func main() { g = g + 2; io_putint(g); return 0; }|}
  in
  let program = lift world in
  let main = find_proc program "main" in
  let count pred =
    Array.fold_left (fun c n -> if pred n then c + 1 else c) 0 main.S.body
  in
  Alcotest.(check bool) "has address loads" true
    (count (fun n -> match n.S.insn with S.Gatload _ -> true | _ -> false) > 0);
  Alcotest.(check bool) "has lituse links" true
    (count (fun n -> match n.S.insn with S.Use _ -> true | _ -> false) > 0);
  Alcotest.(check bool) "has gp setup" true
    (count (fun n -> match n.S.insn with S.Gpsetup_hi _ -> true | _ -> false) > 0);
  (* instruction count matches the object code *)
  let u = world.Linker.Resolve.modules.(0) in
  let p = Option.get (Objfile.Cunit.find_symbol u "main") in
  let size =
    match p.Objfile.Symbol.def with
    | Objfile.Symbol.Proc { size; _ } -> size
    | _ -> 0
  in
  Alcotest.(check int) "node count = insn count" (size / 4)
    (Array.length main.S.body)

let test_noopt_behavior_preserved () =
  (* lift + lower with no transformation behaves like the standard link *)
  let src = {|
var xs[50];
static func fill(n) {
  var i = 0;
  while (i < n) { xs[i] = i * i % 97; i = i + 1; }
  return 0;
}
func main() {
  fill(50);
  sort_quads(&xs, 50);
  io_putint(xs[0]); io_putchar(32); io_putint(xs[49]);
  return 0;
}
|} in
  ignore (Testutil.run_all_levels src)

(* --- analysis --- *)

let test_callsite_discovery () =
  let world =
    world_of
      {|func leaf(x) { return x + 1; }
        var fp = 0;
        func main() {
          fp = &leaf;
          io_putint(leaf(1) + fp(2));
          return 0; }|}
  in
  let program = lift world in
  let als = Om.Analysis.run program (S.index program) in
  let in_main =
    List.filter
      (fun (cs : Om.Analysis.callsite) ->
        program.S.procs.(cs.cs_proc).S.sp_name = "main")
      als.Om.Analysis.callsites
  in
  let direct =
    List.exists
      (fun (cs : Om.Analysis.callsite) ->
        match cs.cs_kind with
        | Om.Analysis.Direct { callee; _ } ->
            world.Linker.Resolve.procs.(callee).p_name = "leaf"
        | _ -> false)
      in_main
  in
  let indirect =
    List.exists
      (fun (cs : Om.Analysis.callsite) -> cs.cs_kind = Om.Analysis.Indirect)
      in_main
  in
  Alcotest.(check bool) "finds the direct call" true direct;
  Alcotest.(check bool) "finds the indirect call" true indirect

let test_address_taken () =
  let world =
    world_of
      {|func plain(x) { return x; }
        func pointed(x) { return x + 1; }
        var fp = 0;
        func main() {
          fp = &pointed;
          io_putint(plain(1) + fp(1));
          return 0; }|}
  in
  let program = lift world in
  let als = Om.Analysis.run program (S.index program) in
  let idx name = Option.get (Linker.Resolve.proc_index_by_name world name) in
  Alcotest.(check bool) "pointed is address-taken" true
    als.Om.Analysis.address_taken.(idx "pointed");
  Alcotest.(check bool) "plain is not" false
    als.Om.Analysis.address_taken.(idx "plain")

(* --- transformations --- *)

let test_move_setups () =
  let world =
    world_of {|var g = 1;
               func main() { io_putint(g); return 0; }|}
  in
  let program = lift world in
  let main = find_proc program "main" in
  (* compile-time scheduling usually displaces the pair *)
  Om.Transform.move_setups_to_entry program;
  Alcotest.(check bool) "setup at entry after motion" true
    (Option.is_some (Om.Transform.setup_at_entry main))

(* --- deletion and compaction --- *)

(* main of a small program, every node given one more fresh label so a
   test can follow where each node's labels go *)
let labelled_main () =
  let program =
    lift (world_of {|func main() { io_putint(7); return 0; }|})
  in
  let main = find_proc program "main" in
  Array.iter
    (fun (n : S.node) -> n.S.labels <- n.S.labels @ [ S.fresh_label program ])
    main.S.body;
  (program, main)

let labels_of (body : S.node array) positions =
  List.concat_map (fun i -> body.(i).S.labels) positions

let is_nop (n : S.node) =
  match n.S.insn with S.Raw i -> I.is_nop i | _ -> false

let test_consecutive_deletions () =
  let program, main = labelled_main () in
  let body = main.S.body in
  let n = Array.length body in
  let expected = labels_of body [ 1; 2; 3; 4 ] in
  let d = Om.Transform.deletions (S.index program) in
  List.iter (fun i -> Om.Transform.delete_node d body.(i)) [ 2; 1; 3 ];
  Alcotest.(check int) "deleting moves nothing" n (Array.length main.S.body);
  Om.Transform.compact d;
  Alcotest.(check int) "compaction drops the three" (n - 3)
    (Array.length main.S.body);
  Alcotest.(check bool) "the next live node follows node 0" true
    (main.S.body.(1) == body.(4));
  Alcotest.(check (list int)) "every label handed forward, in order" expected
    body.(4).S.labels

let test_trailing_deletions () =
  (* the final node alone, then a trailing run ending in it, each given
     as distances from the end in deletion order *)
  List.iter
    (fun from_end ->
      let program, main = labelled_main () in
      let body = main.S.body in
      let n = Array.length body in
      let run = List.map (fun k -> n - k) from_end in
      let last = body.(n - 1) in
      let expected = labels_of body (List.sort compare run) in
      let d = Om.Transform.deletions (S.index program) in
      List.iter (fun i -> Om.Transform.delete_node d body.(i)) run;
      Om.Transform.compact d;
      Alcotest.(check int) "the final node stays"
        (n - List.length run + 1)
        (Array.length main.S.body);
      Alcotest.(check bool) "as the last node" true
        (main.S.body.(Array.length main.S.body - 1) == last);
      Alcotest.(check bool) "turned into a no-op" true (is_nop last);
      Alcotest.(check (list int)) "carrying the run's labels" expected
        last.S.labels)
    [ [ 1 ]; [ 1; 3; 2 ] ]

let test_skip_label_on_dead_node () =
  let world =
    world_of
      {|func g(x) { return x + 1; }
        func f(x) { return g(x) * 3; }
        func main() { io_putint(f(4)); return 0; }|}
  in
  let program = lift world in
  let f = find_proc program "f" in
  (* reorder f to its GP setup, its PV load of g, then the rest: f's own
     call site comes first and deletes that load, so main's call to f
     then puts its skip label on a dead node *)
  let body = Array.to_list f.S.body in
  let find what pred =
    match List.find_opt pred body with
    | Some n -> n
    | None -> Alcotest.failf "f has no %s" what
  in
  let hi =
    find "entry GP setup" (fun n ->
        match n.S.insn with
        | S.Gpsetup_hi { anchor = S.Aentry; _ } -> true
        | _ -> false)
  in
  let lo =
    match hi.S.insn with
    | S.Gpsetup_hi { lo_id; _ } ->
        find "GP setup low half" (fun n -> n.S.nid = lo_id)
    | _ -> assert false
  in
  let pv =
    find "PV load" (fun n ->
        match n.S.insn with
        | S.Gatload { key = S.Paddr (Linker.Resolve.Tproc _, 0); _ } -> true
        | _ -> false)
  in
  let rest = List.filter (fun n -> n != hi && n != lo && n != pv) body in
  let next = List.hd rest in
  f.S.body <- Array.of_list (hi :: lo :: pv :: rest);
  let image =
    match Om.optimize_program Om.Full program with
    | Ok o -> o.Om.image
    | Error m -> Alcotest.failf "om-full: %s" m
  in
  Alcotest.(check string) "behaviour kept" "15"
    (Testutil.run_image image).Machine.Cpu.output;
  Alcotest.(check bool) "the PV load is gone" false
    (Array.exists (fun n -> n == pv) f.S.body);
  (* main's call to f lands on the node that followed the dead load *)
  let main = find_proc program "main" in
  let lands_on_next (n : S.node) =
    match n.S.insn with
    | S.Branch { insn = I.Bsr _; target } ->
        target <> f.S.entry_label && List.mem target next.S.labels
    | _ -> false
  in
  Alcotest.(check bool) "skip label on the next live node" true
    (Array.exists lands_on_next main.S.body)

(* OM-simple nullifies a GP reset only when both halves sit within four
   nodes of the call, counted in the body as the index saw it before the
   transform. [k] no-ops padded after main's call to f (the anchor label
   moves to the first, the return point) put the reset's halves k + 1
   and k + 2 nodes past the call. *)
let test_simple_reset_locality () =
  let src = {|func f(x) { return x + 1; }
              func main() { io_putint(f(4)); return 0; }|} in
  let reset_nullified k =
    let program = lift (world_of src) in
    let main = find_proc program "main" in
    let body = main.S.body in
    let call = ref (-1) in
    Array.iteri
      (fun i (n : S.node) ->
        match n.S.insn with
        | S.Use { insn = I.Jump { kind = I.Jsr; _ }; _ } when !call < 0 ->
            call := i
        | _ -> ())
      body;
    let c = !call in
    let hi = body.(c + 1) in
    (match hi.S.insn with
    | S.Gpsetup_hi { anchor = S.Alocal _; _ } -> ()
    | _ -> Alcotest.fail "expected the GP reset right after the call");
    let pads = Array.init k (fun _ -> S.make_node program (S.Raw I.nop)) in
    pads.(0).S.labels <- hi.S.labels;
    hi.S.labels <- [];
    main.S.body <-
      Array.concat
        [ Array.sub body 0 (c + 1); pads;
          Array.sub body (c + 1) (Array.length body - c - 1) ];
    let image =
      match Om.optimize_program Om.Simple program with
      | Ok o -> o.Om.image
      | Error m -> Alcotest.failf "om-simple: %s" m
    in
    Alcotest.(check string) "behaviour kept" "5"
      (Testutil.run_image image).Machine.Cpu.output;
    is_nop hi
  in
  Alcotest.(check bool) "halves 3 and 4 past the call: nullified" true
    (reset_nullified 2);
  Alcotest.(check bool) "halves 4 and 5 past the call: kept" false
    (reset_nullified 3)

let stats_of level world = (om_level level world).Om.stats

let test_simple_nullifies_not_deletes () =
  let world =
    world_of {|var a = 1; var b = 2;
               func main() { io_putint(a + b); return 0; }|}
  in
  let s = stats_of Om.Simple world in
  Alcotest.(check int) "no deletions in OM-simple" 0 s.Om.Stats.insns_deleted;
  Alcotest.(check bool) "some nullifications" true (s.Om.Stats.nops_added > 0);
  Alcotest.(check int) "static size unchanged" s.Om.Stats.insns_before
    s.Om.Stats.insns_after

let test_full_deletes () =
  let world =
    world_of {|var a = 1; var b = 2;
               func main() { io_putint(a + b); return 0; }|}
  in
  let s = stats_of Om.Full world in
  Alcotest.(check int) "no no-ops in OM-full" 0 s.Om.Stats.nops_added;
  Alcotest.(check bool) "deletions happen" true (s.Om.Stats.insns_deleted > 0);
  Alcotest.(check bool) "program shrinks" true
    (s.Om.Stats.insns_after < s.Om.Stats.insns_before)

let test_full_removes_more_pv_loads () =
  let src = {|
func a(x) { return x + 1; }
func b(x) { return a(x) + 2; }
func c(x) { return b(x) + 3; }
func main() { io_putint(c(1) + b(2) + a(3)); return 0; }
|} in
  let world = world_of src in
  let simple = stats_of Om.Simple world in
  let full = stats_of Om.Full world in
  Alcotest.(check bool) "jsr all but gone under both" true
    (simple.Om.Stats.jsr_after <= simple.Om.Stats.jsr_before
    && full.Om.Stats.jsr_after <= 1);
  Alcotest.(check bool) "full keeps fewer pv loads than simple" true
    (full.Om.Stats.calls_pv_after <= simple.Om.Stats.calls_pv_after);
  Alcotest.(check bool) "full deletes gp setups" true
    (full.Om.Stats.gp_setups_deleted > 0)

let test_indirect_calls_keep_bookkeeping () =
  let src = {|
func target(x) { return x * 2; }
var fp = 0;
func main() {
  fp = &target;
  io_putint(fp(21));
  return 0;
}
|} in
  let world = world_of src in
  let full = stats_of Om.Full world in
  (* the call through fp cannot lose its PV load or its GP reset *)
  Alcotest.(check bool) "pv loads remain" true
    (full.Om.Stats.calls_pv_after >= 1);
  Alcotest.(check bool) "resets remain" true
    (full.Om.Stats.calls_reset_after >= 1)

let test_gat_reduction () =
  let src = {|
var a = 1; var b = 2; var c = 3; var d = 4;
func main() {
  io_putint(a + b + c + d + 0x123456789ABCDEF);
  return 0;
}
|} in
  let world = world_of src in
  let full = stats_of Om.Full world in
  Alcotest.(check bool) "GAT shrinks a lot" true
    (full.Om.Stats.gat_bytes_after * 2 < full.Om.Stats.gat_bytes_before);
  (* the 64-bit literal still needs its pool slot *)
  Alcotest.(check bool) "pool is not empty" true
    (full.Om.Stats.gat_bytes_after >= 8)

let test_far_data_lea_wide () =
  (* data too large for the GP window: OM-full must use ldah/lda pairs
     and the program must still work at every level *)
  let src = {|
var big1[9000];
var big2[9000];
func main() {
  big1[8999] = 7;
  big2[8999] = 35;
  io_putint(big1[8999] + big2[8999]);
  return 0;
}
|} in
  let out = Testutil.run_all_levels src in
  Alcotest.(check string) "far-data program output" "42" out

let test_addr_accounting () =
  let world =
    world_of {|var a = 1;
               func main() { io_putint(a); return 0; }|}
  in
  List.iter
    (fun level ->
      let s = stats_of level world in
      Alcotest.(check bool)
        (Om.level_name level ^ ": converted+nullified <= total")
        true
        (s.Om.Stats.addr_converted + s.Om.Stats.addr_nullified
         <= s.Om.Stats.addr_loads);
      Alcotest.(check bool)
        (Om.level_name level ^ ": pv after <= calls")
        true
        (s.Om.Stats.calls_pv_after <= s.Om.Stats.calls))
    [ Om.Simple; Om.Full ]

let test_full_sched_alignment () =
  (* quadword alignment never breaks behavior; loop targets get aligned *)
  let src = {|
var acc = 0;
func main() {
  var i = 0;
  while (i < 100) { acc = acc + i; i = i + 1; }
  io_putint(acc);
  return 0;
}
|} in
  let world = world_of src in
  let { Om.image; _ } = om_level Om.Full_sched world in
  let out = (Testutil.run_image image).Machine.Cpu.output in
  Alcotest.(check string) "aligned program output" "4950" out

(* --- behavior preservation properties --- *)

(* a tiny generator of random minic programs *)
let gen_program =
  let open QCheck.Gen in
  let var i = Printf.sprintf "g%d" i in
  let* nglobals = int_range 1 4 in
  let* stmts =
    list_size (int_range 1 8)
      (let* v = int_range 0 (nglobals - 1) in
       let* w = int_range 0 (nglobals - 1) in
       let* c = int_range 0 200 in
       oneofl
         [ Printf.sprintf "%s = %s + %d;" (var v) (var w) c;
           Printf.sprintf "%s = %s * 3 - %d;" (var v) (var w) c;
           Printf.sprintf "if (%s > %d) { %s = %s - %d; }" (var v) c (var w)
             (var w) c;
           Printf.sprintf
             "{ var i = 0; while (i < %d) { %s = %s + i; i = i + 1; } }"
             (c mod 17) (var v) (var v) ]
       |> map (fun s ->
              (* minic has no bare blocks: rewrite the loop form *)
              if String.length s > 0 && s.[0] = '{' then
                Printf.sprintf
                  "ctr = 0; while (ctr < %d) { %s = %s + ctr; ctr = ctr + 1; }"
                  (c mod 17) (var v) (var v)
              else s))
  in
  let globals =
    String.concat "\n"
      (List.init nglobals (fun i -> Printf.sprintf "var g%d = %d;" i (i + 1)))
  in
  let body = String.concat "\n  " stmts in
  let prints =
    String.concat " "
      (List.init nglobals (fun i ->
           Printf.sprintf "io_putint(g%d); io_putchar(32);" i))
  in
  return
    (Printf.sprintf
       "%s\nfunc main() {\n  var ctr = 0;\n  %s\n  %s\n  return ctr * 0;\n}"
       globals body prints)

let prop_all_levels_agree =
  QCheck.Test.make ~name:"every OM level preserves program behavior" ~count:30
    (QCheck.make ~print:Fun.id gen_program)
    (fun src ->
      match Testutil.run_all_levels src with
      | _ -> true
      | exception Alcotest.Test_error -> false)

(* --- register masks of the symbolic forms --- *)

(* Each form is described by its lowered shape; register 31 is never a
   bit. *)
let test_symbolic_masks () =
  let bits rs = List.fold_left (fun m r -> m lor R.bit r) 0 rs in
  let obj = Linker.Resolve.Tobj 0 in
  let gprel insn part = S.Gprel { insn; target = obj; addend = 0; part } in
  let cases =
    [ ("bsr.far", S.Bsr_far { ra = R.ra; target = 0 }, [ R.ra; R.pv ], []);
      ("bsr.far to zero", S.Bsr_far { ra = R.zero; target = 0 }, [ R.pv ], []);
      ("br.far", S.Br_far { ra = R.zero; target = 0 }, [ R.at ], []);
      ( "bcond.far",
        S.Bcond_far { cond = I.Bne; ra = R.t0; target = 0 },
        [ R.at ],
        [ R.t0 ] );
      ( "gp-relative store",
        gprel (I.Stq { ra = R.t1; rb = R.t2; disp = 0 }) S.Pfull,
        [],
        [ R.gp; R.t1 ] );
      ( "gp-relative store of zero",
        gprel (I.Stq { ra = R.zero; rb = R.t2; disp = 0 }) S.Pfull,
        [],
        [ R.gp ] );
      ( "gp-relative high part",
        gprel (I.Ldq { ra = R.t1; rb = R.t2; disp = 0 }) S.Phi,
        [ R.t1 ],
        [ R.gp ] );
      ( "gp-relative low part keeps its base",
        gprel (I.Stq { ra = R.t1; rb = R.t2; disp = 0 }) (S.Plo 8),
        [],
        [ R.t1; R.t2 ] );
      ("gat load", S.Gatload { ra = R.t3; key = S.Pconst 7L }, [ R.t3 ], [ R.gp ]);
      ("gat load to zero", S.Gatload { ra = R.zero; key = S.Pconst 7L }, [], [ R.gp ]);
      ( "wide gat load",
        S.Gatload_wide { ra = R.t3; key = S.Pconst 7L },
        [ R.t3 ],
        [ R.gp ] );
      ("lea.w", S.Lea_wide { ra = R.t4; target = obj; addend = 0 }, [ R.t4 ], [ R.gp ]);
      ( "gp setup high",
        S.Gpsetup_hi { base = R.pv; anchor = S.Aentry; lo_id = 0 },
        [ R.gp ],
        [ R.pv ] );
      ("gp setup low", S.Gpsetup_lo, [ R.gp ], [ R.gp ]);
      ( "elided",
        S.Elided (S.Branch { insn = I.Br { ra = R.t0; disp = 0 }; target = 0 }),
        [],
        [] );
      ( "raw",
        S.Raw (I.Op { op = I.Addq; ra = R.t0; rb = I.Rb R.zero; rc = R.t2 }),
        [ R.t2 ],
        [ R.t0 ] ) ]
  in
  List.iter
    (fun (name, si, defs, uses) ->
      Alcotest.(check int) (name ^ ": defs") (bits defs) (S.defs_mask si);
      Alcotest.(check int) (name ^ ": uses") (bits uses) (S.uses_mask si);
      Alcotest.(check int) (name ^ ": no register 31") 0
        ((S.defs_mask si lor S.uses_mask si) land (1 lsl 31)))
    cases

let suite =
  ( "om",
    [ Alcotest.test_case "lift classifies instructions" `Quick
        test_lift_classifies;
      Alcotest.test_case "no-opt preserves behavior" `Quick
        test_noopt_behavior_preserved;
      Alcotest.test_case "call-site discovery" `Quick test_callsite_discovery;
      Alcotest.test_case "address-taken analysis" `Quick test_address_taken;
      Alcotest.test_case "setup motion" `Quick test_move_setups;
      Alcotest.test_case "consecutive deletions hand labels forward" `Quick
        test_consecutive_deletions;
      Alcotest.test_case "trailing deletions leave a labelled no-op" `Quick
        test_trailing_deletions;
      Alcotest.test_case "skip label on a dead node lands on the next" `Quick
        test_skip_label_on_dead_node;
      Alcotest.test_case "simple reset locality reads pre-transform positions"
        `Quick test_simple_reset_locality;
      Alcotest.test_case "simple nullifies, never deletes" `Quick
        test_simple_nullifies_not_deletes;
      Alcotest.test_case "full deletes" `Quick test_full_deletes;
      Alcotest.test_case "full beats simple on calls" `Quick
        test_full_removes_more_pv_loads;
      Alcotest.test_case "indirect calls stay conservative" `Quick
        test_indirect_calls_keep_bookkeeping;
      Alcotest.test_case "GAT reduction" `Quick test_gat_reduction;
      Alcotest.test_case "far data via ldah/lda" `Quick test_far_data_lea_wide;
      Alcotest.test_case "stat accounting invariants" `Quick
        test_addr_accounting;
      Alcotest.test_case "alignment variant" `Quick test_full_sched_alignment;
      Testutil.qtest prop_all_levels_agree ] )

(* --- independent image verification --- *)

let test_verify_all_levels () =
  let src = {|
var a = 1; var b = 2; var big[3000];
func helper(x) { a = a + x; return a * b; }
func main() {
  var i = 0;
  while (i < 20) { big[i] = helper(i); i = i + 1; }
  io_putint(big[19]);
  return 0;
}
|} in
  let world = world_of src in
  let std = Result.get_ok (Linker.Link.link_resolved world) in
  (match Om.Verify.check std with
  | Ok () -> ()
  | Error m -> Alcotest.failf "standard image fails verification: %s" m);
  List.iter
    (fun level ->
      let { Om.image; _ } = om_level level world in
      match Om.Verify.check image with
      | Ok () -> ()
      | Error m ->
          Alcotest.failf "%s image fails verification: %s"
            (Om.level_name level) m)
    Om.all_levels

(* An OM link hands on the text its verifier decoded: the image it
   returns, decoded as a fresh decode would, on the quick subset at
   every level in both builds. *)
let test_output_carries_decoded_text () =
  List.iter
    (fun (b : Workloads.Programs.benchmark) ->
      List.iter
        (fun build ->
          let world =
            match Workloads.Suite.compile_cached build b with
            | Ok w -> w
            | Error m -> Alcotest.fail m
          in
          List.iter
            (fun level ->
              let what =
                Printf.sprintf "%s %s %s" b.name
                  (Workloads.Suite.build_name build)
                  (Om.level_name level)
              in
              let out = om_level level world in
              Alcotest.(check bool)
                (what ^ ": decoded.image == image")
                true
                (out.Om.decoded.Linker.Image.image == out.Om.image);
              match Linker.Image.decode_text out.Om.image with
              | Ok fresh ->
                  Alcotest.(check bool)
                    (what ^ ": insns equal a fresh decode")
                    true
                    (fresh.Linker.Image.insns = out.Om.decoded.Linker.Image.insns)
              | Error _ -> Alcotest.failf "%s: the image does not decode" what)
            Om.all_levels)
        Workloads.Suite.all_builds)
    (Testutil.quick_benchmarks ())

let test_verify_catches_corruption () =
  let world = world_of {|func main() { io_putint(isqrt(81)); return 0; }|} in
  let { Om.image; _ } = om_level Om.Full world in
  (* smash a branch displacement to point into another procedure's body *)
  let insns = Testutil.text_insns image.Linker.Image.text in
  let victim = ref None in
  Array.iteri
    (fun k i ->
      if !victim = None then
        match i with
        | Isa.Insn.Bsr { ra; _ } ->
            victim := Some (k, Isa.Insn.Bsr { ra; disp = 3000 })
        | _ -> ())
    insns;
  match !victim with
  | None -> Alcotest.fail "no bsr found to corrupt"
  | Some (k, bad) ->
      let text = Bytes.copy image.Linker.Image.text in
      Bytes.set_int32_le text (4 * k) (Int32.of_int (Isa.Encode.insn bad));
      let corrupted = { image with Linker.Image.text } in
      Alcotest.(check bool) "verifier flags the corruption" true
        (Result.is_error (Om.Verify.check corrupted))

(* the remaining corruption tests share one patched-image helper *)
let patch_insn (image : Linker.Image.t) k insn =
  let text = Bytes.copy image.Linker.Image.text in
  Bytes.set_int32_le text (4 * k) (Int32.of_int (Isa.Encode.insn insn));
  { image with Linker.Image.text }

let str_contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
  go 0

let expect_issue what substr image =
  match Om.Verify.check image with
  | Ok () -> Alcotest.failf "%s: verifier passed the corrupted image" what
  | Error m ->
      if not (str_contains m substr) then
        Alcotest.failf "%s: flagged, but not for the planted reason: %s" what m

let corruption_src = {|
var acc = 0;
func helper(x) {
  var i = 0;
  while (i < 8) { acc = acc + x * i; i = i + 1; }
  return acc;
}
func main() { io_putint(helper(7)); return 0; }
|}

(* retarget a call so it lands inside helper's body, past the entry and
   its GP-setup pair — the "branch into mid-procedure" class *)
let test_verify_catches_branch_into_body () =
  let world = world_of corruption_src in
  let { Om.image; _ } = om_level Om.Full world in
  let insns = Testutil.text_insns image.Linker.Image.text in
  let helper =
    match Linker.Image.find_proc image "helper" with
    | Some q -> q
    | None -> Alcotest.fail "no helper procedure in image"
  in
  (* first non-nop strictly past the legitimate entry points; branching
     just after it cannot be excused as nop-skipping *)
  let target =
    let rec find a =
      if a + 4 >= helper.Linker.Image.entry + helper.Linker.Image.size then
        Alcotest.fail "helper too small to corrupt"
      else if I.is_nop insns.((a - image.Linker.Image.text_base) / 4) then
        find (a + 4)
      else a + 4
    in
    find (helper.Linker.Image.entry + 8)
  in
  let victim = ref None in
  Array.iteri
    (fun k i ->
      let addr = image.Linker.Image.text_base + (4 * k) in
      let in_helper =
        match Linker.Image.proc_containing image addr with
        | Some p -> String.equal p.Linker.Image.name "helper"
        | None -> false
      in
      if !victim = None && not in_helper then
        let disp = (target - addr - 4) / 4 in
        match i with
        | I.Bsr { ra; _ } when disp >= -1048576 && disp < 1048576 ->
            victim := Some (k, I.Bsr { ra; disp })
        | _ -> ())
    insns;
  match !victim with
  | None -> Alcotest.fail "no bsr outside helper to corrupt"
  | Some (k, bad) ->
      expect_issue "branch into body" "branch into the middle of helper"
        (patch_insn image k bad)

(* bend a GP-relative load's displacement until its effective address
   leaves the data region *)
let test_verify_catches_gp_load_outside_data () =
  let world = world_of corruption_src in
  let image = Result.get_ok (Linker.Link.link_resolved world) in
  let insns = Testutil.text_insns image.Linker.Image.text in
  let data_end =
    image.Linker.Image.data_base + Bytes.length image.Linker.Image.data
  in
  let victim = ref None in
  Array.iteri
    (fun k i ->
      let addr = image.Linker.Image.text_base + (4 * k) in
      if !victim = None then
        match (i, Linker.Image.proc_containing image addr) with
        | I.Ldq { ra; rb; _ }, Some p when R.equal rb R.gp ->
            let gp = p.Linker.Image.gp_value in
            let candidates =
              [ data_end - gp + 8; image.Linker.Image.data_base - gp - 16 ]
            in
            List.iter
              (fun disp ->
                if !victim = None && disp >= -32768 && disp <= 32767 then
                  victim := Some (k, I.Ldq { ra; rb; disp }))
              candidates
        | _ -> ())
    insns;
  match !victim with
  | None -> Alcotest.fail "no patchable gp-relative ldq found"
  | Some (k, bad) ->
      expect_issue "gp load" "outside data" (patch_insn image k bad)

(* skew the low half of a prologue's GPDISP pair: the recomputed GP no
   longer matches the procedure descriptor *)
let test_verify_catches_broken_gpdisp () =
  let world = world_of corruption_src in
  let image = Result.get_ok (Linker.Link.link_resolved world) in
  let insns = Testutil.text_insns image.Linker.Image.text in
  let victim = ref None in
  Array.iteri
    (fun k i ->
      if !victim = None then
        match i with
        | I.Ldah { ra; rb; _ } when R.equal ra R.gp && R.equal rb R.pv ->
            let rec find_lo j =
              if j >= Array.length insns || j > k + 8 then ()
              else
                match insns.(j) with
                | I.Lda { ra; rb; disp }
                  when R.equal ra R.gp && R.equal rb R.gp ->
                    let disp = if disp < 32000 then disp + 8 else disp - 8 in
                    victim := Some (j, I.Lda { ra; rb; disp })
                | _ -> find_lo (j + 1)
            in
            find_lo (k + 1)
        | _ -> ())
    insns;
  match !victim with
  | None -> Alcotest.fail "no GPDISP pair found to corrupt"
  | Some (j, bad) ->
      expect_issue "gpdisp" "GP setup computes" (patch_insn image j bad)

(* [bad] draws an issue whose text holds each of [expected], and the
   verifier returns it rather than raising *)
let expect_issue_parts (what, expected, bad) =
  match Om.Verify.image bad with
  | exception e ->
      Alcotest.failf "%s: verifier raised %s" what (Printexc.to_string e)
  | issues ->
      if
        not
          (List.exists
             (fun (i : Om.Verify.issue) ->
               List.for_all (str_contains i.what) expected)
             issues)
      then
        Alcotest.failf "%s: no issue says %s" what
          (String.concat " ... " expected);
      Alcotest.(check bool) (what ^ ": check is an Error") true
        (Result.is_error (Om.Verify.check bad))

(* a descriptor whose entry lies past the text, or whose size runs past
   its end, is an issue naming the procedure, not an exception *)
let test_verify_reports_bad_descriptors () =
  let world = world_of corruption_src in
  let { Om.image; _ } = om_level Om.Full world in
  (match Om.Verify.check image with
  | Ok () -> ()
  | Error m -> Alcotest.failf "clean image: %s" m);
  let text_end =
    image.Linker.Image.text_base + Bytes.length image.Linker.Image.text
  in
  let with_helper f =
    { image with
      Linker.Image.procs =
        Array.map
          (fun (p : Linker.Image.proc_info) ->
            if String.equal p.name "helper" then f p else p)
          image.Linker.Image.procs }
  in
  List.iter expect_issue_parts
    [ ( "entry past the text",
        [ "helper: ["; "outside text" ],
        with_helper (fun p -> { p with entry = text_end + 64 }) );
      ( "size past the text",
        [ "helper: ["; "outside text" ],
        with_helper (fun p -> { p with size = text_end - p.entry + 64 }) );
      ( "a one-word procedure at the end of the text claims a GP setup",
        [ "helper: gp_setup_at_entry but no pair" ],
        with_helper (fun p ->
            { p with entry = text_end - 4; size = 4; gp_setup_at_entry = true })
      ) ]

(* the facts about descriptors and the GAT that only the verifier
   checks on an optimized image: the table is in entry order, extents do
   not overlap, and the GAT lies inside the data segment *)
let test_verify_reports_overlap_and_gat () =
  let world = world_of corruption_src in
  let { Om.image; _ } = om_level Om.Full world in
  let helper =
    match Linker.Image.find_proc image "helper" with
    | Some p -> p
    | None -> Alcotest.fail "no helper procedure"
  in
  let data_end =
    image.Linker.Image.data_base + Bytes.length image.Linker.Image.data
  in
  let twin = { helper with name = "twin"; entry = helper.entry + 4; size = 4 } in
  List.iter expect_issue_parts
    [ ( "two procedures overlap",
        [ "twin overlaps helper" ],
        { image with
          Linker.Image.procs =
            Array.of_list
              (List.concat_map
                 (fun (p : Linker.Image.proc_info) ->
                   if p == helper then [ p; twin ] else [ p ])
                 (Array.to_list image.Linker.Image.procs)) } );
      ( "a procedure out of entry order",
        [ "twin out of entry order after" ],
        { image with
          Linker.Image.procs = Array.append image.Linker.Image.procs [| twin |] }
      );
      ( "GAT runs past the data",
        [ "GAT ["; "outside data" ],
        { image with Linker.Image.gat_base = data_end - 8; gat_bytes = 16 } );
      ( "GAT starts below the data",
        [ "GAT ["; "outside data" ],
        { image with
          Linker.Image.gat_base = image.Linker.Image.data_base - 8;
          gat_bytes = 16 } ) ]

(* li's om-full image with its text cut 2 bytes short: every public entry
   point that decodes it returns an [Error] *)
(* 2,000 single-bit flips of a text word in a random module of the suite
   through the decoder and the lifter, and every tenth through each OM
   level: every call answers [Ok] or [Error], never raises. The flips
   reach both answers of the decoder and the lifter. *)
let test_mutated_text_total () =
  let rng = Fuzz.Rng.create 0x7e47 in
  let worlds =
    List.concat_map
      (fun bench ->
        List.map
          (fun build ->
            match Workloads.Suite.compile_cached build bench with
            | Ok w -> w
            | Error m -> Alcotest.failf "resolve failed: %s" m)
          Workloads.Suite.all_builds)
      Workloads.Programs.all
  in
  let guard what f =
    match f () with
    | r -> Result.is_ok r
    | exception e ->
        Alcotest.failf "%s raised %s on a mutated text" what
          (Printexc.to_string e)
  in
  let reached = Hashtbl.create 4 in
  for i = 1 to 2000 do
    let world = Fuzz.Rng.choose rng worlds in
    let modules = Array.copy world.Linker.Resolve.modules in
    let m = Fuzz.Rng.int rng (Array.length modules) in
    let u = modules.(m) in
    let text = Bytes.copy u.Objfile.Cunit.text in
    let words = Bytes.length text / 4 in
    if words > 0 then begin
      let at = (4 * Fuzz.Rng.int rng words) + Fuzz.Rng.int rng 4 in
      Bytes.set text at
        (Char.chr
           (Char.code (Bytes.get text at) lxor (1 lsl Fuzz.Rng.int rng 8)));
      modules.(m) <- { u with Objfile.Cunit.text };
      let world = { world with Linker.Resolve.modules } in
      let note what ok = Hashtbl.replace reached (what, ok) () in
      note "decode" (guard "decode" (fun () -> Isa.Decode.of_bytes_loc text));
      note "lift" (guard "lift" (fun () -> Om.Lift.run world));
      if i mod 10 = 0 then
        List.iter
          (fun level ->
            ignore
              (guard (Om.level_name level) (fun () ->
                   Om.optimize_resolved level world)))
          Om.all_levels
    end
  done;
  List.iter
    (fun (what, ok) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s saw %s" what (if ok then "Ok" else "Error"))
        true (Hashtbl.mem reached (what, ok)))
    [ ("decode", true); ("decode", false); ("lift", true); ("lift", false) ]

let test_truncated_text_is_an_error () =
  let li =
    match Workloads.Programs.find "li" with
    | Some b -> b
    | None -> Alcotest.fail "no li benchmark"
  in
  let world =
    match Workloads.Suite.compile_cached Workloads.Suite.Compile_each li with
    | Ok w -> w
    | Error m -> Alcotest.fail m
  in
  let { Om.image; _ } = om_level Om.Full world in
  let n = Bytes.length image.Linker.Image.text in
  let image =
    { image with Linker.Image.text = Bytes.sub image.Linker.Image.text 0 (n - 2) }
  in
  let partial_pc = image.Linker.Image.text_base + n - 4 in
  let guard what f =
    match f () with
    | r -> r
    | exception e -> Alcotest.failf "%s raised %s" what (Printexc.to_string e)
  in
  let undecodable what = function
    | Error (Machine.Cpu.Undecodable pc) ->
        Alcotest.(check int) (what ^ " names the partial word") partial_pc pc
    | Error e -> Alcotest.failf "%s: wrong error %a" what Machine.Cpu.pp_error e
    | Ok _ -> Alcotest.failf "%s accepted a truncated text" what
  in
  let is_error what r =
    Alcotest.(check bool) (what ^ " is an Error") true (Result.is_error r)
  in
  is_error "Om.Verify.check" (guard "Om.Verify.check" (fun () -> Om.Verify.check image));
  is_error "Om.Verify.verified"
    (guard "Om.Verify.verified" (fun () -> Om.Verify.verified image));
  undecodable "Machine.Cpu.decode"
    (guard "Machine.Cpu.decode" (fun () -> Machine.Cpu.decode image));
  undecodable "Machine.Cpu.run"
    (guard "Machine.Cpu.run" (fun () -> Machine.Cpu.run image));
  undecodable "Machine.Cpu.run_reference"
    (guard "Machine.Cpu.run_reference" (fun () -> Machine.Cpu.run_reference image));
  is_error "Linker.Image.validate"
    (guard "Linker.Image.validate" (fun () -> Linker.Image.validate image))

let suite =
  let name, cases = suite in
  ( name,
    cases
    @ [ Alcotest.test_case "verifier passes all levels" `Quick
          test_verify_all_levels;
        Alcotest.test_case "OM hands on the text it verified" `Quick
          test_output_carries_decoded_text;
        Alcotest.test_case "verifier catches corruption" `Quick
          test_verify_catches_corruption;
        Alcotest.test_case "verifier catches branch into a body" `Quick
          test_verify_catches_branch_into_body;
        Alcotest.test_case "verifier catches gp load outside data" `Quick
          test_verify_catches_gp_load_outside_data;
        Alcotest.test_case "verifier catches a broken GPDISP pair" `Quick
          test_verify_catches_broken_gpdisp ] )

(* --- ablation variants preserve behavior --- *)

let test_ablation_preserves_behavior () =
  let src = {|
var total = 0;
func accumulate(x) { total = total + x * x; return total; }
func main() {
  var i = 0;
  while (i < 30) { accumulate(i); i = i + 1; }
  io_putint(total);
  return 0;
}
|} in
  let world = world_of src in
  let std = Result.get_ok (Linker.Link.link_resolved world) in
  let base = (Testutil.run_image std).Machine.Cpu.output in
  let d = Om.Transform.default_options in
  List.iter
    (fun (name, opts) ->
      match Om.optimize_resolved ~transform_options:opts Om.Full world with
      | Ok { Om.image; _ } ->
          Alcotest.(check string) (name ^ " preserves behavior") base
            (Testutil.run_image image).Machine.Cpu.output
      | Error m -> Alcotest.failf "%s: %s" name m)
    [ ("-calls", { d with Om.Transform.opt_calls = false });
      ("-addr", { d with Om.Transform.opt_addr = false });
      ("-setup-motion", { d with Om.Transform.opt_setup_motion = false });
      ("-setup-deletion", { d with Om.Transform.opt_setup_deletion = false });
      ("only-calls",
       { Om.Transform.opt_calls = true;
         opt_addr = false;
         opt_setup_motion = true;
         opt_setup_deletion = false });
      ("nothing",
       { Om.Transform.opt_calls = false;
         opt_addr = false;
         opt_setup_motion = false;
         opt_setup_deletion = false }) ]

let suite =
  let name, cases = suite in
  ( name,
    cases
    @ [ Alcotest.test_case "ablation variants preserve behavior" `Quick
          test_ablation_preserves_behavior;
        Alcotest.test_case "symbolic register masks" `Quick test_symbolic_masks;
        Alcotest.test_case "verifier reports descriptors outside the text"
          `Quick test_verify_reports_bad_descriptors;
        Alcotest.test_case "verifier reports overlapping procedures and GAT"
          `Quick test_verify_reports_overlap_and_gat;
        Alcotest.test_case "decode, lift and optimize total on mutated text"
          `Quick test_mutated_text_total;
        Alcotest.test_case "truncated text is an Error at every entry point"
          `Quick test_truncated_text_is_an_error ] )
