(* The om-gc level: link-time dead-code elimination and data-section GC.
   Covers the liveness fixpoint (unreachable-procedure deletion, dead
   data sections with renumbering of the survivors), the PV escape
   refinement (an address held only by dead data no longer pins its
   procedure), size monotonicity against om-full, and the verifier's
   GAT-slot checks on deliberately corrupted images. *)

module I = Isa.Insn
module R = Isa.Reg

let world_of_units units =
  match Linker.Resolve.run units ~archives:[ Runtime.libstd () ] with
  | Ok w -> w
  | Error m -> Alcotest.failf "resolve: %s" m

let world_of src = world_of_units [ Testutil.compile src ]

let std_image world =
  match Linker.Link.link_resolved world with
  | Ok i -> i
  | Error m -> Alcotest.failf "standard link: %s" m

let om_level level world =
  match Om.optimize_resolved level world with
  | Ok r -> r
  | Error m -> Alcotest.failf "%s: %s" (Om.level_name level) m

let output_of image = (Testutil.run_image image).Machine.Cpu.output

let check_same_output what a b =
  Alcotest.(check string) what (output_of a) (output_of b)

let sizes (image : Linker.Image.t) =
  ( Bytes.length image.Linker.Image.text,
    Bytes.length image.Linker.Image.data,
    image.Linker.Image.gat_bytes )

let expect_issue what substr image =
  match Om.Verify.check image with
  | Ok () -> Alcotest.failf "%s: verifier passed the corrupted image" what
  | Error m ->
      if not (Testutil.contains ~affix:substr m) then
        Alcotest.failf "%s: flagged, but not for the planted reason: %s" what m

(* --- unreachable-procedure deletion --- *)

let dead_src = {|
func dead_helper(x) {
  var i = 0;
  var s = 0;
  while (i < x) { s = s + i * i; i = i + 1; }
  return s;
}
func main() { io_putint(42); return 0; }
|}

let test_dead_proc_deleted () =
  let world = world_of dead_src in
  let std = std_image world in
  let full = om_level Om.Full world in
  let gc = om_level Om.Gc world in
  Alcotest.(check bool) "dead_helper survives om-full" true
    (Option.is_some (Linker.Image.find_proc full.Om.image "dead_helper"));
  Alcotest.(check bool) "dead_helper deleted under om-gc" true
    (Option.is_none (Linker.Image.find_proc gc.Om.image "dead_helper"));
  Alcotest.(check bool) "deletion counted" true
    (gc.Om.stats.Om.Stats.procs_deleted >= 1
    && gc.Om.stats.Om.Stats.gc_insns_deleted > 0);
  Alcotest.(check bool) "om-full deletes no procedures" true
    (full.Om.stats.Om.Stats.procs_deleted = 0);
  check_same_output "behavior preserved" std gc.Om.image;
  let gt, _, _ = sizes gc.Om.image and ft, _, _ = sizes full.Om.image in
  Alcotest.(check bool) "om-gc text strictly smaller than om-full" true (gt < ft)

let test_gc_deterministic () =
  let build () = (om_level Om.Gc (world_of dead_src)).Om.image in
  let a = build () and b = build () in
  Alcotest.(check string) "same text"
    (Bytes.to_string a.Linker.Image.text)
    (Bytes.to_string b.Linker.Image.text);
  Alcotest.(check string) "same data"
    (Bytes.to_string a.Linker.Image.data)
    (Bytes.to_string b.Linker.Image.data);
  Alcotest.(check int) "same GAT extent" a.Linker.Image.gat_bytes
    b.Linker.Image.gat_bytes

(* --- PV escape analysis --- *)

(* the address escapes through live code: the procedure must be kept and
   indirect calls through the pointer keep working *)
let test_pv_escape_kept () =
  let world =
    world_of
      {|var fp = 0;
        func pointed(x) { return x * 3; }
        func main() { fp = &pointed; io_putint(fp(14)); return 0; }|}
  in
  let std = std_image world in
  let gc = om_level Om.Gc world in
  Alcotest.(check bool) "pointed survives om-gc" true
    (Option.is_some (Linker.Image.find_proc gc.Om.image "pointed"));
  check_same_output "indirect call still works" std gc.Om.image

(* the address is held only by an initialized quadword in a data section
   nothing references: om-full must treat the procedure as escaping, while
   om-gc drops the section, refines address-taken, and frees the
   procedure's entry-point obligations (its GP setup becomes deletable) *)
let escape_unit () =
  let m = Minic.Masm.create "escape.o" in
  let entry = Minic.Masm.fresh_label m in
  let lo = Minic.Masm.fresh_id m in
  let gl = Minic.Masm.fresh_id m in
  Minic.Masm.add_proc m ~name:"helper"
    [ Minic.Masm.Label entry;
      Minic.Masm.Gpsetup_hi { base = R.pv; anchor = entry; lo };
      Minic.Masm.Gpsetup_lo { id = lo };
      Minic.Masm.Gatload
        { id = gl; ra = R.t0; entry = Objfile.Gat_entry.addr "hval" };
      Minic.Masm.Lituse
        { insn = I.Ldq { ra = R.v0; rb = R.t0; disp = 0 };
          load = gl;
          jsr = false };
      Minic.Masm.Insn (I.Jump { kind = I.Ret; ra = R.zero; rb = R.ra; hint = 1 })
    ];
  Minic.Masm.add_global m ~name:"hval" ~section:`Sdata ~size_bytes:8
    ~init:[| 7L |] ();
  Minic.Masm.add_global m ~name:"escape_ptr" ~section:`Data ~size_bytes:8
    ~refquads:[ (0, "helper", 0) ] ();
  Minic.Masm.assemble m

let test_pv_escape_devirtualized () =
  let main_u =
    Testutil.compile ~name:"emain.o"
      {|extern func helper(x);
        func main() { io_putint(helper(0)); return 0; }|}
  in
  let world = world_of_units [ main_u; escape_unit () ] in
  let std = std_image world in
  let full = om_level Om.Full world in
  let gc = om_level Om.Gc world in
  check_same_output "om-full behavior" std full.Om.image;
  check_same_output "om-gc behavior" std gc.Om.image;
  (* the escaping quadword's section is dead: gone from the gc image *)
  Alcotest.(check bool) "escape_ptr present under om-full" true
    (Option.is_some (Linker.Image.symbol_address full.Om.image "escape_ptr"));
  Alcotest.(check bool) "escape_ptr dropped under om-gc" true
    (Option.is_none (Linker.Image.symbol_address gc.Om.image "escape_ptr"));
  Alcotest.(check bool) "dead data bytes counted" true
    (gc.Om.stats.Om.Stats.data_bytes_deleted >= 8);
  (* with the escape gone, helper's prologue GP setup is deletable too:
     om-gc deletes strictly more setups than om-full on this program *)
  Alcotest.(check bool) "address-taken refinement frees the GP setup" true
    (gc.Om.stats.Om.Stats.gp_setups_deleted
    > full.Om.stats.Om.Stats.gp_setups_deleted)

(* --- data-section GC and renumbering --- *)

let renumber_world () =
  let main_u =
    Testutil.compile ~name:"rmain.o"
      {|extern func get();
        func main() { io_putint(get()); return 0; }|}
  in
  (* the dead module sits between the live ones so its deletion shifts
     every later section: the survivors must renumber and relocate *)
  let dead_u =
    Testutil.compile ~name:"rdead.o"
      {|var deadarr[600];
        func deadfill(n) { deadarr[0] = n; return deadarr[0]; }|}
  in
  let live_u =
    Testutil.compile ~name:"rlive.o"
      {|var shared = 33;
        func get() { return shared; }|}
  in
  world_of_units [ main_u; dead_u; live_u ]

let test_data_section_gc () =
  let world = renumber_world () in
  let std = std_image world in
  let full = om_level Om.Full world in
  let gc = om_level Om.Gc world in
  check_same_output "relocated survivors behave" std gc.Om.image;
  Alcotest.(check bool) "deadarr dropped" true
    (Option.is_none (Linker.Image.symbol_address gc.Om.image "deadarr"));
  Alcotest.(check bool) "shared kept" true
    (Option.is_some (Linker.Image.symbol_address gc.Om.image "shared"));
  Alcotest.(check bool) "deadfill deleted" true
    (Option.is_none (Linker.Image.find_proc gc.Om.image "deadfill"));
  Alcotest.(check bool) "at least the dead array's bytes reclaimed" true
    (gc.Om.stats.Om.Stats.data_bytes_deleted >= 600 * 8);
  let _, gd, _ = sizes gc.Om.image and _, fd, _ = sizes full.Om.image in
  Alcotest.(check bool) "om-gc data segment smaller" true (gd + (600 * 8) <= fd)

(* --- size monotonicity: om-gc never exceeds om-full --- *)

let test_sizes_monotone () =
  List.iter
    (fun world ->
      let full = om_level Om.Full world in
      let gc = om_level Om.Gc world in
      let gt, gd, gg = sizes gc.Om.image and ft, fd, fg = sizes full.Om.image in
      Alcotest.(check bool)
        (Printf.sprintf "gc (%d,%d,%d) <= full (%d,%d,%d)" gt gd gg ft fd fg)
        true
        (gt <= ft && gd <= fd && gg <= fg))
    [ world_of dead_src; renumber_world ();
      world_of
        {|var fp = 0;
          func pointed(x) { return x * 3; }
          func main() { fp = &pointed; io_putint(fp(14)); return 0; }|} ]

(* --- corrupted images: the verifier's GAT-slot checks --- *)

let gat_slot_src = {|
var g = 5;
func helper(x) { g = g + x; return g; }
func main() { io_putint(helper(7)); return 0; }
|}

(* find a GAT address-slot load whose loaded value feeds an indirect jump
   ([jump = true]: a call through the slot) or a memory access
   ([jump = false]: a global accessed through the slot); returns the
   slot's absolute address. Mirrors the verifier's forward scan. *)
let find_slot (image : Linker.Image.t) ~jump =
  let insns = Testutil.text_insns image.Linker.Image.text in
  let n = Array.length insns in
  let found = ref None in
  Array.iteri
    (fun k i ->
      if !found = None then
        match i with
        | I.Ldq { ra; rb; disp } when R.equal rb R.gp && not (R.equal ra R.gp)
          -> (
            let addr = image.Linker.Image.text_base + (4 * k) in
            match Linker.Image.proc_containing image addr with
            | None -> ()
            | Some p ->
                let ea = p.Linker.Image.gp_value + disp in
                if
                  ea >= image.Linker.Image.gat_base
                  && ea + 8
                     <= image.Linker.Image.gat_base
                        + image.Linker.Image.gat_bytes
                then
                  let rec scan j =
                    if j < n then
                      match insns.(j) with
                      | I.Jump { rb; _ } when R.equal rb ra ->
                          if jump then found := Some ea
                      | (I.Ldq { rb; _ } | I.Stq { rb; _ }) when R.equal rb ra
                        ->
                          if not jump then found := Some ea
                      | u ->
                          if I.is_branch u || List.exists (R.equal ra) (I.defs u)
                          then ()
                          else scan (j + 1)
                  in
                  scan (k + 1))
        | _ -> ())
    insns;
  match !found with
  | Some ea -> ea
  | None -> Alcotest.fail "no suitable GAT-slot load in the image"

let patch_slot (image : Linker.Image.t) ea v =
  let data = Bytes.copy image.Linker.Image.data in
  Bytes.set_int64_le data
    (ea - image.Linker.Image.data_base)
    (Int64.of_int v);
  { image with Linker.Image.data }

let corrupt_setup () =
  let image = std_image (world_of gat_slot_src) in
  (match Om.Verify.check image with
  | Ok () -> ()
  | Error m -> Alcotest.failf "clean standard image rejected: %s" m);
  image

(* a call slot retargeted into a procedure body — the signature a buggy
   GC leaves when the slot's procedure was deleted and the space reused *)
let test_verify_stale_call_slot () =
  let image = corrupt_setup () in
  let helper =
    match Linker.Image.find_proc image "helper" with
    | Some p -> p
    | None -> Alcotest.fail "no helper procedure"
  in
  let slot = find_slot image ~jump:true in
  let mid = helper.Linker.Image.entry + helper.Linker.Image.size - 4 in
  expect_issue "call into a deleted procedure" "not a procedure entry"
    (patch_slot image slot mid)

(* an address slot pointing past the shrunken data segment — a slot that
   still names a datum the GC reclaimed *)
let test_verify_stale_data_slot () =
  let image = corrupt_setup () in
  let slot = find_slot image ~jump:false in
  let beyond =
    image.Linker.Image.data_base + Bytes.length image.Linker.Image.data + 4096
  in
  expect_issue "GAT slot referencing GC'd data" "via GAT slot"
    (patch_slot image slot beyond)

(* a zeroed slot — the dangling-relocation shape *)
let test_verify_dangling_slot () =
  let image = corrupt_setup () in
  let slot = find_slot image ~jump:true in
  expect_issue "dangling relocation" "not a procedure entry"
    (patch_slot image slot 0)

(* --- target taxonomy: every frontend derives from Om.targets --- *)

let test_level_roundtrip () =
  Alcotest.(check int) "five levels" 5 (List.length Om.all_levels);
  Alcotest.(check (list string)) "the standard link, then every level"
    (Obs.Report.standard_level :: List.map Om.level_name Om.all_levels)
    (List.map Om.target_name Om.targets);
  let parses what s t =
    Alcotest.(check bool) what true (Om.target_of_string s = Ok t)
  in
  List.iter
    (fun t ->
      parses (Om.target_name t ^ " round-trips") (Om.target_name t) t)
    Om.targets;
  parses "alias std" "std" Om.Standard;
  parses "alias standard" "standard" Om.Standard;
  parses "short alias gc" "gc" (Om.Level Om.Gc);
  parses "short alias sched" "sched" (Om.Level Om.Full_sched);
  Alcotest.(check bool) "unknown rejected" true
    (Om.target_of_string "om-mega" = Error "unknown level \"om-mega\"")

let test_all_levels_agree () =
  ignore
    (Testutil.run_all_levels
       {|
var fp = 0;
var unused_tab[64];
func dead(x) { unused_tab[x & 63] = x; return unused_tab[0]; }
func alive(x) { return x * 3; }
func main() { fp = &alive; io_putint(fp(14)); return 0; }
|})

let suite =
  ( "gc",
    [ Alcotest.test_case "unreachable procedure deleted" `Quick
        test_dead_proc_deleted;
      Alcotest.test_case "om-gc deterministic" `Quick test_gc_deterministic;
      Alcotest.test_case "pv escape via live code kept" `Quick
        test_pv_escape_kept;
      Alcotest.test_case "pv escape via dead data devirtualized" `Quick
        test_pv_escape_devirtualized;
      Alcotest.test_case "data-section GC renumbers survivors" `Quick
        test_data_section_gc;
      Alcotest.test_case "om-gc never larger than om-full" `Quick
        test_sizes_monotone;
      Alcotest.test_case "verify: stale call slot" `Quick
        test_verify_stale_call_slot;
      Alcotest.test_case "verify: stale data slot" `Quick
        test_verify_stale_data_slot;
      Alcotest.test_case "verify: dangling slot" `Quick
        test_verify_dangling_slot;
      Alcotest.test_case "level taxonomy round-trips" `Quick
        test_level_roundtrip;
      Alcotest.test_case "all levels agree on mixed program" `Quick
        test_all_levels_agree ] )
