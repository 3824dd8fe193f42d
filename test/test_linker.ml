module I = Isa.Insn
module R = Isa.Reg

let compile = Testutil.compile

let resolve ?entry units archives = Linker.Resolve.run ?entry units ~archives

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

let test_duplicate_definition () =
  let a = compile ~name:"a.o" {|func f() { return 1; } func main() { return f(); }|} in
  let b = compile ~name:"b.o" {|func f() { return 2; }|} in
  match resolve [ a; b ] [ Runtime.libstd () ] with
  | Error m ->
      Alcotest.(check bool) "mentions the symbol" true
        (contains ~affix:"f" m)
  | Ok _ -> Alcotest.fail "expected duplicate-definition error"

let test_undefined_symbol () =
  let a =
    compile ~name:"a.o"
      {|extern func ghost(); func main() { return ghost(); }|}
  in
  match resolve [ a ] [ Runtime.libstd () ] with
  | Error m ->
      Alcotest.(check bool) "mentions ghost" true
        (contains ~affix:"ghost" m)
  | Ok _ -> Alcotest.fail "expected undefined-symbol error"

let test_missing_entry () =
  let a = compile ~name:"a.o" {|func not_main() { return 0; }|} in
  match resolve [ a ] [] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected missing-entry error"

let test_local_symbols_do_not_collide () =
  let a =
    compile ~name:"a.o"
      {|static var secret = 1;
        static func peek() { return secret; }
        func geta() { return peek(); }|}
  in
  let b =
    compile ~name:"b.o"
      {|static var secret = 2;
        static func peek() { return secret; }
        func getb() { return peek(); }
        extern func geta();
        func main() {
          io_putint(geta() * 10 + getb());
          return 0; }|}
  in
  let image = Testutil.link_std [ a; b ] in
  Alcotest.(check string) "each module sees its own statics" "12"
    (Testutil.run_image image).Machine.Cpu.output

let test_commons_merge () =
  (* the same common at different sizes: max wins, both modules share it *)
  let a =
    compile ~name:"a.o"
      {|var blk[4];
        func seta() { blk[0] = 11; return 0; }|}
  in
  let b =
    compile ~name:"b.o"
      {|var blk[8];
        extern func seta();
        func main() {
          seta();
          blk[7] = 22;
          io_putint(blk[0] * 100 + blk[7]);
          return 0; }|}
  in
  let world =
    match resolve [ a; b ] [ Runtime.libstd () ] with
    | Ok w -> w
    | Error m -> Alcotest.failf "resolve: %s" m
  in
  let blk =
    Array.to_list world.Linker.Resolve.objs
    |> List.find (fun (o : Linker.Resolve.obj_rec) -> o.o_name = "blk")
  in
  Alcotest.(check int) "max size wins" 64 blk.Linker.Resolve.o_size;
  (match blk.Linker.Resolve.o_placement with
  | Linker.Resolve.Common -> ()
  | _ -> Alcotest.fail "blk should be a common");
  let image = Result.get_ok (Linker.Link.link_resolved world) in
  Alcotest.(check string) "shared storage" "1122"
    (Testutil.run_image image).Machine.Cpu.output

let test_archive_pull_on_demand () =
  (* a program using only io_putint must not pull the sort module *)
  let a = compile ~name:"a.o" {|func main() { io_putint(1); return 0; }|} in
  let world =
    match resolve [ a ] [ Runtime.libstd () ] with
    | Ok w -> w
    | Error m -> Alcotest.failf "resolve: %s" m
  in
  let module_names =
    Array.to_list world.Linker.Resolve.modules
    |> List.map (fun (u : Objfile.Cunit.t) -> u.name)
  in
  Alcotest.(check bool) "sys.o pulled" true (List.mem "sys.o" module_names);
  Alcotest.(check bool) "crt0 pulled" true (List.mem "crt0.o" module_names);
  Alcotest.(check bool) "sort.o not pulled" false
    (List.mem "sort.o" module_names)

let test_gat_merge_dedups () =
  (* two modules referencing the same global share one merged slot *)
  let a =
    compile ~name:"a.o" {|var shared = 0;
                          func fa() { shared = shared + 1; return shared; }|}
  in
  let b =
    compile ~name:"b.o"
      {|extern var shared;
        extern func fa();
        func main() { fa(); io_putint(shared); return 0; }|}
  in
  let world =
    match resolve [ a; b ] [ Runtime.libstd () ] with
    | Ok w -> w
    | Error m -> Alcotest.failf "resolve: %s" m
  in
  let gat = Linker.Gat.merge world in
  Alcotest.(check int) "one group" 1 gat.Linker.Gat.ngroups;
  let keys = Array.to_list gat.Linker.Gat.slots in
  let distinct = List.sort_uniq compare keys in
  Alcotest.(check int) "slots are distinct" (List.length distinct)
    (List.length keys)

let test_gat_grouping_capacity () =
  let a = compile ~name:"a.o" {|var x = 0; var y = 0;
                                func main() { x = y + 1; io_putint(x); return 0; }|} in
  let world =
    match resolve [ a ] [ Runtime.libstd () ] with
    | Ok w -> w
    | Error m -> Alcotest.failf "resolve: %s" m
  in
  (* absurdly small capacity forces one group per module *)
  let gat = Linker.Gat.merge ~capacity:3 world in
  Alcotest.(check bool) "several groups" true (gat.Linker.Gat.ngroups > 1);
  (* procedures of the same module share a group *)
  Array.iteri
    (fun m _ ->
      Alcotest.(check bool) "group id valid" true
        (gat.Linker.Gat.group_of_module.(m) < gat.Linker.Gat.ngroups))
    world.Linker.Resolve.modules;
  (* the multi-group program still links and runs *)
  match Linker.Link.link_resolved ~gat_capacity:3 world with
  | Ok image ->
      Alcotest.(check string) "multi-GAT program runs" "1"
        (Testutil.run_image image).Machine.Cpu.output
  | Error m -> Alcotest.failf "multi-group link failed: %s" m

let test_literal_displacements_in_window () =
  let a = compile ~name:"a.o" {|var g = 3;
                                func main() { io_putint(g); return 0; }|} in
  let image = Testutil.link_std [ a ] in
  (* every ldq rX, d(gp) must point inside the image's GAT *)
  let insns = Testutil.text_insns image.Linker.Image.text in
  Array.iter
    (fun (p : Linker.Image.proc_info) ->
      if p.uses_gp then
        let first = (p.entry - image.Linker.Image.text_base) / 4 in
        for k = first to first + (p.size / 4) - 1 do
          match insns.(k) with
          | I.Ldq { rb; disp; _ } when R.equal rb R.gp ->
              let addr = p.gp_value + disp in
              Alcotest.(check bool) "GAT slot within table" true
                (addr >= image.Linker.Image.gat_base
                && addr < image.Linker.Image.gat_base + image.Linker.Image.gat_bytes)
          | _ -> ()
        done)
    image.Linker.Image.procs

let test_image_metadata () =
  let a = compile ~name:"a.o" {|func main() { return 0; }|} in
  let image = Testutil.link_std [ a ] in
  (match Linker.Image.validate image with
  | Ok () -> ()
  | Error m -> Alcotest.failf "invalid image: %s" m);
  Alcotest.(check bool) "main found" true
    (Option.is_some (Linker.Image.find_proc image "main"));
  Alcotest.(check bool) "entry is __start" true
    (match Linker.Image.proc_containing image image.Linker.Image.entry with
    | Some p -> String.equal p.name "__start"
    | None -> false);
  Alcotest.(check bool) "symbol map has main" true
    (Option.is_some (Linker.Image.symbol_address image "main"))

let test_gp_anchor_patch () =
  (* decode a procedure's GP setup and check it computes its gp_value *)
  let a = compile ~name:"a.o" {|var g = 5;
                                func main() { io_putint(g); return 0; }|} in
  let image = Testutil.link_std [ a ] in
  let p = Option.get (Linker.Image.find_proc image "main") in
  Alcotest.(check bool) "main uses gp" true p.Linker.Image.uses_gp;
  let insns = Testutil.text_insns image.Linker.Image.text in
  let first = (p.entry - image.Linker.Image.text_base) / 4 in
  (* find the ldah gp,(pv) and lda gp,(gp) pair in the prologue *)
  let hi = ref None and lo = ref None in
  for k = first to first + (p.size / 4) - 1 do
    match insns.(k) with
    | I.Ldah { ra; rb; disp } when R.equal ra R.gp && R.equal rb R.pv ->
        if !hi = None then hi := Some disp
    | I.Lda { ra; rb; disp } when R.equal ra R.gp && R.equal rb R.gp ->
        if !lo = None then lo := Some disp
    | _ -> ()
  done;
  match (!hi, !lo) with
  | Some hi, Some lo ->
      Alcotest.(check int) "gp = entry + hi<<16 + lo" p.gp_value
        (p.entry + (hi * 65536) + lo)
  | _ -> Alcotest.fail "no GP setup pair found in main"

let test_gpdisp_out_of_range_is_link_error () =
  (* a corrupt GPDISP anchor pushes the GP displacement past the 32-bit
     ldah/lda split: the linker must answer with a structured error, not
     an exception out of split32 *)
  let a = compile ~name:"a.o" {|func main() { return 0; }|} in
  let corrupt =
    { a with
      Objfile.Cunit.relocs =
        Objfile.Reloc.v ~section:Objfile.Section.Text ~offset:0
          (Objfile.Reloc.Gpdisp { anchor = -0x7000_0000; pair = 4 })
        :: a.Objfile.Cunit.relocs }
  in
  match Linker.Link.link [ corrupt ] ~archives:[ Runtime.libstd () ] with
  | Ok _ -> Alcotest.fail "expected a GPDISP range error"
  | Error m ->
      Alcotest.(check bool)
        (Printf.sprintf "error names GPDISP (got %S)" m)
        true
        (contains ~affix:"GPDISP" m)

(* The standard image and each OM level's, in [Om.all_levels] order. *)
let all_level_images world =
  ( "std",
    match Linker.Link.link_resolved world with
    | Ok image -> image
    | Error m -> Alcotest.failf "standard link failed: %s" m )
  :: List.map
       (fun level ->
         match Om.optimize_resolved level world with
         | Ok { Om.image; _ } -> (Om.level_name level, image)
         | Error m -> Alcotest.failf "%s failed: %s" (Om.level_name level) m)
       Om.all_levels

let images_with_libstd units =
  match resolve units [ Runtime.libstd () ] with
  | Ok world -> all_level_images world
  | Error m -> Alcotest.failf "resolve failed: %s" m

(* Procedures are laid out in text order whatever order an object lists
   its symbols in: a module with its symbol list reversed links to the
   same image bytes, standard and at every OM level. *)
let test_symbol_order_irrelevant () =
  let u =
    compile ~name:"a.o"
      {|func inc(x) { return x + 1; }
        func twice(x) { return inc(x) * 2; }
        func main() { io_putint(twice(20)); return 0; }|}
  in
  let reversed =
    { u with Objfile.Cunit.symbols = List.rev u.Objfile.Cunit.symbols }
  in
  List.iter2
    (fun (what, a) (_, b) ->
      Alcotest.(check string)
        (what ^ ": same image") (Linker.Image.encode a)
        (Linker.Image.encode b))
    (images_with_libstd [ u ])
    (images_with_libstd [ reversed ])

(* [Image.proc_containing]'s binary search agrees with a linear scan at
   every text word of every quick-subset image (standard and each OM
   level, both builds), and finds no procedure before the text, past it
   or in an alignment gap between procedures. *)
let test_proc_containing_matches_scan () =
  let gaps = ref 0 in
  List.iter
    (fun (b : Workloads.Programs.benchmark) ->
      List.iter
        (fun build ->
          let world =
            match Workloads.Suite.compile_cached build b with
            | Ok w -> w
            | Error m -> Alcotest.failf "%s: %s" b.Workloads.Programs.name m
          in
          List.iter
            (fun (level, (image : Linker.Image.t)) ->
              let scan addr =
                Array.find_opt
                  (fun (p : Linker.Image.proc_info) ->
                    addr >= p.entry && addr < p.entry + p.size)
                  image.procs
              in
              let text_end = image.text_base + Bytes.length image.text in
              let check addr =
                let same =
                  match (Linker.Image.proc_containing image addr, scan addr) with
                  | Some p, Some q -> p == q
                  | None, None -> true
                  | _ -> false
                in
                if not same then
                  Alcotest.failf "%s/%s %s: lookup of %#x disagrees with a scan"
                    b.name
                    (Workloads.Suite.build_name build)
                    level addr
              in
              let rec words addr =
                if addr < text_end then begin
                  check addr;
                  if scan addr = None then incr gaps;
                  words (addr + 4)
                end
              in
              words image.text_base;
              List.iter
                (fun addr ->
                  check addr;
                  if Linker.Image.proc_containing image addr <> None then
                    Alcotest.failf "%s %s: %#x outside the text has a procedure"
                      b.name level addr)
                [ 0; image.text_base - 4; text_end; text_end + 4; max_int ])
            (all_level_images world))
        Workloads.Suite.all_builds)
    (Testutil.quick_benchmarks ());
  Alcotest.(check bool) "some text words lie in no procedure" true (!gaps > 0)

(* A broken table or entry point: [Image.validate], and so the standard
   link, rejects the image naming the fault, [Om.Verify] reports it, and
   neither raises. Two descriptors swapped break the order every lookup
   relies on, on the standard image and at every OM level; li's standard
   image with its last descriptor's size negative (a stored image can
   carry one) or its entry point 4 bytes into [__start] is broken too. *)
let test_out_of_order_table () =
  let rejected what ~validate ~verify (image : Linker.Image.t) =
    (match Linker.Image.validate image with
    | Error m ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: validate says %S (got %S)" what validate m)
          true (contains ~affix:validate m)
    | Ok () -> Alcotest.failf "%s: validate accepted it" what);
    Alcotest.(check bool)
      (Printf.sprintf "%s: verify says %S" what verify)
      true
      (List.exists
         (fun (i : Om.Verify.issue) -> contains ~affix:verify i.what)
         (Om.Verify.image image))
  in
  List.iter
    (fun (what, (image : Linker.Image.t)) ->
      let procs = Array.copy image.procs in
      let first = procs.(0) in
      procs.(0) <- procs.(1);
      procs.(1) <- first;
      rejected what ~validate:"out of entry order"
        ~verify:"out of entry order after" { image with Linker.Image.procs })
    (images_with_libstd
       [ compile ~name:"a.o"
           {|func inc(x) { return x + 1; }
             func main() { io_putint(inc(41)); return 0; }|} ]);
  let li =
    match
      Result.bind
        (Workloads.Suite.compile_cached Workloads.Suite.Compile_each
           (Option.get (Workloads.Programs.find "li")))
        Linker.Link.link_resolved
    with
    | Ok image -> image
    | Error m -> Alcotest.failf "li: %s" m
  in
  let procs = Array.copy li.procs in
  let last = Array.length procs - 1 in
  procs.(last) <- { (procs.(last)) with size = -4 };
  rejected "li, last size -4" ~validate:"outside text" ~verify:"outside text"
    { li with Linker.Image.procs };
  rejected "li, entry inside __start" ~validate:"is not a procedure entry"
    ~verify:"is not a procedure entry"
    { li with Linker.Image.entry = li.entry + 4 }

let suite =
  ( "linker",
    [ Alcotest.test_case "duplicate definition" `Quick test_duplicate_definition;
      Alcotest.test_case "undefined symbol" `Quick test_undefined_symbol;
      Alcotest.test_case "missing entry" `Quick test_missing_entry;
      Alcotest.test_case "local symbols isolated" `Quick
        test_local_symbols_do_not_collide;
      Alcotest.test_case "commons merge" `Quick test_commons_merge;
      Alcotest.test_case "archive pull on demand" `Quick
        test_archive_pull_on_demand;
      Alcotest.test_case "GAT dedup" `Quick test_gat_merge_dedups;
      Alcotest.test_case "GAT grouping" `Quick test_gat_grouping_capacity;
      Alcotest.test_case "literal displacements" `Quick
        test_literal_displacements_in_window;
      Alcotest.test_case "image metadata" `Quick test_image_metadata;
      Alcotest.test_case "GPDISP patching" `Quick test_gp_anchor_patch;
      Alcotest.test_case "GPDISP out of range is a link error" `Quick
        test_gpdisp_out_of_range_is_link_error;
      Alcotest.test_case "symbol order does not matter" `Quick
        test_symbol_order_irrelevant;
      Alcotest.test_case "one PC-to-procedure lookup" `Quick
        test_proc_containing_matches_scan;
      Alcotest.test_case "out-of-order table rejected" `Quick
        test_out_of_order_table ] )
