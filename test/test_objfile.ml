module I = Isa.Insn
module R = Isa.Reg
module O = Objfile

(* A small hand-built unit exercising every record kind. *)
let sample_unit () =
  let m = Minic.Masm.create "sample.o" in
  let entry = Minic.Masm.fresh_label m in
  let lo = Minic.Masm.fresh_id m in
  let gl = Minic.Masm.fresh_id m in
  Minic.Masm.add_proc m ~name:"f"
    [ Minic.Masm.Label entry;
      Minic.Masm.Gpsetup_hi { base = R.pv; anchor = entry; lo };
      Minic.Masm.Gpsetup_lo { id = lo };
      Minic.Masm.Gatload { id = gl; ra = R.t0; entry = O.Gat_entry.addr "g" };
      Minic.Masm.Lituse
        { insn = I.Ldq { ra = R.v0; rb = R.t0; disp = 0 }; load = gl; jsr = false };
      Minic.Masm.Insn (I.Jump { kind = I.Ret; ra = R.zero; rb = R.ra; hint = 1 }) ];
  Minic.Masm.add_global m ~name:"g" ~section:`Sdata ~size_bytes:8
    ~init:[| 7L |] ();
  Minic.Masm.add_global m ~name:"ptr" ~section:`Data ~size_bytes:8
    ~refquads:[ (0, "f", 0) ] ();
  Minic.Masm.add_common m ~name:"blk" ~size_bytes:48;
  Minic.Masm.assemble m

let test_validate_ok () =
  match O.Cunit.validate (sample_unit ()) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "expected valid unit: %s" m

let test_symbols () =
  let u = sample_unit () in
  Alcotest.(check bool) "finds f" true (Option.is_some (O.Cunit.find_symbol u "f"));
  Alcotest.(check bool) "f is a proc" true
    (O.Symbol.is_proc (Option.get (O.Cunit.find_symbol u "f")));
  Alcotest.(check (list string)) "defined" [ "f"; "g"; "ptr"; "blk" ]
    (O.Cunit.defined_symbols u);
  Alcotest.(check (list string)) "undefined" [] (O.Cunit.undefined_symbols u)

let test_undefined_detection () =
  let m = Minic.Masm.create "u.o" in
  let gl = Minic.Masm.fresh_id m in
  Minic.Masm.add_proc m ~name:"f"
    [ Minic.Masm.Gatload { id = gl; ra = R.t0; entry = O.Gat_entry.addr "missing" };
      Minic.Masm.Insn (I.Jump { kind = I.Ret; ra = R.zero; rb = R.ra; hint = 1 }) ];
  let u = Minic.Masm.assemble m in
  Alcotest.(check (list string)) "missing is undefined" [ "missing" ]
    (O.Cunit.undefined_symbols u)

let test_insn_roundtrip () =
  let u = sample_unit () in
  Alcotest.(check int) "insn count" 5 (O.Cunit.insn_count u);
  Alcotest.(check int) "decoded length" 5
    (Array.length (Testutil.text_insns u.O.Cunit.text))

let test_validate_rejects () =
  let u = sample_unit () in
  let bad_literal =
    { u with
      O.Cunit.relocs =
        O.Reloc.v ~section:O.Section.Text ~offset:20
          (O.Reloc.Literal { gat_index = 99 })
        :: u.O.Cunit.relocs }
  in
  Alcotest.(check bool) "bad GAT index rejected" true
    (Result.is_error (O.Cunit.validate bad_literal));
  let bad_offset =
    { u with
      O.Cunit.relocs =
        [ O.Reloc.v ~section:O.Section.Text ~offset:4096
            (O.Reloc.Literal { gat_index = 0 }) ] }
  in
  Alcotest.(check bool) "out-of-range reloc rejected" true
    (Result.is_error (O.Cunit.validate bad_offset));
  let bad_refquad =
    { u with
      O.Cunit.relocs =
        [ O.Reloc.v ~section:O.Section.Data ~offset:4
            (O.Reloc.Refquad { symbol = "f"; addend = 0 }) ] }
  in
  Alcotest.(check bool) "misaligned refquad rejected" true
    (Result.is_error (O.Cunit.validate bad_refquad))

(* The sample's ldq v0 at offset 12 carries a LITUSE back to the address
   load at 8. A back-link must name a text offset carrying a LITERAL:
   dropping that LITERAL, or pointing the link at the GP setup's ldah, is
   rejected. *)
let test_validate_lituse_backlink () =
  let u = sample_unit () in
  let rejects what relocs =
    match O.Cunit.validate { u with O.Cunit.relocs } with
    | Ok () -> Alcotest.failf "%s: expected a rejection" what
    | Error m ->
        Alcotest.(check bool)
          (what ^ " names the back-link: " ^ m)
          true
          (Testutil.contains ~affix:"back-link has no LITERAL" m)
  in
  rejects "LITERAL dropped"
    (List.filter
       (fun (r : O.Reloc.t) ->
         match r.kind with O.Reloc.Literal _ -> false | _ -> true)
       u.O.Cunit.relocs);
  rejects "link at the ldah"
    (List.map
       (fun (r : O.Reloc.t) ->
         match r.kind with
         | O.Reloc.Lituse_base _ ->
             { r with kind = O.Reloc.Lituse_base { load_offset = 0 } }
         | _ -> r)
       u.O.Cunit.relocs)

let test_io_roundtrip () =
  let u = sample_unit () in
  match O.Obj_io.read (O.Obj_io.write u) with
  | Ok u' ->
      Alcotest.(check string) "name" u.O.Cunit.name u'.O.Cunit.name;
      Alcotest.(check bool) "text" true (Bytes.equal u.O.Cunit.text u'.O.Cunit.text);
      Alcotest.(check bool) "data" true (Bytes.equal u.O.Cunit.data u'.O.Cunit.data);
      Alcotest.(check int) "gat" (Array.length u.O.Cunit.gat)
        (Array.length u'.O.Cunit.gat);
      Alcotest.(check bool) "symbols" true (u.O.Cunit.symbols = u'.O.Cunit.symbols);
      Alcotest.(check bool) "relocs" true (u.O.Cunit.relocs = u'.O.Cunit.relocs)
  | Error m -> Alcotest.failf "roundtrip failed: %s" m

let test_io_rejects_garbage () =
  Alcotest.(check bool) "empty input" true
    (Result.is_error (O.Obj_io.read Bytes.empty));
  Alcotest.(check bool) "bad magic" true
    (Result.is_error (O.Obj_io.read (Bytes.of_string "XXXXGARBAGE")));
  let good = O.Obj_io.write (sample_unit ()) in
  let truncated = Bytes.sub good 0 (Bytes.length good - 3) in
  Alcotest.(check bool) "truncated input" true
    (Result.is_error (O.Obj_io.read truncated));
  let extended = Bytes.cat good (Bytes.of_string "xx") in
  Alcotest.(check bool) "trailing garbage" true
    (Result.is_error (O.Obj_io.read extended))

let prop_io_random_corruption =
  QCheck.Test.make ~name:"corrupted object files never crash the reader"
    ~count:300
    QCheck.(pair small_nat small_nat)
    (fun (pos_seed, byte) ->
      let good = O.Obj_io.write (sample_unit ()) in
      let pos = pos_seed mod Bytes.length good in
      Bytes.set good pos (Char.chr (byte land 0xff));
      match O.Obj_io.read good with Ok _ | Error _ -> true)

(* A 42-byte object claiming 0x0FFFFFFF GAT entries, of which it holds
   one: the count is bounded by the bytes left, so the reader fails
   before anything is sized by it. *)
let test_io_count_bounded_by_input () =
  let open O.Obj_io.Wire in
  let b = Buffer.create 42 in
  Buffer.add_string b "WOF1";
  wstr b "x";
  List.iter (wbytes b) [ Bytes.empty; Bytes.empty; Bytes.empty ];
  w32 b 0;
  w32 b 0;
  w32 b 0x0FFFFFFF;
  w8 b 1;
  w64 b 0L;
  let input = Buffer.to_bytes b in
  Alcotest.(check int) "input size" 42 (Bytes.length input);
  Alcotest.(check bool) "rejected" true (Result.is_error (O.Obj_io.read input));
  let words = Testutil.allocated (fun () -> O.Obj_io.read input) /. 8. in
  if words >= 1e6 then
    Alcotest.failf "reading 42 bytes allocated %.0f words" words

(* 2,000 mutations each of the suite's objects through [read] and of
   libstd through [read_archive]: every answer is [Ok] or [Error], and
   the mutations reach both *)
let test_readers_total_under_mutation () =
  let rng = Fuzz.Rng.create 0x0b1 in
  let objects =
    List.concat_map
      (fun bench ->
        List.concat_map
          (fun build ->
            match Workloads.Suite.compile_cached build bench with
            | Ok world ->
                Array.to_list
                  (Array.map
                     (fun u -> Bytes.to_string (O.Obj_io.write u))
                     world.Linker.Resolve.modules)
            | Error m -> Alcotest.failf "resolve failed: %s" m)
          Workloads.Suite.all_builds)
      Workloads.Programs.all
  in
  let libstd = Bytes.to_string (O.Obj_io.write_archive (Runtime.libstd ())) in
  let reached = Hashtbl.create 4 in
  let run what decode pick =
    for _ = 1 to 2000 do
      let input = Testutil.mutate rng (pick ()) in
      match decode (Bytes.of_string input) with
      | r -> Hashtbl.replace reached (what, Result.is_ok r) ()
      | exception e ->
          Alcotest.failf "%s raised %s on a mutated input" what
            (Printexc.to_string e)
    done
  in
  run "read" O.Obj_io.read (fun () -> Fuzz.Rng.choose rng objects);
  run "read_archive" O.Obj_io.read_archive (fun () -> libstd);
  List.iter
    (fun (what, ok) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s saw %s" what (if ok then "Ok" else "Error"))
        true (Hashtbl.mem reached (what, ok)))
    [ ("read", true); ("read", false); ("read_archive", true);
      ("read_archive", false) ]

let test_archive_select () =
  let mk name ~defines ~refs =
    let m = Minic.Masm.create name in
    let items =
      List.map
        (fun r ->
          let gl = Minic.Masm.fresh_id m in
          Minic.Masm.Gatload { id = gl; ra = R.t0; entry = O.Gat_entry.addr r })
        refs
      @ [ Minic.Masm.Insn (I.Jump { kind = I.Ret; ra = R.zero; rb = R.ra; hint = 1 }) ]
    in
    Minic.Masm.add_proc m ~name:defines items;
    Minic.Masm.assemble m
  in
  let a = mk "a.o" ~defines:"fa" ~refs:[ "fb" ] in
  let b = mk "b.o" ~defines:"fb" ~refs:[] in
  let c = mk "c.o" ~defines:"fc" ~refs:[] in
  let archive = O.Archive.make ~name:"lib.a" [ a; b; c ] in
  let picked = O.Archive.select archive ~undefined:[ "fa" ] in
  Alcotest.(check (list string)) "pulls a and b transitively" [ "a.o"; "b.o" ]
    (List.map (fun (u : O.Cunit.t) -> u.name) picked);
  let none = O.Archive.select archive ~undefined:[ "zzz" ] in
  Alcotest.(check int) "nothing resolves zzz" 0 (List.length none)

let test_archive_io () =
  let archive =
    O.Archive.make ~name:"lib.a" [ sample_unit (); sample_unit () ]
  in
  match O.Obj_io.read_archive (O.Obj_io.write_archive archive) with
  | Ok a ->
      Alcotest.(check string) "name" "lib.a" a.O.Archive.name;
      Alcotest.(check int) "members" 2 (List.length a.O.Archive.members)
  | Error m -> Alcotest.failf "archive roundtrip failed: %s" m

let test_masm_rejects () =
  Alcotest.check_raises "dangling label"
    (Invalid_argument "undefined label 0") (fun () ->
      let m = Minic.Masm.create "bad.o" in
      let l = Minic.Masm.fresh_label m in
      Minic.Masm.add_proc m ~name:"f"
        [ Minic.Masm.Branch { insn = I.Br { ra = R.zero; disp = 0 }; target = l } ];
      ignore (Minic.Masm.assemble m));
  Alcotest.check_raises "initializer in bss"
    (Invalid_argument "Masm.add_global: initializer in a zero section")
    (fun () ->
      let m = Minic.Masm.create "bad.o" in
      Minic.Masm.add_global m ~name:"x" ~section:`Bss ~size_bytes:8
        ~init:[| 1L |] ())

let suite =
  ( "objfile",
    [ Alcotest.test_case "sample unit validates" `Quick test_validate_ok;
      Alcotest.test_case "symbol queries" `Quick test_symbols;
      Alcotest.test_case "undefined detection" `Quick test_undefined_detection;
      Alcotest.test_case "text decodes" `Quick test_insn_roundtrip;
      Alcotest.test_case "validation rejects bad relocs" `Quick
        test_validate_rejects;
      Alcotest.test_case "validation rejects an unbacked LITUSE" `Quick
        test_validate_lituse_backlink;
      Alcotest.test_case "binary io roundtrip" `Quick test_io_roundtrip;
      Alcotest.test_case "reader rejects garbage" `Quick test_io_rejects_garbage;
      Alcotest.test_case "reader bounds counts by the input" `Quick
        test_io_count_bounded_by_input;
      Alcotest.test_case "readers total under mutation" `Quick
        test_readers_total_under_mutation;
      Alcotest.test_case "archive selection" `Quick test_archive_select;
      Alcotest.test_case "archive io" `Quick test_archive_io;
      Alcotest.test_case "masm rejects bad input" `Quick test_masm_rejects;
      Testutil.qtest prop_io_random_corruption ] )
