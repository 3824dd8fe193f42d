(* Shared helpers for the test suites. *)

let compile ?(opt = Minic.Driver.O2) ?(name = "test.o") src =
  Minic.Driver.compile_module ~opt ~prelude:Runtime.prelude ~name src

let link_std ?(extra = []) units =
  match Linker.Link.link (units @ extra) ~archives:[ Runtime.libstd () ] with
  | Ok image -> image
  | Error m -> Alcotest.failf "link failed: %s" m

(* The five programs [omlink bench quick] measures. *)
let quick_benchmarks () =
  List.filter_map Workloads.Programs.find
    [ "alvinn"; "compress"; "li"; "tomcatv"; "spice" ]

(* A text segment decoded whole, one instruction per word. *)
let text_insns text =
  match Isa.Decode.of_bytes_loc text with
  | Ok insns -> insns
  | Error (off, e) ->
      Alcotest.failf "undecodable text at +%#x: %a" off Isa.Decode.pp_error e

let run_image image =
  match Machine.Cpu.run image with
  | Ok o -> o
  | Error e -> Alcotest.failf "simulation fault: %a" Machine.Cpu.pp_error e

(* Compile one source module, link with libstd, run, return output. *)
let run_src ?opt src =
  let image = link_std [ compile ?opt src ] in
  (run_image image).Machine.Cpu.output

let run_src_exit ?opt src =
  let image = link_std [ compile ?opt src ] in
  (run_image image).Machine.Cpu.exit_code

(* One source module linked with libstd: the standard image, and each
   OM level's image in [Om.all_levels] order. *)
let level_images ?opt src =
  let unit = compile ?opt src in
  let world =
    match Linker.Resolve.run [ unit ] ~archives:[ Runtime.libstd () ] with
    | Ok w -> w
    | Error m -> Alcotest.failf "resolve failed: %s" m
  in
  let std =
    match Linker.Link.link_resolved world with
    | Ok i -> i
    | Error m -> Alcotest.failf "standard link failed: %s" m
  in
  ( std,
    List.map
      (fun level ->
        match Om.optimize_resolved level world with
        | Error m -> Alcotest.failf "%s failed: %s" (Om.level_name level) m
        | Ok { Om.image; _ } -> image)
      Om.all_levels )

(* Run a source at every OM level and assert all outputs equal the
   standard link's; returns the standard link's output. *)
let run_all_levels ?opt src =
  let std, oms = level_images ?opt src in
  let base = (run_image std).Machine.Cpu.output in
  List.iter2
    (fun level image ->
      let out = (run_image image).Machine.Cpu.output in
      Alcotest.(check string)
        (Printf.sprintf "output agrees under %s" (Om.level_name level))
        base out)
    Om.all_levels oms;
  base

let om_link ?(level = Om.Full) units =
  match Om.link ~level units ~archives:[ Runtime.libstd () ] with
  | Ok r -> r
  | Error m -> Alcotest.failf "om link failed: %s" m

(* Bytes allocated by [f ()] on this domain. A major slice that happens
   to run inside the call allocates too, so take the least of a few
   calls: [f]'s own allocation is the same every time. *)
let allocated f =
  let once () =
    let before = Gc.allocated_bytes () in
    ignore (Sys.opaque_identity (f ()));
    Gc.allocated_bytes () -. before
  in
  List.fold_left Float.min infinity (List.init 5 (fun _ -> once ()))

let check_output name expected src =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check string) "program output" expected (run_src src))

(* A report row without its host timings: everything else in a row is
   deterministic, so two measurements of one program agree on it. *)
let untimed (r : Obs.Report.bench) =
  { r with
    runs =
      List.map (fun (run : Obs.Report.run) -> { run with wall_s = None }) r.runs
  }

let report_row =
  Alcotest.testable
    (fun ppf r ->
      Format.pp_print_string ppf
        (Obs.Json.to_string (Obs.Report.to_json (Obs.Report.make [ r ]))))
    ( = )

let qtest = QCheck_alcotest.to_alcotest

(* One random mutation of [s], for the decoder mutation tests: flip one
   bit of a byte, truncate, or insert a byte that often derails a parser
   (a quote, an escape, a bracket, a non-hex letter, a high byte, a
   space). *)
let mutate rng s =
  let n = String.length s in
  let at = Fuzz.Rng.int rng (n + 1) in
  match Fuzz.Rng.int rng 3 with
  | 0 when at < n ->
      let b = Bytes.of_string s in
      Bytes.set b at
        (Char.chr (Char.code s.[at] lxor (1 lsl Fuzz.Rng.int rng 8)));
      Bytes.to_string b
  | 1 -> String.sub s 0 at
  | _ ->
      let c = Fuzz.Rng.choose rng [ "\""; "\\"; "["; "g"; "Z"; "\xff"; " " ] in
      String.sub s 0 at ^ c ^ String.sub s at (n - at)
