(* Shared helpers for the test suites. *)

let compile ?(opt = Minic.Driver.O2) ?(name = "test.o") src =
  Minic.Driver.compile_module ~opt ~prelude:Runtime.prelude ~name src

let link_std ?(extra = []) units =
  match Linker.Link.link (units @ extra) ~archives:[ Runtime.libstd () ] with
  | Ok image -> image
  | Error m -> Alcotest.failf "link failed: %s" m

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

let qtest = QCheck_alcotest.to_alcotest
