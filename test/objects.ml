(* The golden object dump: one line per object module the compiler emits
   for a fixed set of inputs, carrying the MD5 of the module in its
   object-file format. The inputs are every module of the benchmark
   matrix (19 programs x 2 builds), libstd's compiled members at -O2 and
   at -O0, and the first 100 fuzz programs of seed 42 in both builds, so
   the compiler's bytes are pinned on varied code and not only through
   linked images. [dune runtest] diffs this output against
   [objects.expected]; an intended change to the emitted code is one
   [dune promote]. *)

let md5_of_unit u = Digest.to_hex (Digest.bytes (Objfile.Obj_io.write u))

let print_units prefix compile =
  match compile () with
  | units ->
      List.iter
        (fun (u : Objfile.Cunit.t) ->
          Printf.printf "%s %s %s\n" prefix u.Objfile.Cunit.name
            (md5_of_unit u))
        units
  | exception Minic.Driver.Error m -> Printf.printf "%s error: %s\n" prefix m

let each sources =
  List.map
    (fun (name, src) ->
      Minic.Driver.compile_module ~opt:Minic.Driver.O2
        ~prelude:Runtime.prelude ~name src)
    sources

let merged ~name sources =
  [ Minic.Driver.compile_merged ~opt:Minic.Driver.O2 ~prelude:Runtime.prelude
      ~name sources ]

let () =
  List.iter
    (fun (b : Workloads.Programs.benchmark) ->
      List.iter
        (fun build ->
          print_units
            (b.name ^ " " ^ Workloads.Suite.build_name build)
            (fun () -> Workloads.Suite.compile build b))
        Workloads.Suite.all_builds)
    Workloads.Programs.all;
  List.iter
    (fun (opt, level) ->
      print_units ("libstd " ^ level) (fun () ->
          List.map
            (fun (name, src) ->
              Minic.Driver.compile_module ~opt ~prelude:Runtime.prelude ~name
                src)
            Runtime.module_sources))
    [ (Minic.Driver.O2, "O2"); (Minic.Driver.O0, "O0") ];
  for i = 0 to 99 do
    let sources =
      Fuzz.Prog.render (Fuzz.Gen.program (Fuzz.case_seed ~seed:42 ~index:i))
    in
    let prefix = Printf.sprintf "fuzz %d" i in
    print_units (prefix ^ " compile-each") (fun () -> each sources);
    print_units (prefix ^ " compile-all") (fun () ->
        merged ~name:"fuzz_all.o" sources)
  done
