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

(* [affix] occurs somewhere in [s]. *)
let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

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

let run_decoded d =
  match Machine.Cpu.run_decoded d with
  | Ok o -> o
  | Error e -> Alcotest.failf "simulation fault: %a" Machine.Cpu.pp_error e

(* A resolved program's image at [target], through the one producer:
   decoded as its verifier left it. *)
let link_at target world =
  match Om.link_at target world with
  | Ok (decoded, _) -> decoded
  | Error m -> Alcotest.failf "%s link failed: %s" (Om.target_name target) m

(* Every image of a resolved program, one per [Om.targets] entry, the
   standard link's first, each named by [Om.target_name]. *)
let target_images world =
  List.map (fun t -> (Om.target_name t, link_at t world)) Om.targets

(* One source module linked with libstd, as [target_images]. *)
let level_images ?opt src =
  let unit = compile ?opt src in
  match Linker.Resolve.run [ unit ] ~archives:[ Runtime.libstd () ] with
  | Ok world -> target_images world
  | Error m -> Alcotest.failf "resolve failed: %s" m

(* Run a source at every target and assert all outputs equal the
   standard link's; returns the standard link's output. *)
let run_all_levels ?opt src =
  let outputs =
    List.map
      (fun (name, d) -> (name, (run_decoded d).Machine.Cpu.output))
      (level_images ?opt src)
  in
  let base = snd (List.hd outputs) in
  List.iter
    (fun (name, out) ->
      Alcotest.(check string) ("output agrees under " ^ name) base out)
    outputs;
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

(* Every series of a metrics snapshot ([Obs.Metrics.to_json]) keyed by
   (name, labels): a counter's or gauge's value, a histogram's count. *)
let series snapshot =
  List.concat_map
    (fun (section, value) ->
      Option.value ~default:[]
        (Option.bind (Obs.Json.member section snapshot) Obs.Json.get_list)
      |> List.map (fun j ->
             let labels =
               match Obs.Json.member "labels" j with
               | Some (Obs.Json.Obj l) ->
                   List.map
                     (fun (k, v) ->
                       (k, Option.value ~default:"" (Obs.Json.get_string v)))
                     l
               | _ -> []
             in
             let name =
               Option.value ~default:""
                 (Option.bind (Obs.Json.member "name" j) Obs.Json.get_string)
             in
             let v =
               match Obs.Json.member value j with
               | Some (Obs.Json.Int n) -> float_of_int n
               | Some (Obs.Json.Float f) -> f
               | _ -> nan
             in
             ((name, labels), v)))
    [ ("counters", "value"); ("gauges", "value"); ("histograms", "count") ]
