(* The observability layer: JSON round-trips, span tracing, cycle
   attribution, and the versioned suite-report schema. *)

let json = Alcotest.testable (Fmt.of_to_string Obs.Json.to_string) ( = )

(* --- Json --- *)

let test_json_roundtrip () =
  let doc =
    Obs.Json.Obj
      [ ("null", Obs.Json.Null);
        ("yes", Obs.Json.Bool true);
        ("n", Obs.Json.Int (-42));
        ("f", Obs.Json.Float 3.25);
        ("big", Obs.Json.Float 1.5e300);
        ("s", Obs.Json.String "a \"quoted\"\nline\twith \\ and \x01 ctrl");
        ("empty_list", Obs.Json.List []);
        ("empty_obj", Obs.Json.Obj []);
        ( "nested",
          Obs.Json.List
            [ Obs.Json.Int 1;
              Obs.Json.Obj [ ("k", Obs.Json.List [ Obs.Json.Bool false ]) ] ]
        ) ]
  in
  List.iter
    (fun minify ->
      match Obs.Json.parse (Obs.Json.to_string ~minify doc) with
      | Ok parsed -> Alcotest.check json "round-trips" doc parsed
      | Error m -> Alcotest.failf "parse failed: %s" m)
    [ true; false ]

let test_json_parse () =
  let ok s v =
    match Obs.Json.parse s with
    | Ok p -> Alcotest.check json s v p
    | Error m -> Alcotest.failf "%s: %s" s m
  in
  ok "[1, 2.5, -3]"
    (Obs.Json.List [ Obs.Json.Int 1; Obs.Json.Float 2.5; Obs.Json.Int (-3) ]);
  ok {|"Aé☃"|} (Obs.Json.String "A\xc3\xa9\xe2\x98\x83");
  ok {|"😀"|} (Obs.Json.String "\xf0\x9f\x98\x80");
  ok "1e3" (Obs.Json.Float 1000.);
  List.iter
    (fun s ->
      match Obs.Json.parse s with
      | Ok _ -> Alcotest.failf "expected parse error for %s" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "\"unterminated"; "1 2"; "nul";
      String.make 1_000_000 '[' ];
  (* nesting is bounded, so a deep document fails fast at the bound *)
  let nested d = String.make d '[' ^ String.make d ']' in
  (match Obs.Json.parse (nested 512) with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "512 levels: %s" m);
  List.iter
    (fun (s, at) ->
      Alcotest.(check (result json string))
        "the error names the bound"
        (Error (Printf.sprintf "json: at offset %d: nesting deeper than 512" at))
        (Obs.Json.parse s))
    [ (nested 513, 512);
      (String.make 1_000_000 '[', 512);
      (String.concat "" (List.init 1000 (fun _ -> {|{"k":|})), 512 * 5) ]

(* --- Trace --- *)

let test_trace_disabled () =
  Alcotest.(check bool) "no ambient collector" false (Obs.Trace.active ());
  Alcotest.(check int) "span is transparent" 7
    (Obs.Trace.span "x" (fun () -> 7))

let test_trace_spans () =
  let c, v =
    Obs.Trace.with_collector (fun () ->
        Obs.Trace.span "outer" (fun () ->
            Obs.Trace.span
              ~counters:(fun () -> [ ("k", 3); ("zero", 0) ])
              "inner"
              (fun () -> 1 + 1)))
  in
  Alcotest.(check int) "value" 2 v;
  Alcotest.(check bool) "collector uninstalled after" false
    (Obs.Trace.active ());
  let spans = Obs.Trace.spans c in
  Alcotest.(check (list string)) "names in start order" [ "outer"; "inner" ]
    (List.map (fun (s : Obs.Trace.span) -> s.Obs.Trace.name) spans);
  Alcotest.(check (list int)) "depths" [ 0; 1 ]
    (List.map (fun (s : Obs.Trace.span) -> s.Obs.Trace.depth) spans);
  let inner = List.nth spans 1 in
  Alcotest.(check (list (pair string int))) "counters" [ ("k", 3); ("zero", 0) ]
    inner.Obs.Trace.counters

let test_trace_chrome_json () =
  (* trace a real OM link, export, and re-parse the trace-event JSON *)
  let unit =
    Testutil.compile
      {|
func main() { io_put_labeled("x", 41 + 1); return 0; }
|}
  in
  let c, _ = Obs.Trace.with_collector (fun () -> Testutil.om_link [ unit ]) in
  Alcotest.(check bool) "recorded pipeline spans" true
    (List.length (Obs.Trace.spans c) >= 5);
  let text = Obs.Json.to_string (Obs.Trace.to_chrome_json c) in
  match Obs.Json.parse text with
  | Error m -> Alcotest.failf "chrome trace does not re-parse: %s" m
  | Ok (Obs.Json.List events) ->
      Alcotest.(check bool) "has events" true (List.length events >= 5);
      List.iter
        (fun ev ->
          let str name =
            Option.bind (Obs.Json.member name ev) Obs.Json.get_string
          in
          let num name =
            Option.bind (Obs.Json.member name ev) Obs.Json.get_float
          in
          Alcotest.(check (option string)) "ph" (Some "X") (str "ph");
          Alcotest.(check bool) "has name" true (str "name" <> None);
          Alcotest.(check bool) "ts >= 0" true
            (match num "ts" with Some t -> t >= 0. | None -> false);
          Alcotest.(check bool) "dur >= 0" true
            (match num "dur" with Some d -> d >= 0. | None -> false))
        events;
      let names =
        List.filter_map
          (fun ev -> Option.bind (Obs.Json.member "name" ev) Obs.Json.get_string)
          events
      in
      Alcotest.(check (list string)) "every span exported, in order"
        (List.map (fun (s : Obs.Trace.span) -> s.Obs.Trace.name)
           (Obs.Trace.spans c))
        names
  | Ok _ -> Alcotest.fail "chrome trace is not a JSON array"

(* The level table as the trace shows it: which pass spans each level
   has and lacks. Both frontends must run the same pipeline, so from the
   [om:<level>] span on, a one-shot [Om.link] and the link service's
   [Engine.link] record the same spans at the same depths. *)
let level_spans_src = {|
func main() { io_put_labeled("x", 41 + 1); return 0; }
|}

let pipeline_spans c =
  let rec from_om = function
    | [] -> []
    | (s : Obs.Trace.span) :: rest ->
        if String.starts_with ~prefix:"om:" s.Obs.Trace.name then s :: rest
        else from_om rest
  in
  List.map
    (fun (s : Obs.Trace.span) -> (s.Obs.Trace.name, s.Obs.Trace.depth))
    (from_om (Obs.Trace.spans c))

let test_level_spans level () =
  let one_shot, _ =
    Obs.Trace.with_collector (fun () ->
        Testutil.om_link ~level
          [ Testutil.compile ~name:"main.o" level_spans_src ])
  in
  let engine =
    Server.Engine.create ~store:(Store.in_memory ())
      ~metrics:(Obs.Metrics.create ()) ()
  in
  let service, linked =
    Obs.Trace.with_collector (fun () ->
        Server.Engine.link engine ~level:(Om.level_name level)
          [ Server.Engine.Source { name = "main.o"; text = level_spans_src } ])
  in
  (match linked with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "engine link failed: %s" m);
  let spans = pipeline_spans one_shot in
  let names = List.map fst spans in
  let expect present name =
    Alcotest.(check bool)
      (Printf.sprintf "%s span %s" name (if present then "present" else "absent"))
      present (List.mem name names)
  in
  let full = List.mem level [ Om.Full; Om.Full_sched; Om.Gc ] in
  List.iter (expect true)
    [ "om:" ^ Om.level_name level; "lift"; "instantiate"; "gat-merge";
      "datalayout"; "lower"; "verify" ];
  expect (level = Om.Gc) "gc";
  expect (level = Om.Full_sched || level = Om.Gc) "sched";
  expect full "relax";
  expect (level = Om.Simple) "transform:simple";
  expect full "transform:full";
  Alcotest.(check bool) "a transform span unless om-noopt"
    (level <> Om.No_opt)
    (List.exists (String.starts_with ~prefix:"transform:") names);
  Alcotest.(check (list (pair string int)))
    "Engine.link runs the Om.link pipeline" spans (pipeline_spans service)

(* --- Attr --- *)

(* Two procedures with very different dynamic weight: [work] burns the
   cycles walking a global table; [main] only calls it a few times. *)
let two_proc_src =
  {|
var table[512];
var acc = 0;

func work(rounds) {
  var i = 0;
  while (i < rounds) {
    var j = 0;
    while (j < 512) { table[j] = table[j] + i; j = j + 1; }
    acc = acc + table[i & 511];
    i = i + 1;
  }
  return acc;
}

func main() {
  io_put_labeled("acc", work(20));
  return 0;
}
|}

let two_proc_world () =
  match
    Linker.Resolve.run
      [ Testutil.compile two_proc_src ]
      ~archives:[ Runtime.libstd () ]
  with
  | Ok w -> w
  | Error m -> Alcotest.failf "resolve failed: %s" m

let profile image =
  match Obs.Attr.run image with
  | Ok p -> p
  | Error e -> Alcotest.failf "profile fault: %a" Machine.Cpu.pp_error e

let test_attr_two_procs () =
  let world = two_proc_world () in
  let std =
    match Linker.Link.link_resolved world with
    | Ok i -> i
    | Error m -> Alcotest.failf "std link: %s" m
  in
  let p = profile std in
  (* counts land on the right proc_info *)
  let work =
    match Obs.Attr.proc p "work" with
    | Some w -> w
    | None -> Alcotest.fail "no profile for work"
  in
  let main =
    match Obs.Attr.proc p "main" with
    | Some m -> m
    | None -> Alcotest.fail "no profile for main"
  in
  Alcotest.(check bool) "work dominates main" true
    (work.Obs.Attr.p_cycles > 10 * main.Obs.Attr.p_cycles);
  Alcotest.(check bool) "every pc mapped to a procedure" true
    (Obs.Attr.proc p "?" = None);
  (* per-procedure tallies are a partition of the run *)
  let sum f = List.fold_left (fun acc q -> acc + f q) 0 p.Obs.Attr.procs in
  Alcotest.(check int) "insns partition"
    p.Obs.Attr.cpu.Machine.Cpu.insns
    (sum (fun q -> q.Obs.Attr.p_insns));
  Alcotest.(check int) "insns total"
    p.Obs.Attr.cpu.Machine.Cpu.insns p.Obs.Attr.totals.Obs.Attr.p_insns;
  Alcotest.(check int) "cycles partition"
    p.Obs.Attr.cpu.Machine.Cpu.cycles
    (sum (fun q -> q.Obs.Attr.p_cycles));
  Alcotest.(check int) "cycles total"
    p.Obs.Attr.cpu.Machine.Cpu.cycles p.Obs.Attr.totals.Obs.Attr.p_cycles;
  Alcotest.(check int) "icache misses total"
    p.Obs.Attr.cpu.Machine.Cpu.icache_misses p.Obs.Attr.totals.Obs.Attr.p_imiss;
  Alcotest.(check int) "dcache misses total"
    p.Obs.Attr.cpu.Machine.Cpu.dcache_misses p.Obs.Attr.totals.Obs.Attr.p_dmiss;
  (* category buckets partition each procedure *)
  List.iter
    (fun q ->
      let cat_insns =
        List.fold_left
          (fun acc c -> acc + (Obs.Attr.bucket q c).Obs.Attr.b_insns)
          0 Obs.Attr.all_categories
      in
      Alcotest.(check int)
        (q.Obs.Attr.pname ^ " buckets partition its insns")
        q.Obs.Attr.p_insns cat_insns)
    p.Obs.Attr.procs;
  (* the standard link of a global-heavy loop pays real GAT overhead *)
  Alcotest.(check bool) "std has address loads" true
    ((Obs.Attr.bucket work Obs.Attr.Addr_load).Obs.Attr.b_insns > 0);
  Alcotest.(check bool) "std has gp setups" true
    ((Obs.Attr.bucket p.Obs.Attr.totals Obs.Attr.Gp_setup).Obs.Attr.b_insns > 0)

let test_attr_full_shrinks_overhead () =
  let world = two_proc_world () in
  let std =
    match Linker.Link.link_resolved world with
    | Ok i -> i
    | Error m -> Alcotest.failf "std link: %s" m
  in
  let full =
    match Om.optimize_resolved Om.Full world with
    | Ok { Om.image; _ } -> image
    | Error m -> Alcotest.failf "om-full: %s" m
  in
  let p0 = profile std in
  let p1 = profile full in
  Alcotest.(check string) "outputs agree" p0.Obs.Attr.output p1.Obs.Attr.output;
  let overhead p =
    List.fold_left
      (fun acc c -> acc + (Obs.Attr.bucket p.Obs.Attr.totals c).Obs.Attr.b_cycles)
      0
      [ Obs.Attr.Addr_load; Obs.Attr.Gp_setup; Obs.Attr.Pv_load ]
  in
  Alcotest.(check bool) "om-full shrinks address-calculation cycles" true
    (overhead p1 < overhead p0)

(* --- the attribution oracle ---

   The reference interpreter's probe events, each classified on its own
   with [Attr.classify], must add up to exactly what [Attr.run]
   attributes from the fused path's per-instruction profile: per
   procedure and per category, in instructions, cycles and misses. *)

(* One row per procedure (or TOTAL) and per category or "all"; rows
   with no instructions are left out. *)
let row ((who, what), (insns, cycles, imiss, dmiss)) =
  Printf.sprintf "%s/%s insns=%d cycles=%d imiss=%d dmiss=%d" who what insns
    cycles imiss dmiss

let attribution_rows (p : Obs.Attr.t) =
  List.concat_map
    (fun (q : Obs.Attr.proc_profile) ->
      row
        ( (q.Obs.Attr.pname, "all"),
          (q.Obs.Attr.p_insns, q.Obs.Attr.p_cycles, q.Obs.Attr.p_imiss,
           q.Obs.Attr.p_dmiss) )
      :: List.filter_map
           (fun c ->
             let b = Obs.Attr.bucket q c in
             if b.Obs.Attr.b_insns = 0 then None
             else
               Some
                 (row
                    ( (q.Obs.Attr.pname, Obs.Attr.category_name c),
                      (b.Obs.Attr.b_insns, b.Obs.Attr.b_cycles, 0, 0) )))
           Obs.Attr.all_categories)
    (p.Obs.Attr.totals :: p.Obs.Attr.procs)
  |> List.sort compare

let reference_attribution_rows (image : Linker.Image.t) =
  let map = Obs.Attr.pcmap image in
  let rows = Hashtbl.create 16 in
  let add key (i, c, im, dm) =
    let i0, c0, im0, dm0 =
      Option.value (Hashtbl.find_opt rows key) ~default:(0, 0, 0, 0)
    in
    Hashtbl.replace rows key (i0 + i, c0 + c, im0 + im, dm0 + dm)
  in
  let probe (ev : Machine.Cpu.probe_event) =
    let info = Obs.Attr.find_proc map ev.Machine.Cpu.ev_pc in
    let name =
      match info with Some p -> p.Linker.Image.name | None -> "?"
    in
    let cat =
      Obs.Attr.classify ~gat_base:image.Linker.Image.gat_base
        ~gat_bytes:image.Linker.Image.gat_bytes
        ~gp_value:(Option.map (fun (p : Linker.Image.proc_info) -> p.gp_value) info)
        ev.Machine.Cpu.ev_insn
    in
    let c = ev.Machine.Cpu.ev_cycles in
    let im = Bool.to_int ev.Machine.Cpu.ev_icache_miss in
    let dm = Bool.to_int ev.Machine.Cpu.ev_dcache_miss in
    List.iter
      (fun who ->
        add (who, "all") (1, c, im, dm);
        add (who, Obs.Attr.category_name cat) (1, c, 0, 0))
      [ name; "TOTAL" ]
  in
  (match Machine.Cpu.run_reference ~probe image with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "reference fault: %a" Machine.Cpu.pp_error e);
  Hashtbl.fold (fun k v acc -> row (k, v) :: acc) rows [] |> List.sort compare

let test_attr_matches_reference () =
  let world = two_proc_world () in
  let images =
    [ ("std", Result.get_ok (Linker.Link.link_resolved world));
      ( "om-full",
        match Om.optimize_resolved Om.Full world with
        | Ok { Om.image; _ } -> image
        | Error m -> Alcotest.failf "om-full: %s" m ) ]
  in
  List.iter
    (fun (level, image) ->
      Alcotest.(check (list string))
        (level ^ ": Attr.run = classified reference probe events")
        (reference_attribution_rows image)
        (attribution_rows (profile image)))
    images

(* --- probe consistency (the machine-level contract the oracle relies on) --- *)

let test_probe_sums () =
  let image = Testutil.link_std [ Testutil.compile two_proc_src ] in
  let cycles = ref 0 in
  let insns = ref 0 in
  let imiss = ref 0 in
  let dmiss = ref 0 in
  let o =
    match
      Machine.Cpu.run_reference
        ~probe:(fun ev ->
          incr insns;
          cycles := !cycles + ev.Machine.Cpu.ev_cycles;
          if ev.Machine.Cpu.ev_icache_miss then incr imiss;
          if ev.Machine.Cpu.ev_dcache_miss then incr dmiss)
        image
    with
    | Ok o -> o
    | Error e -> Alcotest.failf "fault: %a" Machine.Cpu.pp_error e
  in
  Alcotest.(check int) "probe insns" o.Machine.Cpu.stats.Machine.Cpu.insns !insns;
  Alcotest.(check int) "probe cycles sum to stats.cycles"
    o.Machine.Cpu.stats.Machine.Cpu.cycles !cycles;
  Alcotest.(check int) "probe icache misses"
    o.Machine.Cpu.stats.Machine.Cpu.icache_misses !imiss;
  Alcotest.(check int) "probe dcache misses"
    o.Machine.Cpu.stats.Machine.Cpu.dcache_misses !dmiss

(* --- Report --- *)

let sample_report () =
  Obs.Report.make ~tool:"test"
    [ { Obs.Report.bench = "two_proc";
        build = "compile-each";
        std_cycles = 123456;
        std_insns = 789;
        std_attribution =
          Some
            [ ("addr_load", { Obs.Report.insns = 10; cycles = 31 });
              ("other", { Obs.Report.insns = 700; cycles = 900 }) ];
        std_fault = None;
        outputs_agree = true;
        runs =
          [ { Obs.Report.level = "om-full";
              cycles = 100000;
              insns = 700;
              improvement_pct = 19.0;
              counters = [ ("addr_loads", 14); ("gp_setups_deleted", 6) ];
              attribution = None;
              fault = None;
              host = Some { Obs.Report.wall_s = 0.25; mips = 12.5 };
              size =
                Some
                  { Obs.Report.text_bytes = 2800;
                    data_bytes = 512;
                    gat_bytes = 64 } };
            { Obs.Report.level = "om-full+sched";
              cycles = 0;
              insns = 0;
              improvement_pct = 0.;
              counters = [];
              attribution = None;
              fault = Some "heap exhausted";
              host = None;
              size = None } ];
        std_host = Some { Obs.Report.wall_s = 0.5; mips = 10.0 };
        relink = Some { Obs.Report.cold_s = 0.2; warm_s = 0.05 };
        std_size =
          Some
            { Obs.Report.text_bytes = 3156; data_bytes = 640; gat_bytes = 320 }
      } ]

let test_report_roundtrip () =
  let r = sample_report () in
  let path = Filename.temp_file "obs_report" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Obs.Report.write path r;
  match Obs.Report.read path with
  | Error m -> Alcotest.failf "read failed: %s" m
  | Ok r' ->
      Alcotest.check json "report round-trips" (Obs.Report.to_json r)
        (Obs.Report.to_json r')

let test_report_rejects_future_schema () =
  match
    Obs.Report.of_json
      (Obs.Json.Obj
         [ ("schema_version", Obs.Json.Int (Obs.Report.schema_version + 1));
           ("tool", Obs.Json.String "t");
           ("results", Obs.Json.List []) ])
  with
  | Ok _ -> Alcotest.fail "accepted an unknown schema version"
  | Error m ->
      Alcotest.(check bool) "error names the version" true
        (Astring.String.is_infix ~affix:"schema_version" m)

let test_report_accepts_v1 () =
  (* a v1 document predates the host-throughput fields: it must still
     parse, with [host]/[std_host] surfaced as [None] *)
  match
    Obs.Report.of_json
      (Obs.Json.Obj
         [ ("schema_version", Obs.Json.Int 1);
           ("tool", Obs.Json.String "t");
           ( "results",
             Obs.Json.List
               [ Obs.Json.Obj
                   [ ("bench", Obs.Json.String "b");
                     ("build", Obs.Json.String "compile-each");
                     ("std_cycles", Obs.Json.Int 10);
                     ("std_insns", Obs.Json.Int 5);
                     ("std_attribution", Obs.Json.Null);
                     ("std_fault", Obs.Json.Null);
                     ("outputs_agree", Obs.Json.Bool true);
                     ( "runs",
                       Obs.Json.List
                         [ Obs.Json.Obj
                             [ ("level", Obs.Json.String "om-full");
                               ("cycles", Obs.Json.Int 7);
                               ("insns", Obs.Json.Int 3);
                               ("improvement_pct", Obs.Json.Float 30.0);
                               ("counters", Obs.Json.Obj []);
                               ("attribution", Obs.Json.Null);
                               ("fault", Obs.Json.Null) ] ] ) ] ] ) ])
  with
  | Error m -> Alcotest.failf "v1 document rejected: %s" m
  | Ok r ->
      let b = List.hd r.Obs.Report.results in
      Alcotest.(check bool) "std_host is None" true
        (b.Obs.Report.std_host = None);
      Alcotest.(check bool) "run host is None" true
        ((List.hd b.Obs.Report.runs).Obs.Report.host = None)

let test_report_accepts_v2 () =
  (* a v2 document predates the link-service timings: it must still
     parse, with [relink] surfaced as [None] *)
  match
    Obs.Report.of_json
      (Obs.Json.Obj
         [ ("schema_version", Obs.Json.Int 2);
           ("tool", Obs.Json.String "t");
           ( "results",
             Obs.Json.List
               [ Obs.Json.Obj
                   [ ("bench", Obs.Json.String "b");
                     ("build", Obs.Json.String "compile-each");
                     ("std_cycles", Obs.Json.Int 10);
                     ("std_insns", Obs.Json.Int 5);
                     ("std_attribution", Obs.Json.Null);
                     ("std_fault", Obs.Json.Null);
                     ("outputs_agree", Obs.Json.Bool true);
                     ( "std_host",
                       Obs.Json.Obj
                         [ ("wall_s", Obs.Json.Float 0.5);
                           ("mips", Obs.Json.Float 10.0) ] );
                     ("runs", Obs.Json.List []) ] ] ) ])
  with
  | Error m -> Alcotest.failf "v2 document rejected: %s" m
  | Ok r ->
      let b = List.hd r.Obs.Report.results in
      Alcotest.(check bool) "relink is None" true (b.Obs.Report.relink = None);
      Alcotest.(check bool) "std_host survives" true
        (b.Obs.Report.std_host <> None)

let test_suite_json_roundtrip () =
  (* the exact path behind [omlink suite --json]: measure, convert, print,
     re-read through the schema reader *)
  let b =
    match Workloads.Programs.find "compress" with
    | Some b -> b
    | None -> Alcotest.fail "compress benchmark missing"
  in
  let r =
    match Reports.Measure.run_benchmark Workloads.Suite.Compile_each b with
    | Ok r -> r
    | Error m -> Alcotest.failf "measure failed: %s" m
  in
  let report = Reports.Report_json.of_matrix ~attribution:true [ r ] in
  let text = Obs.Json.to_string (Obs.Report.to_json report) in
  match Result.bind (Obs.Json.parse text) Obs.Report.of_json with
  | Error m -> Alcotest.failf "round-trip failed: %s" m
  | Ok report' -> (
      Alcotest.check json "suite report round-trips"
        (Obs.Report.to_json report)
        (Obs.Report.to_json report');
      let bench = List.hd report'.Obs.Report.results in
      Alcotest.(check string) "bench name" "compress" bench.Obs.Report.bench;
      Alcotest.(check int) "level rows" (List.length Om.all_levels)
        (List.length bench.Obs.Report.runs);
      match bench.Obs.Report.std_attribution with
      | None -> Alcotest.fail "attribution missing"
      | Some buckets ->
          Alcotest.(check bool) "every category present" true
            (List.for_all
               (fun c -> List.mem_assoc (Obs.Attr.category_name c) buckets)
               Obs.Attr.all_categories))

(* --- Json escaping (control chars, unicode) --- *)

let test_json_escaping () =
  let printed = Obs.Json.to_string (Obs.Json.String "\x01\x1f\t\n\"\\") in
  List.iter
    (fun affix ->
      Alcotest.(check bool) (affix ^ " escaped") true
        (Astring.String.is_infix ~affix printed))
    [ {|\u0001|}; {|\u001f|}; {|\t|}; {|\n|}; {|\"|}; {|\\|} ];
  (* no raw control byte survives into the output *)
  String.iter
    (fun c ->
      Alcotest.(check bool) "printed text has no control bytes" true
        (Char.code c >= 0x20))
    printed;
  (* \uXXXX escapes decode to UTF-8, surrogate pairs included *)
  (match Obs.Json.parse {|"é ☃"|} with
  | Ok v ->
      Alcotest.check json "BMP escapes" (Obs.Json.String "\xc3\xa9 \xe2\x98\x83") v
  | Error m -> Alcotest.failf "BMP escapes: %s" m);
  (match Obs.Json.parse {|"😀"|} with
  | Ok v ->
      Alcotest.check json "surrogate pair" (Obs.Json.String "\xf0\x9f\x98\x80") v
  | Error m -> Alcotest.failf "surrogate pair: %s" m);
  (* every one-byte string prints as the per-byte formulation does *)
  let reference c =
    match c with
    | '"' -> {|\"|}
    | '\\' -> {|\\|}
    | '\n' -> {|\n|}
    | '\r' -> {|\r|}
    | '\t' -> {|\t|}
    | '\b' -> {|\b|}
    | '\012' -> {|\f|}
    | c when Char.code c < 0x20 -> Printf.sprintf "\\u%04x" (Char.code c)
    | c -> String.make 1 c
  in
  for b = 0 to 255 do
    let c = Char.chr b in
    Alcotest.(check string)
      (Printf.sprintf "byte %d prints as before" b)
      ("\"" ^ reference c ^ "\"")
      (Obs.Json.to_string (Obs.Json.String (String.make 1 c)))
  done;
  (* escaping round-trips byte-for-byte, wherever the escapes sit *)
  List.iter
    (fun s ->
      match Obs.Json.parse (Obs.Json.to_string (Obs.Json.String s)) with
      | Ok (Obs.Json.String s') -> Alcotest.(check string) "round-trip" s s'
      | Ok _ -> Alcotest.fail "parsed to a non-string"
      | Error m -> Alcotest.failf "round-trip of %S: %s" s m)
    [ "mixed \x00\x1b bytes, caf\xc3\xa9, \xf0\x9f\x98\x80, \"q\"";
      "";
      "\"escape first";
      "escape last\n";
      "two\t\nadjacent";
      "\\\"\x01";
      "backslash before the quote\\" ];
  (* an unterminated string fails where the input ends, escape or not *)
  List.iter
    (fun (s, expected) ->
      Alcotest.(check (result json string)) s (Error expected) (Obs.Json.parse s))
    [ ({|"abc|}, "json: at offset 4: unterminated string");
      ({|"ab\"|}, "json: at offset 5: unterminated string");
      ({|{"k":"v\"}|}, "json: at offset 10: unterminated string");
      ({|"ab\|}, "json: at offset 4: unterminated escape") ];
  (* a string with no escape costs one copy of itself *)
  let plain = "\"" ^ String.make 200_000 'a' ^ "\"" in
  Alcotest.(check bool) "parsing a plain string allocates at most 1.1x it"
    true
    (Testutil.allocated (fun () -> Obs.Json.parse plain)
    <= 1.1 *. float_of_int (String.length plain))

(* --- Metrics --- *)

let test_metrics_buckets () =
  (* below sub (256) every integer is its own bucket: exact *)
  for v = 0 to 255 do
    Alcotest.(check int)
      (Printf.sprintf "exact bucket for %d" v)
      v
      (Obs.Metrics.bucket_lower (Obs.Metrics.bucket_index v))
  done;
  (* above: lower bound <= v with relative error bounded by 1/128 *)
  List.iter
    (fun v ->
      let lo = Obs.Metrics.bucket_lower (Obs.Metrics.bucket_index v) in
      Alcotest.(check bool) (Printf.sprintf "lower bound <= %d" v) true (lo <= v);
      Alcotest.(check bool)
        (Printf.sprintf "error bounded for %d" v)
        true
        (v - lo <= v / 128))
    [ 256; 257; 511; 512; 1000; 4096; 65535; 1_000_000; 123_456_789; max_int ];
  (* the index is monotone across bucket boundaries *)
  let prev = ref (-1) in
  for v = 0 to 100_000 do
    let i = Obs.Metrics.bucket_index v in
    Alcotest.(check bool) "monotone" true (i >= !prev);
    prev := i
  done

let test_metrics_quantiles_exact () =
  let reg = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram ~registry:reg "h_us" in
  (* a scripted sequence of small values: every bucket is width-1, so
     every quantile is the true sample value *)
  List.iter (Obs.Metrics.observe h) (List.init 100 (fun i -> i + 1));
  let s = Obs.Metrics.summary h in
  Alcotest.(check int) "count" 100 s.Obs.Metrics.count;
  Alcotest.(check int) "sum" 5050 s.Obs.Metrics.sum;
  Alcotest.(check int) "min" 1 s.Obs.Metrics.min;
  Alcotest.(check int) "max" 100 s.Obs.Metrics.max;
  Alcotest.(check int) "p50 exact" 50 s.Obs.Metrics.p50;
  Alcotest.(check int) "p95 exact" 95 s.Obs.Metrics.p95;
  Alcotest.(check int) "p99 exact" 99 s.Obs.Metrics.p99;
  (* max is exact even when it lands in a wide bucket *)
  Obs.Metrics.observe h 1_000_001;
  Alcotest.(check int) "wide-bucket max exact" 1_000_001
    (Obs.Metrics.summary h).Obs.Metrics.max;
  (* re-registration returns the same histogram *)
  let h' = Obs.Metrics.histogram ~registry:reg "h_us" in
  Alcotest.(check int) "shared instrument" 101
    (Obs.Metrics.summary h').Obs.Metrics.count;
  Alcotest.(check bool) "find_histogram finds it" true
    (Obs.Metrics.find_histogram ~registry:reg "h_us" <> None);
  Alcotest.(check bool) "find_histogram misses unknown names" true
    (Obs.Metrics.find_histogram ~registry:reg "nope" = None)

let test_metrics_exposition () =
  let reg = Obs.Metrics.create () in
  let c = Obs.Metrics.counter ~registry:reg ~labels:[ ("kind", "x") ] "c_total" in
  Obs.Metrics.incr ~by:3 c;
  let g = Obs.Metrics.gauge ~registry:reg "g" in
  Obs.Metrics.set_gauge g 2.5;
  let h = Obs.Metrics.histogram ~registry:reg "h_us" in
  List.iter (Obs.Metrics.observe h) [ 5; 10; 10; 20 ];
  let text = Obs.Metrics.to_prometheus reg in
  List.iter
    (fun affix ->
      Alcotest.(check bool) (affix ^ " in exposition") true
        (Astring.String.is_infix ~affix text))
    [ {|c_total{kind="x"} 3|};
      "g 2.5";
      {|h_us_bucket{le="5"} 1|};
      {|h_us_bucket{le="10"} 3|};
      {|h_us_bucket{le="20"} 4|};
      {|h_us_bucket{le="+Inf"} 4|};
      "h_us_sum 45";
      "h_us_count 4";
      {|h_us{quantile="0.5"} 10|};
      "# TYPE c_total counter";
      "# TYPE h_us histogram" ];
  (* the JSON snapshot survives the printer/parser round-trip *)
  let snapshot = Obs.Metrics.to_json reg in
  (match Obs.Json.parse (Obs.Json.to_string snapshot) with
  | Ok j' -> Alcotest.check json "snapshot round-trips" snapshot j'
  | Error m -> Alcotest.failf "snapshot parse: %s" m);
  (* and carries the histogram payload *)
  match Obs.Json.member "histograms" snapshot with
  | Some (Obs.Json.List [ hj ]) ->
      let get name = Option.bind (Obs.Json.member name hj) Obs.Json.get_int in
      Alcotest.(check (option int)) "count" (Some 4) (get "count");
      Alcotest.(check (option int)) "p50" (Some 10) (get "p50");
      Alcotest.(check (option int)) "max" (Some 20) (get "max")
  | _ -> Alcotest.fail "snapshot carries no histogram list"

let test_metrics_multidomain () =
  (* hammer one histogram and one counter from several domains: no
     observation may be lost *)
  let reg = Obs.Metrics.create () in
  let per_domain = 10_000 and domains = 4 in
  let worker () =
    (* each domain mints its own handles, exercising get-or-create *)
    let h = Obs.Metrics.histogram ~registry:reg "mt_us" in
    let c = Obs.Metrics.counter ~registry:reg "mt_total" in
    for i = 1 to per_domain do
      Obs.Metrics.observe h (i mod 200);
      Obs.Metrics.incr c
    done
  in
  let spawned = List.init (domains - 1) (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join spawned;
  let h = Obs.Metrics.histogram ~registry:reg "mt_us" in
  let c = Obs.Metrics.counter ~registry:reg "mt_total" in
  Alcotest.(check int) "no lost observations" (domains * per_domain)
    (Obs.Metrics.summary h).Obs.Metrics.count;
  Alcotest.(check int) "no lost increments" (domains * per_domain)
    (Obs.Metrics.counter_value c)

(* --- Trace across domains --- *)

let test_trace_multidomain () =
  let n = 16 in
  let c, results =
    Obs.Trace.with_collector (fun () ->
        Reports.Pool.map ~jobs:4
          (fun i -> Obs.Trace.span (Printf.sprintf "task%d" i) (fun () -> i * 2))
          (List.init n Fun.id))
  in
  Alcotest.(check (list int)) "results in order"
    (List.init n (fun i -> i * 2))
    results;
  let spans = Obs.Trace.spans c in
  let task_spans =
    List.filter
      (fun (s : Obs.Trace.span) ->
        String.length s.Obs.Trace.name >= 4
        && String.sub s.Obs.Trace.name 0 4 = "task")
      spans
  in
  Alcotest.(check int) "no span lost across domains" n
    (List.length task_spans);
  Alcotest.(check (list string)) "every task span present, exactly once"
    (List.sort compare (List.init n (Printf.sprintf "task%d")))
    (List.sort compare
       (List.map (fun (s : Obs.Trace.span) -> s.Obs.Trace.name) task_spans));
  (* worker spans carry their own depth-0 nesting *)
  List.iter
    (fun (s : Obs.Trace.span) ->
      Alcotest.(check int) "worker span depth" 0 s.Obs.Trace.depth)
    task_spans

(* --- Report v3/v6 side by side --- *)

let v3_doc () =
  Obs.Json.Obj
    [ ("schema_version", Obs.Json.Int 3);
      ("tool", Obs.Json.String "t");
      ( "results",
        Obs.Json.List
          [ Obs.Json.Obj
              [ ("bench", Obs.Json.String "b");
                ("build", Obs.Json.String "compile-each");
                ("std_cycles", Obs.Json.Int 10);
                ("std_insns", Obs.Json.Int 5);
                ("std_attribution", Obs.Json.Null);
                ("std_fault", Obs.Json.Null);
                ("outputs_agree", Obs.Json.Bool true);
                ("runs", Obs.Json.List []);
                ("std_host", Obs.Json.Null);
                ( "relink",
                  Obs.Json.Obj
                    [ ("cold_s", Obs.Json.Float 0.2);
                      ("warm_s", Obs.Json.Float 0.05) ] ) ] ] ) ]

let test_report_accepts_v3_and_v6 () =
  (* v3: no latency/metrics/load fields — they surface as None *)
  (match Obs.Report.of_json (v3_doc ()) with
  | Error m -> Alcotest.failf "v3 document rejected: %s" m
  | Ok r ->
      Alcotest.(check bool) "v3 latency is None" true (r.Obs.Report.latency = None);
      Alcotest.(check bool) "v3 metrics is None" true (r.Obs.Report.metrics = None);
      Alcotest.(check bool) "v3 load is None" true (r.Obs.Report.load = None);
      Alcotest.(check bool) "v3 relink survives" true
        ((List.hd r.Obs.Report.results).Obs.Report.relink <> None));
  (* v6: fresh reports carry quantiles, a metrics snapshot, and the
     load-test record *)
  Alcotest.(check int) "make stamps v6" 6 Obs.Report.schema_version;
  let reg = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram ~registry:reg "lat_us" in
  List.iter (Obs.Metrics.observe h) [ 10; 20; 30 ];
  let load =
    { Obs.Report.l_profile = "mixed";
      l_level = "full";
      l_clients = 4;
      l_workers = 2;
      l_requests = 100;
      l_ok = 100;
      l_failed = 0;
      l_overloaded = 0;
      l_timeouts = 0;
      l_coalesced = 37;
      l_mismatched = 0;
      l_wall_s = 1.5;
      l_throughput_rps = 66.7;
      l_latency =
        { Obs.Report.q_count = 100; q_p50_us = 900; q_p95_us = 4000;
          q_p99_us = 9000; q_max_us = 12000 } }
  in
  let r4 =
    Obs.Report.make ~tool:"test"
      ~latency:
        { Obs.Report.q_count = 3; q_p50_us = 20; q_p95_us = 30; q_p99_us = 30;
          q_max_us = 30 }
      ~metrics:(Obs.Metrics.to_json reg) ~load []
  in
  let path = Filename.temp_file "obs_report_v6" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Obs.Report.write path r4;
  match Obs.Report.read path with
  | Error m -> Alcotest.failf "v6 read failed: %s" m
  | Ok r' -> (
      Alcotest.(check int) "version" 6 r'.Obs.Report.version;
      (match r'.Obs.Report.latency with
      | Some q ->
          Alcotest.(check int) "q_count" 3 q.Obs.Report.q_count;
          Alcotest.(check int) "q_p50" 20 q.Obs.Report.q_p50_us;
          Alcotest.(check int) "q_max" 30 q.Obs.Report.q_max_us
      | None -> Alcotest.fail "latency lost");
      (match r'.Obs.Report.load with
      | Some l ->
          Alcotest.(check string) "load profile" "mixed" l.Obs.Report.l_profile;
          Alcotest.(check int) "load ok" 100 l.Obs.Report.l_ok;
          Alcotest.(check int) "load coalesced" 37 l.Obs.Report.l_coalesced;
          Alcotest.(check int) "load p99" 9000
            l.Obs.Report.l_latency.Obs.Report.q_p99_us
      | None -> Alcotest.fail "load lost");
      match r'.Obs.Report.metrics with
      | Some m ->
          Alcotest.(check bool) "metrics snapshot survives" true
            (Obs.Json.member "histograms" m <> None)
      | None -> Alcotest.fail "metrics lost")

(* --- Compare: the regression gate --- *)

let report_with ?(gat_bytes = 64) ~cycles ~improvement ~mips () =
  Obs.Report.make ~tool:"test"
    [ { Obs.Report.bench = "b";
        build = "compile-each";
        std_cycles = 1000;
        std_insns = 100;
        std_attribution = None;
        std_fault = None;
        outputs_agree = true;
        runs =
          [ { Obs.Report.level = "om-full";
              cycles;
              insns = 90;
              improvement_pct = improvement;
              counters = [];
              attribution = None;
              fault = None;
              host = Some { Obs.Report.wall_s = 0.1; mips };
              size =
                Some
                  { Obs.Report.text_bytes = 360;
                    data_bytes = 128;
                    gat_bytes } } ];
        std_host = Some { Obs.Report.wall_s = 0.1; mips = 100. };
        relink = None;
        std_size =
          Some
            { Obs.Report.text_bytes = 400; data_bytes = 160; gat_bytes = 320 }
      } ]

let test_compare_gate () =
  let base = report_with ~cycles:800 ~improvement:20.0 ~mips:100. () in
  (* identical reports: clean pass *)
  let same = Obs.Compare.compare ~old_r:base ~new_r:base () in
  Alcotest.(check bool) "identical reports pass" true (Obs.Compare.ok same);
  Alcotest.(check int) "no regressions" 0
    (List.length same.Obs.Compare.regressions);
  (* cycles +5% and improvement -4 points: both gate *)
  let regressed = report_with ~cycles:840 ~improvement:16.0 ~mips:100. () in
  let out = Obs.Compare.compare ~old_r:base ~new_r:regressed () in
  Alcotest.(check bool) "regression fails the gate" false (Obs.Compare.ok out);
  let metrics =
    List.map (fun f -> f.Obs.Compare.metric) out.Obs.Compare.regressions
  in
  Alcotest.(check bool) "cycles gated" true (List.mem "cycles" metrics);
  Alcotest.(check bool) "improvement gated" true
    (List.mem "improvement_pct" metrics);
  (* a big MIPS drop is a warning by default, a regression when gated *)
  let slower = report_with ~cycles:800 ~improvement:20.0 ~mips:50. () in
  let warned = Obs.Compare.compare ~old_r:base ~new_r:slower () in
  Alcotest.(check bool) "mips drop alone passes by default" true
    (Obs.Compare.ok warned);
  Alcotest.(check bool) "but is surfaced as a warning" true
    (List.exists
       (fun f -> f.Obs.Compare.metric = "mips")
       warned.Obs.Compare.warnings);
  let gated =
    Obs.Compare.compare
      ~thresholds:
        { Obs.Compare.default_thresholds with
          Obs.Compare.max_mips_drop_pct = Some 20. }
      ~old_r:base ~new_r:slower ()
  in
  Alcotest.(check bool) "gated mips drop fails" false (Obs.Compare.ok gated);
  (* faster cycles surface as improvements, not regressions *)
  let faster = report_with ~cycles:700 ~improvement:30.0 ~mips:100. () in
  let better = Obs.Compare.compare ~old_r:base ~new_r:faster () in
  Alcotest.(check bool) "improvement passes" true (Obs.Compare.ok better);
  Alcotest.(check bool) "improvements recorded" true
    (better.Obs.Compare.improvements <> []);
  (* a vanished bench row is reported missing *)
  let empty = Obs.Report.make ~tool:"test" [] in
  let gone = Obs.Compare.compare ~old_r:base ~new_r:empty () in
  Alcotest.(check (list string)) "missing rows listed" [ "b/compile-each" ]
    gone.Obs.Compare.missing

let suite =
  ( "obs",
    [ Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
      Alcotest.test_case "json parse" `Quick test_json_parse;
      Alcotest.test_case "trace disabled by default" `Quick test_trace_disabled;
      Alcotest.test_case "trace spans" `Quick test_trace_spans;
      Alcotest.test_case "trace chrome json" `Quick test_trace_chrome_json ]
    @ List.map
        (fun level ->
          Alcotest.test_case ("pass spans at " ^ Om.level_name level) `Quick
            (test_level_spans level))
        Om.all_levels
    @ [ Alcotest.test_case "attribution: two procedures" `Quick
        test_attr_two_procs;
      Alcotest.test_case "attribution: full shrinks overhead" `Quick
        test_attr_full_shrinks_overhead;
      Alcotest.test_case "attribution matches the reference oracle" `Quick
        test_attr_matches_reference;
      Alcotest.test_case "probe sums match cpu stats" `Quick test_probe_sums;
      Alcotest.test_case "report round-trip" `Quick test_report_roundtrip;
      Alcotest.test_case "report rejects future schema" `Quick
        test_report_rejects_future_schema;
      Alcotest.test_case "report accepts v1 documents" `Quick
        test_report_accepts_v1;
      Alcotest.test_case "report accepts v2 documents" `Quick
        test_report_accepts_v2;
      Alcotest.test_case "suite --json round-trip" `Quick
        test_suite_json_roundtrip;
      Alcotest.test_case "json escaping" `Quick test_json_escaping;
      Alcotest.test_case "metrics bucket layout" `Quick test_metrics_buckets;
      Alcotest.test_case "metrics exact quantiles" `Quick
        test_metrics_quantiles_exact;
      Alcotest.test_case "metrics exposition" `Quick test_metrics_exposition;
      Alcotest.test_case "metrics across domains" `Quick
        test_metrics_multidomain;
      Alcotest.test_case "trace across domains" `Quick test_trace_multidomain;
      Alcotest.test_case "report accepts v3 and v6" `Quick
        test_report_accepts_v3_and_v6;
      Alcotest.test_case "compare regression gate" `Quick test_compare_gate ] )
