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
    [ "om:" ^ Om.level_name level; "lift"; "gat-merge"; "datalayout";
      "lower"; "verify" ];
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
  match Result.bind (Machine.Cpu.decode image) Obs.Attr.run_decoded with
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
   with [Attr.classify], must add up to exactly what [Attr.run_decoded]
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
  let rows = Hashtbl.create 16 in
  let add key (i, c, im, dm) =
    let i0, c0, im0, dm0 =
      Option.value (Hashtbl.find_opt rows key) ~default:(0, 0, 0, 0)
    in
    Hashtbl.replace rows key (i0 + i, c0 + c, im0 + im, dm0 + dm)
  in
  let probe (ev : Machine.Cpu.probe_event) =
    let info = Linker.Image.proc_containing image ev.Machine.Cpu.ev_pc in
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
        (level ^ ": Attr.run_decoded = classified reference probe events")
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
    ~relinks:[ ("two_proc", { Obs.Report.cold_s = 0.2; warm_s = 0.05 }) ]
    [ { Obs.Report.bench = "two_proc";
        build = "compile-each";
        outputs_agree = true;
        runs =
          [ { Obs.Report.level = Obs.Report.standard_level;
              cycles = 123456;
              insns = 789;
              counters = [];
              attribution =
                Some
                  [ ("addr_load", { Obs.Report.insns = 10; cycles = 31 });
                    ("other", { Obs.Report.insns = 700; cycles = 900 }) ];
              fault = None;
              wall_s = Some 0.5;
              size =
                Some
                  { Obs.Report.text_bytes = 3156;
                    data_bytes = 640;
                    gat_bytes = 320 } };
            { Obs.Report.level = "om-full";
              cycles = 100000;
              insns = 700;
              counters = [ ("addr_loads", 14); ("gp_setups_deleted", 6) ];
              attribution = None;
              fault = None;
              wall_s = Some 0.25;
              size =
                Some
                  { Obs.Report.text_bytes = 2800;
                    data_bytes = 512;
                    gat_bytes = 64 } };
            { Obs.Report.level = "om-full+sched";
              cycles = 0;
              insns = 0;
              counters = [];
              attribution = None;
              fault = Some "heap exhausted";
              wall_s = None;
              size = None } ] } ]

let test_report_roundtrip () =
  let r = sample_report () in
  let path = Filename.temp_file "obs_report" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Obs.Report.write path r;
  match Obs.Report.read path with
  | Error m -> Alcotest.failf "read failed: %s" m
  | Ok r' ->
      Alcotest.check json "report round-trips" (Obs.Report.to_json r)
        (Obs.Report.to_json r');
      (* the derived numbers are computed from the stored ones *)
      let row = List.hd r'.Obs.Report.results in
      let run level =
        match Obs.Report.find_run row level with
        | Some run -> run
        | None -> Alcotest.failf "no %s run" level
      in
      Alcotest.(check (float 1e-9)) "improvement over the standard run"
        (100. *. 23456. /. 123456.)
        (Obs.Report.improvement row (run "om-full"));
      Alcotest.(check (float 0.)) "the standard run improves by 0" 0.
        (Obs.Report.improvement row (run Obs.Report.standard_level));
      Alcotest.(check (float 0.)) "a faulted run improves by 0" 0.
        (Obs.Report.improvement row (run "om-full+sched"));
      Alcotest.(check (option (float 1e-9))) "mips = insns / wall_s"
        (Some (700. /. 0.25 /. 1e6))
        (Obs.Report.mips (run "om-full"));
      Alcotest.(check (option (float 0.))) "no wall time, no mips" None
        (Obs.Report.mips (run "om-full+sched"))

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

(* the reader speaks only the current schema: older documents are
   refused with an error that names their version *)
let check_rejects_version doc version =
  match Obs.Report.of_json doc with
  | Ok _ -> Alcotest.failf "v%d document accepted" version
  | Error m ->
      Alcotest.(check bool) "error names the version" true
        (Astring.String.is_infix
           ~affix:(Printf.sprintf "schema_version %d" version) m)

let test_report_rejects_v1 () =
  (* a v1 document: no host-throughput fields *)
  check_rejects_version
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
    1

(* a v6 row: the standard image beside the runs, in six [std_*] fields,
   and each run's stored improvement and host throughput *)
let v6_row () =
  Obs.Json.Obj
    [ ("bench", Obs.Json.String "b");
      ("build", Obs.Json.String "compile-each");
      ("std_cycles", Obs.Json.Int 10);
      ("std_insns", Obs.Json.Int 5);
      ("std_attribution", Obs.Json.Null);
      ("std_fault", Obs.Json.Null);
      ("outputs_agree", Obs.Json.Bool true);
      ( "std_host",
        Obs.Json.Obj
          [ ("wall_s", Obs.Json.Float 0.5); ("mips", Obs.Json.Float 10.0) ] );
      ("relink", Obs.Json.Null);
      ( "std_size",
        Obs.Json.Obj
          [ ("text_bytes", Obs.Json.Int 3600);
            ("data_bytes", Obs.Json.Int 512);
            ("gat_bytes", Obs.Json.Int 64) ] );
      ( "runs",
        Obs.Json.List
          [ Obs.Json.Obj
              [ ("level", Obs.Json.String "om-full");
                ("cycles", Obs.Json.Int 7);
                ("insns", Obs.Json.Int 3);
                ("improvement_pct", Obs.Json.Float 30.0);
                ("counters", Obs.Json.Obj []);
                ("attribution", Obs.Json.Null);
                ("fault", Obs.Json.Null);
                ("host", Obs.Json.Null);
                ("size", Obs.Json.Null) ] ] ) ]

let test_report_rejects_v5 () =
  (* a v5 document: everything but the load record, which is optional
     in v6 — only the version stamp makes it unreadable *)
  check_rejects_version
    (Obs.Json.Obj
       [ ("schema_version", Obs.Json.Int 5);
         ("tool", Obs.Json.String "t");
         ("results", Obs.Json.List [ v6_row () ]);
         ("latency", Obs.Json.Null);
         ("metrics", Obs.Json.Null) ])
    5;
  (* and a v6 one: its rows would read as v7 rows without a standard
     run, so again only the version stamp refuses it *)
  check_rejects_version
    (Obs.Json.Obj
       [ ("schema_version", Obs.Json.Int 6);
         ("tool", Obs.Json.String "t");
         ("results", Obs.Json.List [ v6_row () ]);
         ("latency", Obs.Json.Null);
         ("metrics", Obs.Json.Null);
         ("load", Obs.Json.Null) ])
    6

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
  let report =
    Reports.Runner.report [ (b, Workloads.Suite.Compile_each, Ok r) ]
  in
  let text = Obs.Json.to_string (Obs.Report.to_json report) in
  match Result.bind (Obs.Json.parse text) Obs.Report.of_json with
  | Error m -> Alcotest.failf "round-trip failed: %s" m
  | Ok report' -> (
      Alcotest.check json "suite report round-trips"
        (Obs.Report.to_json report)
        (Obs.Report.to_json report');
      let bench = List.hd report'.Obs.Report.results in
      Alcotest.(check string) "bench name" "compress" bench.Obs.Report.bench;
      Alcotest.(check (list string)) "the standard run first, then each level"
        (Obs.Report.standard_level :: List.map Om.level_name Om.all_levels)
        (List.map (fun (r : Obs.Report.run) -> r.level) bench.Obs.Report.runs);
      match (List.hd bench.Obs.Report.runs).Obs.Report.attribution with
      | None -> Alcotest.fail "attribution missing"
      | Some buckets ->
          Alcotest.(check bool) "every category present" true
            (List.for_all
               (fun c -> List.mem_assoc (Obs.Attr.category_name c) buckets)
               Obs.Attr.all_categories))

let test_one_simulation_per_image () =
  let b =
    match Workloads.Programs.find "compress" with
    | Some b -> b
    | None -> Alcotest.fail "compress benchmark missing"
  in
  let sims = Obs.Metrics.counter "omlt_sim_runs_total" in
  let before = Obs.Metrics.counter_value sims in
  let rows = Reports.Runner.matrix ~jobs:1 [ b ] in
  Alcotest.(check int) "2 builds x (std + 5 levels) simulations" 12
    (Obs.Metrics.counter_value sims - before);
  let blocks = Machine.Blocks.counters () in
  let report = Reports.Runner.report rows in
  Alcotest.(check bool) "the report simulates nothing" true
    (Machine.Blocks.counters () = blocks);
  let r =
    match Reports.Runner.results rows with
    | r :: _ -> r
    | [] -> Alcotest.fail "compress measured no row"
  in
  Alcotest.(check string) "the first row is compile-each"
    (Workloads.Suite.build_name Workloads.Suite.Compile_each)
    r.Obs.Report.build;
  let run =
    List.find
      (fun (run : Obs.Report.run) -> run.level = Om.level_name Om.Full)
      r.Obs.Report.runs
  in
  let attribution =
    match run.Obs.Report.attribution with
    | Some a -> a
    | None -> Alcotest.fail "om-full has no attribution"
  in
  let fresh =
    let ( let* ) = Result.bind in
    match
      let* world = Workloads.Suite.resolve Workloads.Suite.Compile_each b in
      let* { Om.decoded; _ } = Om.optimize_resolved Om.Full world in
      Result.map_error
        (Format.asprintf "%a" Machine.Cpu.pp_error)
        (Obs.Attr.run_decoded decoded)
    with
    | Ok p -> Obs.Report.attribution_of_profile p
    | Error m -> Alcotest.failf "fresh profile failed: %s" m
  in
  let triples a =
    List.map
      (fun (name, (b : Obs.Report.bucket)) -> (name, b.insns, b.cycles))
      a
  in
  let buckets = Alcotest.(list (triple string int int)) in
  Alcotest.check buckets "om-full attribution = a fresh profile"
    (triples fresh) (triples attribution);
  Alcotest.(check int) "bucket cycles sum to the run's cycles"
    run.Obs.Report.cycles
    (List.fold_left
       (fun sum (_, (b : Obs.Report.bucket)) -> sum + b.cycles)
       0 attribution);
  let reported =
    List.find
      (fun (run : Obs.Report.run) -> run.level = Om.level_name Om.Full)
      (List.hd report.Obs.Report.results).Obs.Report.runs
  in
  Alcotest.(check (option buckets)) "the report carries it"
    (Some (triples attribution))
    (Option.map triples reported.Obs.Report.attribution)

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
    (Obs.Metrics.summary h').Obs.Metrics.count

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

(* --- Report v3 refused, the current schema read --- *)

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

let sample_load =
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
    l_image_hits = 41;
    l_mismatched = 0;
    l_wall_s = 1.5;
    l_latency =
      { Obs.Report.q_count = 100; q_p50_us = 900; q_p95_us = 4000;
        q_p99_us = 9000; q_max_us = 12000 } }

let test_report_rejects_v3_reads_current () =
  check_rejects_version (v3_doc ()) 3;
  (* v7: fresh reports carry per-program relinks, a metrics snapshot,
     and the load-test record *)
  Alcotest.(check int) "make stamps v7" 7 Obs.Report.schema_version;
  let reg = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram ~registry:reg "lat_us" in
  List.iter (Obs.Metrics.observe h) [ 10; 20; 30 ];
  let r =
    Obs.Report.make ~tool:"test"
      ~relinks:[ ("li", { Obs.Report.cold_s = 0.2; warm_s = 0.05 }) ]
      ~metrics:(Obs.Metrics.to_json reg) ~load:sample_load []
  in
  let path = Filename.temp_file "obs_report" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Obs.Report.write path r;
  match Obs.Report.read path with
  | Error m -> Alcotest.failf "read failed: %s" m
  | Ok r' -> (
      Alcotest.(check (option int)) "version" (Some 7)
        (Option.bind
           (Obs.Json.member "schema_version" (Obs.Report.to_json r'))
           Obs.Json.get_int);
      (match r'.Obs.Report.relinks with
      | [ ("li", rl) ] ->
          Alcotest.(check (float 0.)) "relink warm_s" 0.05 rl.Obs.Report.warm_s
      | _ -> Alcotest.fail "relinks lost");
      (match r'.Obs.Report.load with
      | Some l ->
          Alcotest.(check string) "load profile" "mixed" l.Obs.Report.l_profile;
          Alcotest.(check int) "load ok" 100 l.Obs.Report.l_ok;
          Alcotest.(check int) "load coalesced" 37 l.Obs.Report.l_coalesced;
          Alcotest.(check int) "load image hits" 41 l.Obs.Report.l_image_hits;
          Alcotest.(check int) "load p99" 9000
            l.Obs.Report.l_latency.Obs.Report.q_p99_us;
          Alcotest.(check (float 1e-9)) "throughput = ok / wall_s"
            (100. /. 1.5) (Obs.Report.throughput l)
      | None -> Alcotest.fail "load lost");
      match r'.Obs.Report.metrics with
      | Some m ->
          Alcotest.(check bool) "metrics snapshot survives" true
            (Obs.Json.member "histograms" m <> None)
      | None -> Alcotest.fail "metrics lost")

(* --- Compare: the baseline gate --- *)

(* two rows, a/ and b/compile-each, each a 1000-cycle standard run and
   an 800-cycle om-full run with counters, attribution and sizes; every
   run simulated at 100 MIPS *)
let gate_base =
  let run level cycles insns counters =
    { Obs.Report.level;
      cycles;
      insns;
      counters;
      attribution =
        Some
          [ ("addr_load", { Obs.Report.insns = 10; cycles = 30 });
            ("other", { Obs.Report.insns = insns - 10; cycles = cycles - 30 })
          ];
      fault = None;
      wall_s = Some (float_of_int insns /. 100e6);
      size =
        Some { Obs.Report.text_bytes = 400; data_bytes = 160; gat_bytes = 64 }
    }
  in
  let row bench =
    { Obs.Report.bench;
      build = "compile-each";
      outputs_agree = true;
      runs =
        [ run Obs.Report.standard_level 1000 100 [];
          run "om-full" 800 90 [ ("insns_deleted", 10); ("addr_converted", 4) ]
        ] }
  in
  Obs.Report.make ~tool:"test"
    ~relinks:[ ("a", { Obs.Report.cold_s = 0.2; warm_s = 0.05 }) ]
    [ row "a"; row "b" ]

(* [r] with [f] applied to each row *)
let edit_rows f (r : Obs.Report.t) = { r with results = List.map f r.results }

(* [r] with [f] applied to the run at [level] of row [bench] *)
let edit_run bench level f =
  edit_rows (fun (b : Obs.Report.bench) ->
      if b.bench <> bench then b
      else
        { b with
          runs =
            List.map
              (fun (run : Obs.Report.run) ->
                if run.level = level then f run else run)
              b.runs })

let findings ?min_mips new_r =
  List.map
    (Format.asprintf "%a" Obs.Compare.pp_finding)
    (Obs.Compare.compare ?min_mips ~old_r:gate_base ~new_r ())

let test_compare_gate () =
  let check = Alcotest.(check (list string)) in
  check "identical reports pass" [] (findings gate_base);
  (* ten single-fact edits: each fails and names its leaf *)
  let om_full f = edit_run "a" "om-full" f in
  let bucket name f attribution =
    List.map
      (fun (cat, (bk : Obs.Report.bucket)) ->
        if cat = name then (cat, { bk with cycles = f bk.cycles })
        else (cat, bk))
      attribution
  in
  List.iter
    (fun (what, edit, expected) ->
      check what expected (findings (edit gate_base)))
    [ ( "cycles +1",
        om_full (fun r -> { r with cycles = r.cycles + 1 }),
        [ "a/compile-each om-full  cycles: 800 -> 801" ] );
      ( "an OM counter +1",
        om_full (fun r ->
            { r with
              counters =
                List.map
                  (fun (k, v) -> (k, if k = "insns_deleted" then v + 1 else v))
                  r.counters }),
        [ "a/compile-each om-full  counters.insns_deleted: 10 -> 11" ] );
      ( "5 cycles moved between attribution buckets",
        om_full (fun r ->
            { r with
              attribution =
                Option.map
                  (fun a ->
                    bucket "other" (fun c -> c + 5)
                      (bucket "addr_load" (fun c -> c - 5) a))
                  r.attribution }),
        [ "a/compile-each om-full  attribution.addr_load.cycles: 30 -> 25";
          "a/compile-each om-full  attribution.other.cycles: 770 -> 775" ] );
      ( "text_bytes +4",
        om_full (fun r ->
            { r with
              size =
                Option.map
                  (fun (s : Obs.Report.size) ->
                    { s with text_bytes = s.text_bytes + 4 })
                  r.size }),
        [ "a/compile-each om-full  size.text_bytes: 400 -> 404" ] );
      ( "insns +1",
        edit_run "a" Obs.Report.standard_level (fun r ->
            { r with insns = r.insns + 1 }),
        [ "a/compile-each standard  insns: 100 -> 101" ] );
      ( "outputs_agree flipped",
        edit_rows (fun b ->
            if b.bench = "b" then { b with outputs_agree = false } else b),
        [ "b/compile-each  outputs_agree: true -> false" ] );
      ( "an added row",
        (fun r ->
          { r with
            results = r.results @ [ { (List.hd r.results) with bench = "c" } ]
          }),
        [ "c/compile-each  row: absent -> present" ] );
      ( "an added level",
        edit_rows (fun b ->
            if b.bench = "a" then
              { b with
                runs =
                  b.runs @ [ { (List.hd b.runs) with level = "om-gc" } ] }
            else b),
        [ "a/compile-each om-gc  run: absent -> present" ] );
      ( "rows reversed",
        (fun r -> { r with results = List.rev r.results }),
        [ "rows  order: a/compile-each, b/compile-each -> b/compile-each, \
           a/compile-each" ] );
      ( "a removed row",
        (fun r ->
          { r with
            results = List.filter (fun b -> b.Obs.Report.bench <> "b") r.results
          }),
        [ "b/compile-each  row: present -> absent" ] ) ];
  (* a faster image does not reproduce its baseline either, and the
     improvement that follows from two cycle counts is not a second
     finding; the standard run is gated like every level *)
  check "a faster NEW fails on cycles alone"
    [ "a/compile-each om-full  cycles: 800 -> 700" ]
    (findings (om_full (fun r -> { r with cycles = 700 }) gate_base));
  check "a slower standard run fails on its cycles"
    [ "a/compile-each standard  cycles: 1000 -> 1100" ]
    (findings
       (edit_run "a" Obs.Report.standard_level
          (fun r -> { r with cycles = 1100 })
          gate_base));
  check "a renamed counter is gone on one side and new on the other"
    [ "a/compile-each om-full  counters.insns_deleted: 10 -> absent";
      "a/compile-each om-full  counters.insns_removed: absent -> 10" ]
    (findings
       (om_full
          (fun r ->
            { r with
              counters =
                List.map
                  (fun (k, v) ->
                    ((if k = "insns_deleted" then "insns_removed" else k), v))
                  r.counters })
          gate_base));
  check "a faulting run names its fault"
    [ "a/compile-each om-full  fault: null -> \"simulation fault: x\"" ]
    (findings (om_full (fun r -> { r with fault = Some "simulation fault: x" })
       gate_base));
  check "a row without its standard run is missing it"
    [ "a/compile-each standard  run: present -> absent" ]
    (findings
       (edit_rows
          (fun b ->
            if b.bench = "a" then { b with runs = List.tl b.runs } else b)
          gate_base));
  (* host measurements are no finding: wall_s at any run, relinks,
     metrics, load *)
  let halved_speed =
    edit_rows
      (fun b ->
        { b with
          runs =
            List.map
              (fun (r : Obs.Report.run) ->
                { r with wall_s = Option.map (fun s -> 2. *. s) r.wall_s })
              b.runs })
      gate_base
  in
  check "host fields differ only" []
    (findings
       { halved_speed with
         relinks = [ ("a", { Obs.Report.cold_s = 9.; warm_s = 9. }) ];
         metrics = Some (Obs.Json.Obj [ ("histograms", Obs.Json.List []) ]);
         load = Some sample_load });
  (* --min-mips, the one host-time check, names each run under it *)
  let slow_b =
    edit_run "b" "om-full"
      (fun r -> { r with wall_s = Option.map (fun s -> 2. *. s) r.wall_s })
      gate_base
  in
  check "no floor, no finding" [] (findings slow_b);
  check "a floor under every run passes" [] (findings ~min_mips:40. slow_b);
  check "a run under the floor is named"
    [ "b/compile-each om-full  mips: min 80 -> 50.00" ]
    (findings ~min_mips:80. slow_b)

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
      Alcotest.test_case "report rejects v1 documents" `Quick
        test_report_rejects_v1;
      Alcotest.test_case "report rejects v5 documents" `Quick
        test_report_rejects_v5;
      Alcotest.test_case "suite --json round-trip" `Quick
        test_suite_json_roundtrip;
      Alcotest.test_case "one profiled simulation per image" `Quick
        test_one_simulation_per_image;
      Alcotest.test_case "json escaping" `Quick test_json_escaping;
      Alcotest.test_case "metrics bucket layout" `Quick test_metrics_buckets;
      Alcotest.test_case "metrics exact quantiles" `Quick
        test_metrics_quantiles_exact;
      Alcotest.test_case "metrics exposition" `Quick test_metrics_exposition;
      Alcotest.test_case "metrics across domains" `Quick
        test_metrics_multidomain;
      Alcotest.test_case "trace across domains" `Quick test_trace_multidomain;
      Alcotest.test_case "report rejects v3, reads current" `Quick
        test_report_rejects_v3_reads_current;
      Alcotest.test_case "compare regression gate" `Quick test_compare_gate ] )
