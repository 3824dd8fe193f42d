(* omlink bench — the benchmark harness: regenerates every table and
   figure of the paper's evaluation (§5), and the perf gates around them.

   "quick" and the default mode also write BENCH_report.json — the
   schema-versioned machine-readable form of the matrix (per benchmark,
   the standard link's and every level's cycles, cycle-attribution
   buckets and host time, all from one profiled simulation per image;
   see Obs.Report). *)

open Cmdliner

let quick_subset = [ "alvinn"; "compress"; "li"; "tomcatv"; "spice" ]

let selected_benchmarks quick =
  if quick then
    List.filter_map Workloads.Programs.find quick_subset
  else Workloads.Programs.all

(* --- the measurement matrix --- *)

type rows =
  (Workloads.Programs.benchmark
  * Workloads.Suite.build
  * (Obs.Report.bench, string) result)
  list

let build_matrix ?jobs quick : rows =
  let progress =
    { Reports.Runner.on_start =
        (fun b build ->
          Printf.eprintf "[bench] measuring %-10s %-12s\n%!" b.name
            (Workloads.Suite.build_name build));
      on_done =
        (fun b build r ->
          match r with
          | Ok r ->
              if not r.Obs.Report.outputs_agree then
                Printf.eprintf "[bench] WARNING: %s/%s outputs disagree!\n%!"
                  b.name
                  (Workloads.Suite.build_name build)
          | Error m ->
              Printf.eprintf "[bench] %s/%s failed: %s\n%!" b.name
                (Workloads.Suite.build_name build) m) }
  in
  Reports.Runner.matrix ?jobs ~progress (selected_benchmarks quick)

let timings quick =
  List.filter_map
    (fun (b : Workloads.Programs.benchmark) ->
      Printf.eprintf "[bench] timing %-10s\r%!" b.name;
      match Reports.Measure.time_builds b with
      | Ok t -> Some (b.name, t)
      | Error m ->
          Printf.eprintf "[bench] timing %s failed: %s\n%!" b.name m;
          None)
    (selected_benchmarks quick)

(* bench wants the world or a failure message, not a result to thread *)
let world_of_exn build b =
  match Workloads.Suite.compile_cached build b with
  | Ok w -> w
  | Error m -> failwith m

(* --- fuzz throughput: how fast the differential fuzzer burns cases --- *)

let fuzz_throughput jobs =
  let seed = 7 and count = 40 in
  let t0 = Unix.gettimeofday () in
  let nodes = ref 0 in
  for index = 0 to count - 1 do
    let p = Fuzz.Gen.program (Fuzz.case_seed ~seed ~index) in
    nodes := !nodes + Fuzz.Prog.size p;
    ignore (Fuzz.Prog.render p)
  done;
  let t_gen = Unix.gettimeofday () -. t0 in
  let t0 = Unix.gettimeofday () in
  let r = Fuzz.campaign ?jobs ~out_dir:None ~seed ~count () in
  let t_all = Unix.gettimeofday () -. t0 in
  Printf.printf "Fuzz throughput (%d cases, seed %d, avg %d AST nodes):\n"
    count seed (!nodes / count);
  Printf.printf "  generate + render    %8.1f cases/s\n"
    (float_of_int count /. t_gen);
  Printf.printf "  all three oracles    %8.1f cases/s\n"
    (float_of_int count /. t_all);
  if r.Fuzz.failed <> [] then begin
    Printf.eprintf "[bench] fuzz found %d failure(s)!\n%!"
      (List.length r.Fuzz.failed);
    exit 1
  end

(* --- ablation: price each OM-full feature by turning it off --- *)

let ablation () =
  let benches = [ "li"; "compress"; "tomcatv"; "hydro2d"; "spice" ] in
  let variants =
    let d = Om.Transform.default_options in
    [ ("all-on", d);
      ("-calls", { d with Om.Transform.opt_calls = false });
      ("-addr", { d with Om.Transform.opt_addr = false });
      ("-setup-motion", { d with Om.Transform.opt_setup_motion = false });
      ("-setup-deletion", { d with Om.Transform.opt_setup_deletion = false }) ]
  in
  Printf.printf
    "Ablation: dynamic %% improvement of OM-full over a standard link,
     with one transformation disabled per column (compile-each):

";
  Printf.printf "%-10s" "program";
  List.iter (fun (n, _) -> Printf.printf " %15s" n) variants;
  print_newline ();
  List.iter
    (fun name ->
      match Workloads.Programs.find name with
      | None -> ()
      | Some b ->
          let world = world_of_exn Workloads.Suite.Compile_each b in
          let std, _ = Result.get_ok (Om.link_at Om.Standard world) in
          let base, std_out =
            match Machine.Cpu.run_decoded std with
            | Ok o ->
                (o.Machine.Cpu.stats.Machine.Cpu.cycles, o.Machine.Cpu.output)
            | Error _ -> failwith "baseline fault"
          in
          Printf.printf "%-10s" name;
          List.iter
            (fun (_, opts) ->
              match Om.optimize_resolved ~transform_options:opts Om.Full world with
              | Ok { Om.decoded; _ } -> (
                  match Machine.Cpu.run_decoded decoded with
                  | Ok o ->
                      assert (String.equal o.Machine.Cpu.output std_out);
                      Printf.printf " %14.2f%%"
                        (100.
                        *. float_of_int (base - o.Machine.Cpu.stats.Machine.Cpu.cycles)
                        /. float_of_int base)
                  | Error _ -> Printf.printf " %15s" "FAULT")
              | Error m -> Printf.printf " %15s" m)
            variants;
          print_newline ())
    benches

(* --- cold vs warm relink through the link service --- *)

let relink_rows quick =
  List.filter_map
    (fun (b : Workloads.Programs.benchmark) ->
      Printf.eprintf "[bench] relink %-10s\r%!" b.name;
      match Server.Engine.relink_timings b.sources with
      | Ok r -> Some (b.name, r)
      | Error m ->
          Printf.eprintf "[bench] relink %s failed: %s\n%!" b.name m;
          None)
    (selected_benchmarks quick)

let print_relink quick =
  let rows = relink_rows quick in
  Printf.printf
    "Link-service build times: cold (empty store) vs warm relink after a\n\
     one-module edit (every unchanged module's compiled unit served from the\n\
     artifact store, the whole program lifted and optimized again):\n\n";
  Printf.printf "%-10s %10s %10s %8s\n" "program" "cold (ms)" "warm (ms)"
    "speedup";
  List.iter
    (fun (name, (r : Obs.Report.relink)) ->
      Printf.printf "%-10s %10.2f %10.2f %7.1fx\n" name (1e3 *. r.cold_s)
        (1e3 *. r.warm_s)
        (if r.warm_s > 0. then r.cold_s /. r.warm_s else 0.))
    rows

(* --- machine-readable report (the perf trajectory) --- *)

let report_path = "BENCH_report.json"

let write_report quick rows =
  let report = Reports.Runner.report ~tool:"omlt-bench" rows in
  Printf.eprintf "[bench] timing cold vs warm relinks...\n%!";
  let report = { report with Obs.Report.relinks = relink_rows quick } in
  Obs.Report.write report_path report;
  Printf.eprintf "[bench] wrote %s (schema v%d, %d results)\n%!" report_path
    Obs.Report.schema_version
    (List.length report.Obs.Report.results)

(* --- load: the concurrent link-service load test ---

   Spawns a hermetic daemon (in-memory store, its own registry) with the
   pool shape from -j, fires a seeded request mix at it from concurrent
   client threads, checks every reply byte-for-byte against a serial
   oracle, and merges the result into BENCH_report.json as its [load]
   record. Exits nonzero on any hard failure, mismatch, or (with
   --p99-max-ms) a latency-ceiling breach — the CI smoke for the
   concurrent daemon. *)

let run_load spec jobs queue_limit p99_max_ms no_report =
  Printf.eprintf "[bench] load: %s mix, %d requests, %d clients, -j %s\n%!"
    (Load.profile_name spec.Load.profile)
    spec.Load.requests spec.Load.clients
    (match jobs with Some n -> string_of_int n | None -> "auto");
  match Load.run_selfhosted ?workers:jobs ?queue_limit spec with
  | Error m ->
      Printf.eprintf "[bench] load failed: %s\n%!" m;
      exit 1
  | Ok r ->
      List.iter print_endline (Load.summary_lines r);
      List.iter (Printf.printf "  failure: %s\n") r.Load.failures;
      let l = r.Load.load in
      if not no_report then begin
        match Obs.Report.read report_path with
        | Ok report ->
            Obs.Report.write report_path { report with load = Some l };
            Printf.eprintf "[bench] merged load result into %s (schema v%d)\n%!"
              report_path Obs.Report.schema_version
        | Error _ ->
            Printf.eprintf
              "[bench] no parseable %s to merge into (run \"omlink bench \
               quick\" first)\n%!"
              report_path
      end;
      let p99_ms = float_of_int l.l_latency.q_p99_us /. 1000. in
      let bad = ref false in
      if l.l_ok <> l.l_requests then begin
        Printf.eprintf "[bench] load: only %d of %d requests succeeded\n%!"
          l.l_ok l.l_requests;
        bad := true
      end;
      if l.l_mismatched > 0 then begin
        Printf.eprintf "[bench] load: %d replies differ from the oracle!\n%!"
          l.l_mismatched;
        bad := true
      end;
      (match p99_max_ms with
      | Some ceiling when p99_ms > ceiling ->
          Printf.eprintf "[bench] load: p99 %.1f ms over the %.1f ms ceiling\n%!"
            p99_ms ceiling;
          bad := true
      | _ -> ());
      if !bad then exit 1

(* smoke check: does the written report parse back through the schema
   reader, and does it carry the v7 payload and every image's cycle
   attribution? (CI runs this after "quick" and "load".) *)
let check_report () =
  match Obs.Report.read report_path with
  | Ok r ->
      let every_run p =
        List.for_all
          (fun (b : Obs.Report.bench) -> List.for_all p b.Obs.Report.runs)
          r.Obs.Report.results
      in
      let timed = every_run (fun run -> run.Obs.Report.wall_s <> None) in
      let sized = every_run (fun run -> run.Obs.Report.size <> None) in
      (* the four categories, and not a cycle more or less than the run's *)
      let attributed =
        every_run (fun run ->
            match run.Obs.Report.attribution with
            | Some a ->
                List.sort compare (List.map fst a)
                = List.sort compare
                    (List.map Obs.Attr.category_name Obs.Attr.all_categories)
                && List.fold_left
                     (fun sum (_, (b : Obs.Report.bucket)) -> sum + b.cycles)
                     0 a
                   = run.Obs.Report.cycles
            | None -> false)
      in
      (* the pool's task-latency histogram, sampled, in the snapshot *)
      let pool_latency =
        let open Obs.Json in
        let sampled h =
          member "name" h = Some (String "omlt_pool_task_us")
          && Option.bind (member "count" h) get_int > Some 0
        in
        Option.bind r.Obs.Report.metrics (member "histograms")
        |> Fun.flip Option.bind get_list
        |> Option.fold ~none:false ~some:(List.exists sampled)
      in
      let has_metrics = r.Obs.Report.metrics <> None in
      let loaded =
        match r.Obs.Report.load with
        | Some l ->
            l.l_ok > 0 && l.l_mismatched = 0 && l.l_latency.q_count > 0
        | None -> false
      in
      Printf.printf
        "%s: OK (schema v%d, %d results, host times %s, pool latency %s, \
         metrics snapshot %s, image sizes %s, load result %s, cycle \
         attribution %s)\n"
        report_path Obs.Report.schema_version
        (List.length r.Obs.Report.results)
        (if timed then "present" else "MISSING")
        (if pool_latency then "present" else "MISSING")
        (if has_metrics then "present" else "MISSING")
        (if sized then "present" else "MISSING")
        (if loaded then "present" else "MISSING")
        (if attributed then "present" else "MISSING or unbalanced");
      if
        not
          (timed && pool_latency && has_metrics && sized && loaded && attributed)
      then exit 1
  | Error m ->
      Printf.eprintf "FAILED to parse %s\n" m;
      exit 1

(* --- compare: the baseline gate ---

   compare OLD.json NEW.json fails (exit 1) unless NEW reproduces OLD:
   every simulated and linked fact of every row and run equal, host
   fields aside (Obs.Compare), and, with --min-mips, every run of NEW
   simulated at least that fast. *)

let compare_reports old_path new_path min_mips =
  let read path =
    match Obs.Report.read path with
    | Ok r -> r
    | Error m ->
        prerr_endline m;
        exit 2
  in
  let old_r = read old_path and new_r = read new_path in
  match Obs.Compare.compare ?min_mips ~old_r ~new_r () with
  | [] -> Printf.printf "PASS: %s reproduces %s\n" new_path old_path
  | findings ->
      List.iter (Format.printf "%a@." Obs.Compare.pp_finding) findings;
      Printf.printf "FAIL: %d finding(s)\n" (List.length findings);
      exit 1

(* --- figures --- *)

let matrix_figures =
  [ ("fig3", Reports.Figures.fig3);
    ("fig4", Reports.Figures.fig4);
    ("fig5", Reports.Figures.fig5);
    ("fig6", Reports.Figures.fig6);
    ("gat", Reports.Figures.gat_table) ]

let print_figure f rows =
  f Format.std_formatter (Reports.Runner.results rows);
  Format.printf "@.@."

(* Fig 7 times the build paths; it needs no simulation *)
let print_fig7 quick =
  Reports.Figures.fig7 Format.std_formatter (timings quick);
  Format.printf "@.@."

let print_figures quick rows =
  List.iter (fun (_, f) -> print_figure f rows) matrix_figures;
  print_fig7 quick;
  print_figure Reports.Figures.summary rows

(* --- the command line --- *)

let mode name ~doc term = Cmd.v (Cmd.info name ~doc) term

(* As in [omlink suite], a failed row or one whose outputs disagree
   fails the run, once the report (without the failed rows) is written;
   [build_matrix] has already named each such row. *)
let exit_on_bad_rows (rows : rows) =
  if
    List.exists
      (function
        | _, _, Ok (b : Obs.Report.bench) -> not b.outputs_agree
        | _, _, Error _ -> true)
      rows
  then exit 1

let quick jobs =
  let rows = build_matrix ?jobs true in
  print_figures true rows;
  write_report true rows;
  exit_on_bad_rows rows

let everything jobs =
  let rows = build_matrix ?jobs false in
  print_figures false rows;
  write_report false rows;
  exit_on_bad_rows rows;
  ablation ()

let compare_term =
  let report n docv =
    Arg.(required & pos n (some string) None & info [] ~docv)
  in
  let min_mips =
    Arg.(value & opt (some float) None
         & info [ "min-mips" ] ~docv:"X"
             ~doc:"Fail when any image simulates below $(docv) MIPS.")
  in
  Term.(const compare_reports $ report 0 "OLD" $ report 1 "NEW" $ min_mips)

let load_term =
  let p99_max_ms =
    let positive_float =
      let parse s =
        match float_of_string_opt s with
        | Some x when x > 0. -> Ok x
        | _ -> Error (`Msg (Printf.sprintf "expected a number > 0, got %S" s))
      in
      Arg.conv (parse, Format.pp_print_float)
    in
    Arg.(value & opt (some positive_float) None
         & info [ "p99-max-ms" ] ~docv:"MS"
             ~doc:"Fail when the p99 round trip exceeds $(docv).")
  in
  let no_report =
    Arg.(value & flag
         & info [ "no-report" ]
             ~doc:"Do not merge the result into BENCH_report.json.")
  in
  Term.(const run_load $ Cli.load_spec $ Cli.jobs $ Cli.queue_limit
        $ p99_max_ms $ no_report)

let cmd =
  let figure (name, f) =
    mode name ~doc:("Print " ^ name ^ " from the full matrix.")
      Term.(const (fun jobs -> print_figure f (build_matrix ?jobs false))
            $ Cli.jobs)
  in
  Cmd.group
    ~default:Term.(const everything $ Cli.jobs)
    (Cmd.info "bench"
       ~doc:
         "The benchmark harness: the paper's figures, BENCH_report.json, \
          and the perf gates. With no mode: every figure of the full \
          matrix, the report and the ablation.")
    (List.map figure
       (matrix_figures @ [ ("summary", Reports.Figures.summary) ])
    @ [ mode "fig7" ~doc:"Print Fig 7's build times (no simulation)."
          Term.(const print_fig7 $ const false);
        mode "quick"
          ~doc:"Every figure from a 5-benchmark subset; writes \
                BENCH_report.json."
          Term.(const quick $ Cli.jobs);
        mode "fuzz" ~doc:"Differential-fuzzer throughput (cases/s)."
          Term.(const fuzz_throughput $ Cli.jobs);
        mode "ablation"
          ~doc:"OM-full's improvement with one transformation disabled."
          Term.(const ablation $ const ());
        mode "relink" ~doc:"Cold vs warm link-service relink times."
          Term.(const print_relink $ const true);
        mode "load"
          ~doc:"Load-test a hermetic daemon and merge the result into \
                BENCH_report.json."
          load_term;
        mode "check-report"
          ~doc:"Check that BENCH_report.json parses and is complete."
          Term.(const check_report $ const ());
        mode "compare"
          ~doc:"The baseline gate: exit 1 unless NEW reproduces every \
                simulated fact of OLD, 2 when a report is unreadable."
          compare_term ])
