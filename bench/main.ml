(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (§5), and carries one Bechamel micro-benchmark per
   exhibit measuring the machinery that produces it.

   Usage:
     bench/main.exe            regenerate all figures (the full matrix)
     bench/main.exe fig3       one figure: fig3 fig4 fig5 fig6 fig7 gat
     bench/main.exe summary    headline numbers vs. the paper
     bench/main.exe micro      run the Bechamel micro-benchmarks only
     bench/main.exe batch      full simulation matrix in parallel; MIPS +
                               block-cache summary, nonzero exit on failure
     bench/main.exe fuzz       differential-fuzzer throughput (cases/sec)
     bench/main.exe relink     cold vs warm link-service relink times
     bench/main.exe load       concurrent daemon load test (see --profile);
                               merges the result into BENCH_report.json
     bench/main.exe quick      figures from a 5-benchmark subset
     bench/main.exe check-report   validate BENCH_report.json parses
     bench/main.exe compare OLD NEW   perf-regression gate between reports

   A trailing "-j N" caps the measurement pool at N domains (default:
   the host's recommended count; OMLT_JOBS also overrides). Parallel
   runs produce bit-identical matrices — only wall clock changes.

   "quick" and "all" also write BENCH_report.json — the schema-versioned
   machine-readable form of the matrix (per-benchmark, per-level cycles,
   cycle-attribution buckets and host throughput; see Obs.Report). *)

let quick_subset = [ "alvinn"; "compress"; "li"; "tomcatv"; "spice" ]

let selected_benchmarks quick =
  if quick then
    List.filter_map Workloads.Programs.find quick_subset
  else Workloads.Programs.all

(* --- the measurement matrix --- *)

let jobs : int option ref = ref None

type rows =
  (Workloads.Programs.benchmark
  * Workloads.Suite.build
  * (Reports.Measure.result, string) result)
  list

let build_matrix quick : rows =
  let progress =
    { Reports.Runner.on_start =
        (fun b build ->
          Printf.eprintf "[bench] measuring %-10s %-12s\n%!" b.name
            (Workloads.Suite.build_name build));
      on_done =
        (fun b build r ->
          match r with
          | Ok r ->
              if not r.Reports.Measure.outputs_agree then
                Printf.eprintf "[bench] WARNING: %s/%s outputs disagree!\n%!"
                  b.name
                  (Workloads.Suite.build_name build)
          | Error m ->
              Printf.eprintf "[bench] %s/%s failed: %s\n%!" b.name
                (Workloads.Suite.build_name build) m) }
  in
  Reports.Runner.matrix ?jobs:!jobs ~progress (selected_benchmarks quick)

let matrix_cache : rows option ref = ref None

let rows quick =
  match !matrix_cache with
  | Some m -> m
  | None ->
      let m = build_matrix quick in
      matrix_cache := Some m;
      m

let matrix quick : Reports.Figures.matrix = Reports.Runner.results (rows quick)

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

(* --- Bechamel micro-benchmarks: one per table/figure --- *)

let micro () =
  let open Bechamel in
  let li = Option.get (Workloads.Programs.find "li") in
  let world = world_of_exn Workloads.Suite.Compile_each li in
  let om level () =
    match Om.optimize_resolved level world with
    | Ok _ -> ()
    | Error m -> failwith m
  in
  let std_image =
    match Linker.Link.link_resolved world with
    | Ok i -> i
    | Error m -> failwith m
  in
  let tests =
    [ (* Figures 3-5 are produced by the static transformation passes *)
      Test.make ~name:"fig3/om-simple-pass" (Staged.stage (om Om.Simple));
      Test.make ~name:"fig4/om-full-pass" (Staged.stage (om Om.Full));
      Test.make ~name:"fig5/om-full-sched-pass" (Staged.stage (om Om.Full_sched));
      Test.make ~name:"gc/om-gc-pass" (Staged.stage (om Om.Gc));
      (* Figure 6 requires simulating the linked program: the fused
         superinstruction path (what the harness runs), the same path
         filling a per-instruction profile (what attribution runs), and
         the symbolic reference *)
      Test.make ~name:"fig6/simulate-li-fused"
        (Staged.stage
           (let d =
              match Machine.Cpu.decode std_image with
              | Ok d -> d
              | Error _ -> failwith "decode"
            in
            let blocks = Machine.Blocks.create d in
            fun () ->
              match Machine.Cpu.run_decoded ~blocks d with
              | Ok _ -> ()
              | Error _ -> failwith "fault"));
      Test.make ~name:"fig6/simulate-li-profiled"
        (Staged.stage
           (let d =
              match Machine.Cpu.decode std_image with
              | Ok d -> d
              | Error _ -> failwith "decode"
            in
            let blocks = Machine.Blocks.create d in
            fun () ->
              let profile = Machine.Blocks.profile d in
              match Machine.Cpu.run_decoded ~blocks ~profile d with
              | Ok _ -> ()
              | Error _ -> failwith "fault"));
      Test.make ~name:"fig6/simulate-li-reference"
        (Staged.stage (fun () ->
             match Machine.Cpu.run_reference std_image with
             | Ok _ -> ()
             | Error _ -> failwith "fault"));
      (* Figure 7's columns: the competing build paths *)
      Test.make ~name:"fig7/standard-link"
        (Staged.stage (fun () ->
             match Linker.Link.link_resolved world with
             | Ok _ -> ()
             | Error m -> failwith m));
      Test.make ~name:"fig7/om-noopt" (Staged.stage (om Om.No_opt));
      (* the GAT table comes from the same full pass over a merged build *)
      Test.make ~name:"gat/om-full-compile-all"
        (Staged.stage
           (let w = world_of_exn Workloads.Suite.Compile_all li in
            fun () ->
              match Om.optimize_resolved Om.Full w with
              | Ok _ -> ()
              | Error m -> failwith m)) ]
  in
  let grouped = Test.make_grouped ~name:"omlt" tests in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Printf.printf "Bechamel micro-benchmarks (monotonic clock, ns/run):\n";
  Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
  |> List.sort compare
  |> List.iter (fun (name, ols) ->
         match Analyze.OLS.estimates ols with
         | Some [ est ] -> Printf.printf "  %-32s %12.0f ns\n" name est
         | _ -> Printf.printf "  %-32s (no estimate)\n" name);
  (* host throughput of the two interpreters on the same image, and of
     the fused one filling a profile *)
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let insns_of = function
    | Ok (o : Machine.Cpu.outcome) -> o.Machine.Cpu.stats.Machine.Cpu.insns
    | Error _ -> 0
  in
  let mips insns t = if t > 0. then float_of_int insns /. t /. 1e6 else 0. in
  let d =
    match Machine.Cpu.decode std_image with
    | Ok d -> d
    | Error _ -> failwith "decode"
  in
  let blocks = Machine.Blocks.create d in
  ignore (Machine.Cpu.run_decoded ~blocks d) (* warm the executor cache *);
  let r_fused, t_fused =
    time (fun () -> Machine.Cpu.run_decoded ~blocks d)
  in
  let r_prof, t_prof =
    time (fun () ->
        Machine.Cpu.run_decoded ~blocks ~profile:(Machine.Blocks.profile d) d)
  in
  let r_ref, t_ref = time (fun () -> Machine.Cpu.run_reference std_image) in
  Printf.printf "\nHost throughput (li, standard image, simulated MIPS):\n";
  Printf.printf "  %-22s %8.2f MIPS  (%.3f s wall)\n" "fused (superinsn)"
    (mips (insns_of r_fused) t_fused) t_fused;
  Printf.printf "  %-22s %8.2f MIPS  (%.3f s wall)\n" "fused + profile"
    (mips (insns_of r_prof) t_prof) t_prof;
  Printf.printf "  %-22s %8.2f MIPS  (%.3f s wall)\n" "reference interpreter"
    (mips (insns_of r_ref) t_ref) t_ref;
  if t_fused > 0. then begin
    Printf.printf "  fused vs profiled:   %8.2fx\n" (t_prof /. t_fused);
    Printf.printf "  fused vs reference:  %8.2fx\n" (t_ref /. t_fused)
  end

(* --- batch: the full simulation matrix as a parallel throughput suite ---

   Every benchmark x build x level simulation, spread over the
   measurement pool, with one fused-executor cache per distinct image
   (shared across domains through [Reports.Measure.decode_cached]).
   Prints per-row and aggregate simulated MIPS plus the block-cache
   counters, and exits nonzero on any row failure or output
   disagreement — the CI smoke for the fused path under parallelism. *)

let batch () =
  let t0 = Unix.gettimeofday () in
  let rows = build_matrix false in
  let wall = Unix.gettimeofday () -. t0 in
  let failures = ref 0 and disagreements = ref 0 in
  let total_insns = ref 0 and total_sim_s = ref 0. and nruns = ref 0 in
  Printf.printf "%-10s %-12s %5s %10s %9s %6s\n" "program" "build" "runs"
    "Minsns" "MIPS" "agree";
  List.iter
    (fun ((b : Workloads.Programs.benchmark), build, r) ->
      match r with
      | Error m ->
          incr failures;
          Printf.printf "%-10s %-12s FAILED: %s\n" b.name
            (Workloads.Suite.build_name build) m
      | Ok (r : Reports.Measure.result) ->
          let walls =
            r.Reports.Measure.std_wall_s
            :: List.map
                 (fun (run : Reports.Measure.run) -> run.Reports.Measure.wall_s)
                 r.Reports.Measure.runs
          in
          let insns =
            r.Reports.Measure.std_insns
            + List.fold_left
                (fun a (run : Reports.Measure.run) ->
                  a + run.Reports.Measure.insns)
                0 r.Reports.Measure.runs
          in
          let sim_s = List.fold_left ( +. ) 0. walls in
          let mips =
            if sim_s > 0. then float_of_int insns /. sim_s /. 1e6 else 0.
          in
          if not r.Reports.Measure.outputs_agree then incr disagreements;
          total_insns := !total_insns + insns;
          total_sim_s := !total_sim_s +. sim_s;
          nruns := !nruns + List.length walls;
          Printf.printf "%-10s %-12s %5d %10.1f %9.1f %6s\n"
            r.Reports.Measure.bench
            (Workloads.Suite.build_name build)
            (List.length walls)
            (float_of_int insns /. 1e6)
            mips
            (if r.Reports.Measure.outputs_agree then "yes" else "NO"))
    rows;
  let agg =
    if !total_sim_s > 0. then float_of_int !total_insns /. !total_sim_s /. 1e6
    else 0.
  in
  Printf.printf
    "\n%d simulations, %.1f Minsns, %.1f s simulating (%.1f s wall): %.1f \
     MIPS aggregate\n"
    !nruns
    (float_of_int !total_insns /. 1e6)
    !total_sim_s wall agg;
  let c = Machine.Blocks.counters () in
  Printf.printf "block cache: %d hits, %d misses, %d executors fused\n"
    c.Machine.Blocks.hits c.Machine.Blocks.misses c.Machine.Blocks.built;
  if !failures > 0 || !disagreements > 0 then begin
    Printf.eprintf "[bench] batch: %d failure(s), %d output disagreement(s)\n%!"
      !failures !disagreements;
    exit 1
  end

(* --- fuzz throughput: how fast the differential fuzzer burns cases --- *)

let fuzz_throughput () =
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
  let r = Fuzz.campaign ?jobs:!jobs ~out_dir:None ~seed ~count () in
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
          let std = Result.get_ok (Linker.Link.link_resolved world) in
          let base =
            match Machine.Cpu.run std with
            | Ok o -> o.Machine.Cpu.stats.Machine.Cpu.cycles
            | Error _ -> failwith "baseline fault"
          in
          let std_out =
            match Machine.Cpu.run std with
            | Ok o -> o.Machine.Cpu.output
            | Error _ -> ""
          in
          Printf.printf "%-10s" name;
          List.iter
            (fun (_, opts) ->
              match Om.optimize_resolved ~transform_options:opts Om.Full world with
              | Ok { Om.image; _ } -> (
                  match Machine.Cpu.run image with
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

(* --- cold vs warm relink through the link service (schema v3) --- *)

let relink_rows quick =
  List.filter_map
    (fun (b : Workloads.Programs.benchmark) ->
      Printf.eprintf "[bench] relink %-10s\r%!" b.name;
      match Server.Engine.relink_timings b with
      | Ok r -> Some (b.name, r)
      | Error m ->
          Printf.eprintf "[bench] relink %s failed: %s\n%!" b.name m;
          None)
    (selected_benchmarks quick)

let print_relink quick =
  let rows = relink_rows quick in
  Printf.printf
    "Link-service build times: cold (empty store) vs warm relink after a\n\
     one-module edit (every unchanged lift served from the artifact store):\n\n";
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

let write_report quick =
  let rows = rows quick in
  Printf.eprintf "[bench] profiling for cycle attribution...\n%!";
  let report =
    Reports.Runner.report ?jobs:!jobs ~attribution:true ~tool:"omlt-bench" rows
  in
  Printf.eprintf "[bench] timing cold vs warm relinks...\n%!";
  let relinks = relink_rows quick in
  let report =
    { report with
      Obs.Report.results =
        List.map
          (fun (b : Obs.Report.bench) ->
            match List.assoc_opt b.Obs.Report.bench relinks with
            | Some r -> { b with Obs.Report.relink = Some r }
            | None -> b)
          report.Obs.Report.results }
  in
  Obs.Report.write report_path report;
  Printf.eprintf "[bench] wrote %s (schema v%d, %d results)\n%!" report_path
    report.Obs.Report.version
    (List.length report.Obs.Report.results)

(* --- load: the concurrent link-service load test (schema v6) ---

   Spawns a hermetic daemon (in-memory store, its own registry) with the
   pool shape from -j, fires a seeded request mix at it from concurrent
   client threads, checks every reply byte-for-byte against a serial
   oracle, and merges the result into BENCH_report.json as the v6 [load]
   record. Exits nonzero on any hard failure, mismatch, or (with
   --p99-max-ms) a latency-ceiling breach — the CI smoke for the
   concurrent daemon. *)

let load_usage () =
  Printf.eprintf
    "usage: bench load [--profile cold|dup|mixed] [--clients N]\n\
    \        [--requests N] [--queue-limit N] [--seed N] [--retries N]\n\
    \        [--level L] [--p99-max-ms X] [--no-report] [-j N]\n";
  exit 2

let run_load args =
  let spec = ref { Load.default_spec with requests = 48; retries = 4 } in
  let queue_limit = ref None in
  let p99_max_ms = ref None in
  let write_report = ref true in
  let rec parse = function
    | [] -> ()
    | "--profile" :: v :: rest -> (
        match Load.profile_of_string v with
        | Ok p ->
            spec := { !spec with Load.profile = p };
            parse rest
        | Error m ->
            Printf.eprintf "%s\n" m;
            load_usage ())
    | "--clients" :: v :: rest -> (
        match int_of_string_opt v with
        | Some n when n >= 1 ->
            spec := { !spec with Load.clients = n };
            parse rest
        | _ -> load_usage ())
    | "--requests" :: v :: rest -> (
        match int_of_string_opt v with
        | Some n when n >= 1 ->
            spec := { !spec with Load.requests = n };
            parse rest
        | _ -> load_usage ())
    | "--queue-limit" :: v :: rest -> (
        match int_of_string_opt v with
        | Some n when n >= 1 ->
            queue_limit := Some n;
            parse rest
        | _ -> load_usage ())
    | "--seed" :: v :: rest -> (
        match int_of_string_opt v with
        | Some n ->
            spec := { !spec with Load.seed = n };
            parse rest
        | _ -> load_usage ())
    | "--retries" :: v :: rest -> (
        match int_of_string_opt v with
        | Some n when n >= 0 ->
            spec := { !spec with Load.retries = n };
            parse rest
        | _ -> load_usage ())
    | "--level" :: v :: rest ->
        spec := { !spec with Load.level = v };
        parse rest
    | "--p99-max-ms" :: v :: rest -> (
        match float_of_string_opt v with
        | Some x when x > 0. ->
            p99_max_ms := Some x;
            parse rest
        | _ -> load_usage ())
    | "--no-report" :: rest ->
        write_report := false;
        parse rest
    | _ -> load_usage ()
  in
  parse args;
  let spec = !spec in
  Printf.eprintf "[bench] load: %s mix, %d requests, %d clients, -j %s\n%!"
    (Load.profile_name spec.Load.profile)
    spec.Load.requests spec.Load.clients
    (match !jobs with Some n -> string_of_int n | None -> "auto");
  match Load.run_selfhosted ?workers:!jobs ?queue_limit:!queue_limit spec with
  | Error m ->
      Printf.eprintf "[bench] load failed: %s\n%!" m;
      exit 1
  | Ok r ->
      List.iter print_endline (Load.summary_lines r);
      List.iter (Printf.printf "  failure: %s\n") r.Load.r_failures;
      if !write_report then begin
        (match Obs.Report.read report_path with
        | Ok report ->
            Obs.Report.write report_path
              { report with
                Obs.Report.version = Obs.Report.schema_version;
                load = Some (Load.to_report_load r) };
            Printf.eprintf "[bench] merged load result into %s (schema v%d)\n%!"
              report_path Obs.Report.schema_version
        | Error _ ->
            Printf.eprintf
              "[bench] no parseable %s to merge into (run \"bench quick\" \
               first)\n%!"
              report_path)
      end;
      let p99_ms = float_of_int (Load.quantile_us r 0.99) /. 1000. in
      let bad = ref false in
      if r.Load.r_ok <> r.Load.r_requests then begin
        Printf.eprintf "[bench] load: only %d of %d requests succeeded\n%!"
          r.Load.r_ok r.Load.r_requests;
        bad := true
      end;
      if r.Load.r_mismatched > 0 then begin
        Printf.eprintf "[bench] load: %d replies differ from the oracle!\n%!"
          r.Load.r_mismatched;
        bad := true
      end;
      (match !p99_max_ms with
      | Some ceiling when p99_ms > ceiling ->
          Printf.eprintf "[bench] load: p99 %.1f ms over the %.1f ms ceiling\n%!"
            p99_ms ceiling;
          bad := true
      | _ -> ());
      if !bad then exit 1

(* smoke check: does the written report parse back through the schema
   reader, and does it carry the v6 payload? (CI runs this after
   "quick" and "load".) *)
let check_report () =
  match Obs.Report.read report_path with
  | Ok r ->
      let hosted =
        List.for_all
          (fun (b : Obs.Report.bench) ->
            b.Obs.Report.std_host <> None
            && List.for_all
                 (fun (run : Obs.Report.run) -> run.Obs.Report.host <> None)
                 b.Obs.Report.runs)
          r.Obs.Report.results
      in
      let sized =
        List.for_all
          (fun (b : Obs.Report.bench) ->
            b.Obs.Report.std_size <> None
            && List.for_all
                 (fun (run : Obs.Report.run) -> run.Obs.Report.size <> None)
                 b.Obs.Report.runs)
          r.Obs.Report.results
      in
      let quantiled =
        match r.Obs.Report.latency with
        | Some q -> q.Obs.Report.q_count > 0
        | None -> false
      in
      let has_metrics = r.Obs.Report.metrics <> None in
      let loaded =
        match r.Obs.Report.load with
        | Some l ->
            l.Obs.Report.l_ok > 0 && l.Obs.Report.l_mismatched = 0
            && l.Obs.Report.l_latency.Obs.Report.q_count > 0
        | None -> false
      in
      Printf.printf
        "%s: OK (schema v%d, %d results, host throughput %s, latency \
         quantiles %s, metrics snapshot %s, image sizes %s, load result %s)\n"
        report_path r.Obs.Report.version
        (List.length r.Obs.Report.results)
        (if hosted then "present" else "MISSING")
        (if quantiled then "present" else "MISSING")
        (if has_metrics then "present" else "MISSING")
        (if sized then "present" else "MISSING")
        (if loaded then "present" else "MISSING");
      if r.Obs.Report.version < 6 then begin
        Printf.eprintf "%s: expected schema v6, found v%d\n" report_path
          r.Obs.Report.version;
        exit 1
      end;
      if not (hosted && quantiled && has_metrics && sized && loaded) then
        exit 1
  | Error m ->
      Printf.eprintf "%s: FAILED to parse: %s\n" report_path m;
      exit 1

(* --- compare: the perf-regression gate ---

   compare OLD.json NEW.json fails (exit 1) when NEW regresses past the
   thresholds: simulated cycles and om improvement gate by default;
   host-dependent MIPS/relink timings gate only when their flags are
   given. *)

let compare_usage () =
  Printf.eprintf
    "usage: bench compare OLD.json NEW.json [--max-cycle-pct X]\n\
    \        [--max-improvement-pts X] [--max-mips-pct X] [--min-mips X]\n\
    \        [--max-relink-pct X] [--max-size-pct X]\n";
  exit 2

let compare_reports args =
  let rec parse (t : Obs.Compare.thresholds) = function
    | [] -> t
    | "--max-cycle-pct" :: v :: rest -> (
        match float_of_string_opt v with
        | Some x -> parse { t with Obs.Compare.max_cycle_regress_pct = x } rest
        | None -> compare_usage ())
    | "--max-improvement-pts" :: v :: rest -> (
        match float_of_string_opt v with
        | Some x ->
            parse { t with Obs.Compare.max_improvement_drop_pts = x } rest
        | None -> compare_usage ())
    | "--max-mips-pct" :: v :: rest -> (
        match float_of_string_opt v with
        | Some x -> parse { t with Obs.Compare.max_mips_drop_pct = Some x } rest
        | None -> compare_usage ())
    | "--min-mips" :: v :: rest -> (
        match float_of_string_opt v with
        | Some x -> parse { t with Obs.Compare.min_mips = Some x } rest
        | None -> compare_usage ())
    | "--max-relink-pct" :: v :: rest -> (
        match float_of_string_opt v with
        | Some x ->
            parse { t with Obs.Compare.max_relink_regress_pct = Some x } rest
        | None -> compare_usage ())
    | "--max-size-pct" :: v :: rest -> (
        match float_of_string_opt v with
        | Some x -> parse { t with Obs.Compare.max_size_regress_pct = x } rest
        | None -> compare_usage ())
    | _ -> compare_usage ()
  in
  match args with
  | old_path :: new_path :: rest -> (
      let thresholds = parse Obs.Compare.default_thresholds rest in
      let read path =
        match Obs.Report.read path with
        | Ok r -> r
        | Error m ->
            Printf.eprintf "%s: %s\n" path m;
            exit 2
      in
      let old_r = read old_path and new_r = read new_path in
      let outcome = Obs.Compare.compare ~thresholds ~old_r ~new_r () in
      Format.printf "%a@." Obs.Compare.pp_outcome outcome;
      if Obs.Compare.ok outcome then
        Printf.printf "PASS: no threshold-exceeding regressions\n"
      else begin
        Printf.printf "FAIL: %d regression(s) past thresholds\n"
          (List.length outcome.Obs.Compare.regressions);
        exit 1
      end)
  | _ -> compare_usage ()

(* --- driver --- *)

let print_figures quick which =
  let ppf = Format.std_formatter in
  let m = lazy (matrix quick) in
  let show name f =
    if which = "all" || which = name then begin
      f ppf (Lazy.force m);
      Format.fprintf ppf "@.@."
    end
  in
  show "fig3" Reports.Figures.fig3;
  show "fig4" Reports.Figures.fig4;
  show "fig5" Reports.Figures.fig5;
  show "fig6" Reports.Figures.fig6;
  show "gat" Reports.Figures.gat_table;
  if which = "all" || which = "fig7" then begin
    Reports.Figures.fig7 ppf (timings quick);
    Format.fprintf ppf "@.@."
  end;
  show "summary" Reports.Figures.summary

(* strip "-j N" (or "-jN") anywhere in argv; whatever remains is the
   command word *)
let parse_args () =
  let rec go acc = function
    | [] -> List.rev acc
    | "-j" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n >= 1 ->
            jobs := Some n;
            go acc rest
        | _ ->
            Printf.eprintf "bad -j argument %S (expected a positive int)\n" n;
            exit 2)
    | a :: rest when String.length a > 2 && String.sub a 0 2 = "-j" -> (
        match int_of_string_opt (String.sub a 2 (String.length a - 2)) with
        | Some n when n >= 1 ->
            jobs := Some n;
            go acc rest
        | _ ->
            Printf.eprintf "bad argument %S\n" a;
            exit 2)
    | a :: rest -> go (a :: acc) rest
  in
  go [] (List.tl (Array.to_list Sys.argv))

let () =
  let args = parse_args () in
  let cmd = match args with [] -> "all" | c :: _ -> c in
  match cmd with
  | "compare" -> compare_reports (List.tl args)
  | "load" -> run_load (List.tl args)
  | "batch" -> batch ()
  | "micro" -> micro ()
  | "fuzz" -> fuzz_throughput ()
  | "ablation" -> ablation ()
  | "relink" -> print_relink true
  | "check-report" -> check_report ()
  | "quick" ->
      print_figures true "all";
      write_report true
  | ("fig3" | "fig4" | "fig5" | "fig6" | "fig7" | "gat" | "summary") as w ->
      print_figures false w
  | "all" ->
      print_figures false "all";
      write_report false;
      ablation ();
      print_newline ();
      micro ()
  | other ->
      Printf.eprintf
        "unknown argument %s (expected fig3..fig7, gat, summary, quick, batch, \
         micro, fuzz, ablation, relink, load, check-report, compare, all)\n"
        other;
      exit 2
