type progress = {
  on_start : Workloads.Programs.benchmark -> Workloads.Suite.build -> unit;
  on_done :
    Workloads.Programs.benchmark ->
    Workloads.Suite.build ->
    (Measure.result, string) Stdlib.result ->
    unit;
}

let silent = { on_start = (fun _ _ -> ()); on_done = (fun _ _ _ -> ()) }

let tasks benches =
  List.concat_map
    (fun b ->
      List.map (fun build -> (b, build)) Workloads.Suite.all_builds)
    benches

(* Anything lazily initialized that every worker touches must be forced
   before the first [Domain.spawn]; [Runtime.libstd] is the one such
   value (a toplevel [lazy]). *)
let warm_up () = ignore (Runtime.libstd ())

let matrix ?jobs ?(progress = silent) benches =
  warm_up ();
  let lock = Mutex.create () in
  let measure (b, build) =
    Mutex.protect lock (fun () -> progress.on_start b build);
    (* An exception escaping a task would poison the whole pool
       ([Pool.Worker_failed] abandons the remaining queue); convert it to
       this row's error so one bad build fails one row. *)
    let r =
      try Measure.run_benchmark build b with
      | Minic.Driver.Error m -> Error (Printf.sprintf "compile: %s" m)
      | Failure m -> Error m
      | e -> Error (Printexc.to_string e)
    in
    Mutex.protect lock (fun () -> progress.on_done b build r);
    (b, build, r)
  in
  Pool.map ?jobs measure (tasks benches)

let results rows =
  List.filter_map (fun (_, _, r) -> Result.to_option r) rows

let bench_of_result (r : Measure.result) =
  let host ~wall_s ~mips = Some { Obs.Report.wall_s; mips } in
  { Obs.Report.bench = r.Measure.bench;
    build = Workloads.Suite.build_name r.Measure.build;
    std_cycles = r.Measure.std_cycles;
    std_insns = r.Measure.std_insns;
    std_attribution = Some r.Measure.std_attribution;
    std_fault = None;
    outputs_agree = r.Measure.outputs_agree;
    runs =
      List.map
        (fun (run : Measure.run) ->
          { Obs.Report.level = Om.level_name run.Measure.level;
            cycles = run.Measure.cycles;
            insns = run.Measure.insns;
            improvement_pct = Measure.improvement r run.Measure.level;
            counters = Om.Stats.to_alist run.Measure.stats;
            attribution = Some run.Measure.attribution;
            fault = None;
            host = host ~wall_s:run.Measure.wall_s ~mips:run.Measure.mips;
            size = Some run.Measure.size })
        r.Measure.runs;
    std_host = host ~wall_s:r.Measure.std_wall_s ~mips:r.Measure.std_mips;
    relink = None;
    std_size = Some r.Measure.std_size }

let report ?tool rows =
  (* v4 payload: pool task-latency quantiles for the whole matrix plus a
     full registry snapshot, both read from the default registry the
     pool/measure instrumentation feeds. *)
  let latency =
    match Obs.Metrics.find_histogram "omlt_pool_task_us" with
    | Some h when (Obs.Metrics.summary h).Obs.Metrics.count > 0 ->
        let s = Obs.Metrics.summary h in
        Some
          { Obs.Report.q_count = s.Obs.Metrics.count;
            q_p50_us = s.Obs.Metrics.p50;
            q_p95_us = s.Obs.Metrics.p95;
            q_p99_us = s.Obs.Metrics.p99;
            q_max_us = s.Obs.Metrics.max }
    | _ -> None
  in
  let metrics = Obs.Metrics.to_json Obs.Metrics.default in
  Obs.Report.make ?tool ?latency ~metrics
    (List.map bench_of_result (results rows))
