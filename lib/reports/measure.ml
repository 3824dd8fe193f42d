let sim_mips_gauge =
  lazy
    (Obs.Metrics.gauge ~help:"Simulated MIPS of the most recent simulation"
       "omlt_sim_mips")

let sim_insns_counter =
  lazy
    (Obs.Metrics.counter ~help:"Instructions simulated" "omlt_sim_insns_total")

let sim_runs_counter =
  lazy (Obs.Metrics.counter ~help:"Simulations run" "omlt_sim_runs_total")

(* Fused-path observability: the process-wide totals live in [Machine]
   (atomics updated by [Blocks.run]); mirror them into the registry after
   every simulation so report snapshots and the daemon's exposition carry
   them. *)
let blocks_hits_counter =
  lazy
    (Obs.Metrics.counter
       ~help:"Block dispatches served by an already-fused executor"
       "omlt_blocks_cache_hits_total")

let blocks_misses_counter =
  lazy
    (Obs.Metrics.counter
       ~help:"Block dispatches that had to fuse an executor"
       "omlt_blocks_cache_misses_total")

let blocks_built_counter =
  lazy
    (Obs.Metrics.counter ~help:"Block superinstruction executors fused"
       "omlt_blocks_built_total")

let note_simulation ~insns ~mips =
  Obs.Metrics.set_gauge (Lazy.force sim_mips_gauge) mips;
  Obs.Metrics.incr ~by:insns (Lazy.force sim_insns_counter);
  Obs.Metrics.incr (Lazy.force sim_runs_counter);
  let c = Machine.Blocks.counters () in
  Obs.Metrics.set_counter (Lazy.force blocks_hits_counter)
    c.Machine.Blocks.hits;
  Obs.Metrics.set_counter (Lazy.force blocks_misses_counter)
    c.Machine.Blocks.misses;
  Obs.Metrics.set_counter (Lazy.force blocks_built_counter)
    c.Machine.Blocks.built

(* A run with no numbers: a level whose OM link failed reports it with
   its fault, and every measured run fills it in. *)
let empty_run level =
  { Obs.Report.level;
    cycles = 0;
    insns = 0;
    counters = [];
    attribution = None;
    fault = None;
    wall_s = None;
    size = None }

(* [run] filled from the image's one simulation, and the program's
   output. Every image in the matrix is distinct, so each is fused
   afresh and dropped with its run. An OM image comes decoded from its
   link; the standard image's decode can fail, a fault of its row. A
   fault leaves the counts at 0, with no attribution and no host time. *)
let measure_image run image decoded =
  let run =
    { run with Obs.Report.size = Some (Obs.Report.size_of_image image) }
  in
  let fault e =
    ( { run with
        fault =
          Some (Format.asprintf "simulation fault: %a" Machine.Cpu.pp_error e) },
      None )
  in
  match decoded with
  | Error e -> fault e
  | Ok d -> (
      let t0 = Unix.gettimeofday () in
      match Obs.Attr.run_decoded d with
      | Error e -> fault e
      | Ok p ->
          let wall_s = Unix.gettimeofday () -. t0 in
          let run =
            { run with
              cycles = p.cpu.Machine.Cpu.cycles;
              insns = p.cpu.Machine.Cpu.insns;
              attribution = Some (Obs.Report.attribution_of_profile p);
              wall_s = Some wall_s }
          in
          note_simulation ~insns:run.insns
            ~mips:(Option.value (Obs.Report.mips run) ~default:0.);
          (run, Some p.output))

let run_world ~bench ~build world =
  let ( let* ) = Result.bind in
  let* std_image = Linker.Link.link_resolved world in
  let std, std_output =
    measure_image
      (empty_run Obs.Report.standard_level)
      std_image
      (Machine.Cpu.decode std_image)
  in
  let measure level =
    let run = empty_run (Om.level_name level) in
    match Om.optimize_resolved level world with
    | Error m -> ({ run with fault = Some m }, None)
    | Ok { Om.image; stats; decoded } ->
        measure_image
          { run with counters = Om.Stats.to_alist stats }
          image (Ok decoded)
  in
  let levels = List.map measure Om.all_levels in
  Ok
    { Obs.Report.bench;
      build;
      outputs_agree =
        std_output <> None
        && List.for_all (fun (_, out) -> out = std_output) levels;
      runs = std :: List.map fst levels }

let run_benchmark build (b : Workloads.Programs.benchmark) =
  Result.bind (Workloads.Suite.resolve build b)
    (run_world ~bench:b.name ~build:(Workloads.Suite.build_name build))

let failure (row : Obs.Report.bench) =
  List.find_map (fun (r : Obs.Report.run) -> r.fault) row.runs

let find_run row level = Obs.Report.find_run row (Om.level_name level)

let improvement row level =
  Option.fold ~none:0. ~some:(Obs.Report.improvement row) (find_run row level)

let stats_of row level =
  Option.map
    (fun (r : Obs.Report.run) -> Om.Stats.of_alist r.counters)
    (find_run row level)

(* One [t_om] entry per level in [Om.all_levels], in that order — a new
   level gets timed (and plotted by fig7) without touching this record. *)
type timing = {
  t_std_link : float;
  t_interproc : float;
  t_om : (Om.level * float) list;
}

(* Wall clock, not [Sys.time]: under parallel domains process CPU time
   aggregates every core and would overstate each path. *)
let time_once f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

(* Best of three, to damp GC noise. The timed path returns a [result]
   rather than exiting through [failwith]: a broken build must surface
   as this benchmark's error through the callers' result plumbing (the
   [Term.term_result'] seam in the CLI, an error row in bench), not as a
   process abort. *)
let time3 f =
  let failed = ref None in
  let once () =
    time_once (fun () ->
        match f () with
        | Ok () -> ()
        | Error m -> if !failed = None then failed := Some m)
  in
  let t = min (once ()) (min (once ()) (once ())) in
  match !failed with None -> Ok t | Some m -> Error m

let time_builds (b : Workloads.Programs.benchmark) =
  let ( let* ) = Result.bind in
  let* units =
    try Ok (Workloads.Suite.compile Workloads.Suite.Compile_each b)
    with Minic.Driver.Error m ->
      Error (Printf.sprintf "%s: compile: %s" b.Workloads.Programs.name m)
  in
  let archives = [ Runtime.libstd () ] in
  let om_time level =
    time3 (fun () -> Result.map ignore (Om.link ~level units ~archives))
  in
  let* t_std_link =
    time3 (fun () -> Result.map ignore (Linker.Link.link units ~archives))
  in
  let* t_interproc =
    time3 (fun () ->
        match Workloads.Suite.compile Workloads.Suite.Compile_all b with
        | merged -> Result.map ignore (Linker.Link.link merged ~archives)
        | exception Minic.Driver.Error m -> Error m)
  in
  let* t_om =
    List.fold_left
      (fun acc level ->
        let* acc = acc in
        let* t = om_time level in
        Ok ((level, t) :: acc))
      (Ok []) Om.all_levels
  in
  Ok { t_std_link; t_interproc; t_om = List.rev t_om }
