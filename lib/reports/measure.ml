type run = {
  level : Om.level;
  stats : Om.Stats.t;
  cycles : int;
  insns : int;
  output : string;
  attribution : Obs.Report.attribution;
  size : Obs.Report.size;
  wall_s : float;
  mips : float;
}

type result = {
  bench : string;
  build : Workloads.Suite.build;
  std_cycles : int;
  std_insns : int;
  std_output : string;
  std_attribution : Obs.Report.attribution;
  std_size : Obs.Report.size;
  runs : run list;
  outputs_agree : bool;
  std_wall_s : float;
  std_mips : float;
}

let mips_of ~insns ~wall_s =
  if wall_s > 0. then float_of_int insns /. wall_s /. 1e6 else 0.

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

(* Every image in the matrix is distinct, so each is decoded and fused
   afresh and dropped with its run. *)
let run_image image =
  let fault e =
    Format.asprintf "simulation fault: %a" Machine.Cpu.pp_error e
  in
  match Machine.Cpu.decode image with
  | Error e -> Error (fault e)
  | Ok d -> (
      let t0 = Unix.gettimeofday () in
      match Obs.Attr.run_decoded d with
      | Ok p ->
          let wall_s = Unix.gettimeofday () -. t0 in
          let insns = p.Obs.Attr.cpu.Machine.Cpu.insns in
          let mips = mips_of ~insns ~wall_s in
          note_simulation ~insns ~mips;
          Ok (p, wall_s, mips)
      | Error e -> Error (fault e))

let run_benchmark build (b : Workloads.Programs.benchmark) =
  let ( let* ) = Result.bind in
  let* world = Workloads.Suite.resolve build b in
  let* std = Linker.Link.link_resolved world in
  let* std_p, std_wall_s, std_mips = run_image std in
  let* runs =
    List.fold_left
      (fun acc level ->
        let* acc = acc in
        let* { Om.image; stats } = Om.optimize_resolved level world in
        let* p, wall_s, mips = run_image image in
        Ok
          ({ level;
             stats;
             cycles = p.Obs.Attr.cpu.Machine.Cpu.cycles;
             insns = p.Obs.Attr.cpu.Machine.Cpu.insns;
             output = p.Obs.Attr.output;
             attribution = Obs.Report.attribution_of_profile p;
             size = Obs.Report.size_of_image image;
             wall_s;
             mips }
          :: acc))
      (Ok []) Om.all_levels
  in
  let runs = List.rev runs in
  let std_output = std_p.Obs.Attr.output in
  Ok
    { bench = b.Workloads.Programs.name;
      build;
      std_cycles = std_p.Obs.Attr.cpu.Machine.Cpu.cycles;
      std_insns = std_p.Obs.Attr.cpu.Machine.Cpu.insns;
      std_output;
      std_attribution = Obs.Report.attribution_of_profile std_p;
      std_size = Obs.Report.size_of_image std;
      runs;
      outputs_agree =
        List.for_all (fun r -> String.equal r.output std_output) runs;
      std_wall_s;
      std_mips }

let improvement result level =
  match List.find_opt (fun r -> r.level = level) result.runs with
  | Some r ->
      100.
      *. float_of_int (result.std_cycles - r.cycles)
      /. float_of_int result.std_cycles
  | None -> 0.

let stats_of result level =
  Option.map (fun r -> r.stats)
    (List.find_opt (fun r -> r.level = level) result.runs)

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
        try
          let merged =
            Minic.Driver.compile_merged ~opt:Minic.Driver.O2
              ~prelude:Runtime.prelude
              ~name:(b.Workloads.Programs.name ^ "_all.o")
              b.Workloads.Programs.sources
          in
          Result.map ignore (Linker.Link.link [ merged ] ~archives)
        with Minic.Driver.Error m -> Error m)
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
