(* Simulation counts in the default registry, there from the first
   simulation on, so a process that never simulates (the daemon) shows
   none. Each lookup is get-or-create under the registry's lock, which
   pool workers on several domains may reach at once (a shared [lazy]
   may not be forced from two domains at the same time). The fused
   path's own counts stay in [Machine.Blocks], where the registry reads
   them. *)
let blocks_registered = Atomic.make false

let note_simulation ~insns =
  Obs.Metrics.incr ~by:insns
    (Obs.Metrics.counter ~help:"Instructions simulated" "omlt_sim_insns_total");
  Obs.Metrics.incr
    (Obs.Metrics.counter ~help:"Simulations run" "omlt_sim_runs_total");
  if not (Atomic.exchange blocks_registered true) then
    List.iter
      (fun (name, help, count) ->
        Obs.Metrics.counter_fn ~help name (fun () ->
            count (Machine.Blocks.counters ())))
      [ ( "omlt_blocks_cache_hits_total",
          "Block dispatches served by an already-fused executor",
          fun c -> c.Machine.Blocks.hits );
        ( "omlt_blocks_cache_misses_total",
          "Block dispatches that had to fuse an executor",
          fun c -> c.Machine.Blocks.misses );
        ( "omlt_blocks_built_total",
          "Block superinstruction executors fused",
          fun c -> c.Machine.Blocks.built ) ]

(* A target's run, filled from its image's one simulation, and the
   program's output. Every image in the matrix is distinct, so each is
   fused afresh and dropped with its run. A failed link leaves the run
   without numbers or size, its fault the link's message; a simulation
   fault leaves the counts at 0, with no attribution and no host time. *)
let measure world target =
  let run =
    { Obs.Report.level = Om.target_name target;
      cycles = 0;
      insns = 0;
      counters = [];
      attribution = None;
      fault = None;
      wall_s = None;
      size = None }
  in
  match Om.link_at target world with
  | Error m -> ({ run with fault = Some m }, None)
  | Ok ((d : Linker.Image.decoded), stats) -> (
      let run =
        { run with
          counters = Option.fold ~none:[] ~some:Om.Stats.to_alist stats;
          size = Some (Obs.Report.size_of_image d.image) }
      in
      let t0 = Unix.gettimeofday () in
      match Obs.Attr.run_decoded d with
      | Error e ->
          let fault =
            Format.asprintf "simulation fault: %a" Machine.Cpu.pp_error e
          in
          ({ run with fault = Some fault }, None)
      | Ok p ->
          let wall_s = Unix.gettimeofday () -. t0 in
          let run =
            { run with
              cycles = p.cpu.Machine.Cpu.cycles;
              insns = p.cpu.Machine.Cpu.insns;
              attribution = Some (Obs.Report.attribution_of_profile p);
              wall_s = Some wall_s }
          in
          note_simulation ~insns:run.insns;
          (run, Some p.output))

let run_world ~bench ~build world =
  let runs = List.map (measure world) Om.targets in
  match List.hd runs with
  | { Obs.Report.size = None; fault = Some m; _ }, _ ->
      (* the standard link failed: the row has no baseline *)
      Error m
  | _, std_output ->
      Ok
        { Obs.Report.bench;
          build;
          outputs_agree =
            std_output <> None
            && List.for_all (fun (_, out) -> out = std_output) runs;
          runs = List.map fst runs }

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
