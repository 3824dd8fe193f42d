type run = {
  level : Om.level;
  stats : Om.Stats.t;
  cycles : int;
  insns : int;
  output : string;
  image : Linker.Image.t;
  wall_s : float;
  mips : float;
}

type result = {
  bench : string;
  build : Workloads.Suite.build;
  std_cycles : int;
  std_insns : int;
  std_output : string;
  std_image : Linker.Image.t;
  runs : run list;
  outputs_agree : bool;
  std_wall_s : float;
  std_mips : float;
}

(* One decode per distinct image, shared across the suite/profile/bench
   harnesses and across domains. Keyed by the image's content digest
   (the store's digest function): identical images (e.g. the same
   benchmark re-measured) hit the same entry, and a lookup hashes the
   image's serialized bytes once instead of structurally traversing the
   whole [Linker.Image.t]. *)
let decoded : (string, Machine.Decoded.t * Machine.Blocks.t) Hashtbl.t =
  Hashtbl.create 64

let decoded_lock = Mutex.create ()

(* The fused-executor cache rides in the same table, under the same
   digest: any suite re-measuring an identical image reuses not just its
   decode but every block superinstruction already fused for it.
   [Machine.Blocks.t] is safe to share across pool domains — executor
   fills are racy but idempotent — so one entry serves the whole
   matrix. *)
let decode_cached image =
  let key = Store.Codec.image_digest image in
  let cached =
    Mutex.protect decoded_lock (fun () -> Hashtbl.find_opt decoded key)
  in
  match cached with
  | Some db -> Ok db
  | None -> (
      match Machine.Cpu.decode image with
      | Ok d ->
          let db = (d, Machine.Blocks.create d) in
          Mutex.protect decoded_lock (fun () -> Hashtbl.replace decoded key db);
          Ok db
      | Error e -> Error e)

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

let run_image image =
  let ( let* ) = Result.bind in
  let fault e =
    Format.asprintf "simulation fault: %a" Machine.Cpu.pp_error e
  in
  let* d, blocks = Result.map_error fault (decode_cached image) in
  let t0 = Unix.gettimeofday () in
  match Machine.Cpu.run_decoded ~blocks d with
  | Ok o ->
      let wall_s = Unix.gettimeofday () -. t0 in
      let insns = o.Machine.Cpu.stats.Machine.Cpu.insns in
      let mips = mips_of ~insns ~wall_s in
      note_simulation ~insns ~mips;
      Ok
        ( o.Machine.Cpu.stats.Machine.Cpu.cycles,
          insns,
          o.Machine.Cpu.output,
          wall_s,
          mips )
  | Error e -> Error (fault e)

let run_benchmark ?(levels = Om.all_levels) build (b : Workloads.Programs.benchmark) =
  let ( let* ) = Result.bind in
  let* world = Workloads.Suite.resolve build b in
  let* std = Linker.Link.link_resolved world in
  let* std_cycles, std_insns, std_output, std_wall_s, std_mips =
    run_image std
  in
  let* runs =
    List.fold_left
      (fun acc level ->
        let* acc = acc in
        let* { Om.image; stats } = Om.optimize_resolved level world in
        let* cycles, insns, output, wall_s, mips = run_image image in
        Ok ({ level; stats; cycles; insns; output; image; wall_s; mips } :: acc))
      (Ok []) levels
  in
  let runs = List.rev runs in
  Ok
    { bench = b.Workloads.Programs.name;
      build;
      std_cycles;
      std_insns;
      std_output;
      std_image = std;
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
