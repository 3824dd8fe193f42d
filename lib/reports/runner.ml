type progress = {
  on_start : Workloads.Programs.benchmark -> Workloads.Suite.build -> unit;
  on_done :
    Workloads.Programs.benchmark ->
    Workloads.Suite.build ->
    (Obs.Report.bench, string) Stdlib.result ->
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
      try
        Result.bind (Measure.run_benchmark build b) (fun row ->
            match Measure.failure row with
            | None -> Ok row
            | Some m -> Error m)
      with
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

let report ?tool rows =
  Obs.Report.make ?tool
    ~metrics:(Obs.Metrics.to_json Obs.Metrics.default)
    (results rows)
