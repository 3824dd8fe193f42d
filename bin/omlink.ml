(* omlink — the command-line face of the system: a minic compiler, a
   standard linker, the OM optimizing linker, a disassembler, the
   machine simulator, and the client/server halves of the persistent
   link service, in one binary. *)

open Cmdliner

(* The CLI's one error-handling seam: command bodies are thunks
   returning a [result]; stray exceptions from the toolchain layers are
   converted to [Error] here, and Cmdliner renders the message as
   [omlink: message] on stderr and exits with its error status instead
   of dumping an uncaught-exception backtrace. *)
let reporting term =
  Term.term_result'
    (Term.app
       (Term.const (fun thunk ->
            try thunk () with
            | Minic.Driver.Error m
            | Failure m
            | Sys_error m
            | Invalid_argument m ->
                Error m))
       term)

let ( let* ) = Result.bind

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

(* Inputs may be minic sources (.mc) or serialized objects (.o). *)
let load_unit path =
  if Filename.check_suffix path ".mc" then
    Ok
      (Minic.Driver.compile_module ~prelude:Runtime.prelude
         ~name:(Filename.remove_extension (Filename.basename path) ^ ".o")
         (read_file path))
  else
    match Objfile.Obj_io.load path with
    | Ok u -> Ok u
    | Error m -> Error (Printf.sprintf "%s: %s" path m)

let load_units files =
  List.fold_left
    (fun acc f ->
      let* acc = acc in
      let* u = load_unit f in
      Ok (u :: acc))
    (Ok []) files
  |> Result.map List.rev

let level_conv =
  let parse s =
    Result.map_error (fun m -> `Msg m) (Server.Engine.level_of_string s)
  in
  let print ppf l = Format.pp_print_string ppf (Server.Engine.level_name l) in
  Arg.conv (parse, print)

let files_arg =
  Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE" ~doc:"Input files (.mc sources or .o objects).")

let level_arg =
  Arg.(
    value
    & opt level_conv (Server.Engine.Om Om.Full)
    & info [ "l"; "level" ] ~docv:"LEVEL"
        ~doc:"Link level: std, noopt, simple, full, sched, gc.")

(* --- pass tracing (shared by run/stats/profile) --- *)

let trace_term =
  let file =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Write a Chrome trace-event JSON of the link pipeline to \
                   $(docv) (load it at chrome://tracing).")
  in
  let summary =
    Arg.(value & flag
         & info [ "trace-summary" ]
             ~doc:"Print an ASCII pass-timing summary to stderr.")
  in
  Term.(const (fun file summary -> (file, summary)) $ file $ summary)

let with_tracing (file, summary) f =
  if file = None && not summary then f ()
  else begin
    let c, v = Obs.Trace.with_collector f in
    (match file with
    | Some path ->
        let oc = open_out_bin path in
        Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
        output_string oc (Obs.Json.to_string (Obs.Trace.to_chrome_json c));
        output_char oc '\n'
    | None -> ());
    if summary then Format.eprintf "%a@." Obs.Trace.pp_summary c;
    v
  end

(* --- compile --- *)

let compile_cmd =
  let out =
    Arg.(value & opt (some string) None & info [ "o" ] ~docv:"OUT" ~doc:"Output object file.")
  in
  let merged =
    Arg.(value & flag & info [ "merged" ] ~doc:"Compile all sources as one unit (compile-all style).")
  in
  let o0 = Arg.(value & flag & info [ "O0" ] ~doc:"Disable optimization.") in
  let optimistic =
    Arg.(value & flag
         & info [ "G"; "optimistic" ]
             ~doc:"Optimistic compilation: address scalar globals directly \
                   GP-relative; the link fails if they don't fit the window.")
  in
  let run files out merged o0 optimistic () =
    let opt = if o0 then Minic.Driver.O0 else Minic.Driver.O2 in
    let units =
      if merged then
        [ Minic.Driver.compile_merged ~opt ~optimistic ~prelude:Runtime.prelude
            ~name:"merged.o"
            (List.map (fun f -> (f, read_file f)) files) ]
      else
        List.map
          (fun f ->
            Minic.Driver.compile_module ~opt ~optimistic
              ~prelude:Runtime.prelude
              ~name:(Filename.remove_extension (Filename.basename f) ^ ".o")
              (read_file f))
          files
    in
    List.iter
      (fun (u : Objfile.Cunit.t) ->
        let path = Option.value out ~default:u.name in
        Objfile.Obj_io.save path u;
        Printf.printf "wrote %s (%d instructions, %d GAT entries)\n" path
          (Objfile.Cunit.insn_count u)
          (Array.length u.gat))
      units;
    Ok ()
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile minic sources to object modules.")
    (reporting
       Term.(const run $ files_arg $ out $ merged $ o0 $ optimistic))

(* --- dis --- *)

let dis_cmd =
  let run files () =
    List.fold_left
      (fun acc f ->
        let* () = acc in
        let* u = load_unit f in
        Format.printf "%a@." Objfile.Cunit.pp u;
        Ok ())
      (Ok ()) files
  in
  Cmd.v
    (Cmd.info "dis" ~doc:"Disassemble object modules with their relocations.")
    (reporting Term.(const run $ files_arg))

(* --- link / run --- *)

(* the image, and OM's statistics and verified decoded text (a standard
   link has neither) *)
let link_images level files =
  let* units = load_units files in
  let archives = [ Runtime.libstd () ] in
  match level with
  | Server.Engine.Std ->
      let* image = Linker.Link.link units ~archives in
      Ok (image, None)
  | Server.Engine.Om l ->
      let* { Om.image; stats; decoded } = Om.link ~level:l units ~archives in
      Ok (image, Some (stats, decoded))

let run_cmd =
  let show_stats =
    Arg.(value & flag & info [ "stats" ] ~doc:"Print optimizer statistics.")
  in
  let show_timing =
    Arg.(value & flag & info [ "timing" ] ~doc:"Print simulated cycle counts.")
  in
  let run files level show_stats show_timing tr () =
    (* trace the link only: the command exits inside the simulation branch *)
    let* image, om = with_tracing tr (fun () -> link_images level files) in
    (match (show_stats, om) with
    | true, Some (s, _) -> Format.printf "%a@." Om.Stats.pp s
    | true, None -> Format.printf "(standard link: no optimizer statistics)@."
    | false, _ -> ());
    match
      match om with
      | Some (_, decoded) -> Machine.Cpu.run_decoded decoded
      | None -> Machine.Cpu.run image
    with
    | Ok o ->
        print_string o.Machine.Cpu.output;
        if show_timing then
          Printf.eprintf
            "[%d instructions, %d cycles, %d i$ misses, %d d$ misses]\n"
            o.Machine.Cpu.stats.Machine.Cpu.insns
            o.Machine.Cpu.stats.Machine.Cpu.cycles
            o.Machine.Cpu.stats.Machine.Cpu.icache_misses
            o.Machine.Cpu.stats.Machine.Cpu.dcache_misses;
        exit (Int64.to_int o.Machine.Cpu.exit_code land 0xff)
    | Error e ->
        Error (Format.asprintf "simulation fault: %a" Machine.Cpu.pp_error e)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Link (with libstd) and execute on the machine simulator.")
    (reporting
       Term.(const run $ files_arg $ level_arg $ show_stats $ show_timing
             $ trace_term))

(* --- text dump of the linked image --- *)

let image_cmd =
  let run files level () =
    let* image, _ = link_images level files in
    Format.printf "%a@." Linker.Image.pp_disassembly image;
    Ok ()
  in
  Cmd.v
    (Cmd.info "image" ~doc:"Print the disassembled linked image.")
    (reporting Term.(const run $ files_arg $ level_arg))

(* --- stats: compare every level for the given program --- *)

let stats_cmd =
  let json_flag =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the comparison as schema-versioned JSON on stdout.")
  in
  let run files json tr () =
    with_tracing tr @@ fun () ->
    let* units = load_units files in
    let* world = Linker.Resolve.run units ~archives:[ Runtime.libstd () ] in
    let* row =
      Reports.Measure.run_world ~bench:(String.concat "," files)
        ~build:"files" world
    in
    if json then
      print_endline
        (Obs.Json.to_string (Obs.Report.to_json (Obs.Report.make [ row ])))
    else begin
      let text_insns (size : Obs.Report.size) = size.text_bytes / 4 in
      let cycles_cell cycles = function
        | None -> string_of_int cycles
        | Some m -> "FAULT: " ^ m
      in
      let std_ran =
        Option.fold ~none:false ~some:(fun (r : Obs.Report.run) -> r.fault = None)
          (Obs.Report.find_run row Obs.Report.standard_level)
      in
      Printf.printf "%-14s %10s %10s %8s\n" "level" "text insns" "cycles"
        "vs std";
      List.iter
        (fun (run : Obs.Report.run) ->
          match run.size with
          | None ->
              Printf.printf "%-14s failed: %s\n" run.level
                (Option.value run.fault ~default:"")
          | Some size ->
              let vs =
                if
                  run.level <> Obs.Report.standard_level
                  && std_ran && run.fault = None
                then Printf.sprintf "%+7.2f%%" (Obs.Report.improvement row run)
                else "-"
              in
              Printf.printf "%-14s %10d %10s %8s\n" run.level
                (text_insns size) (cycles_cell run.cycles run.fault) vs;
              if run.level = Om.level_name Om.Full then
                Format.printf "  %a@." Om.Stats.pp
                  (Om.Stats.of_alist run.counters))
        row.runs
    end;
    Ok ()
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Link at every optimization level and compare size and cycles.")
    (reporting Term.(const run $ files_arg $ json_flag $ trace_term))

(* --- profile: per-procedure cycle attribution --- *)

let profile_cmd =
  let files =
    Arg.(value & pos_all file []
         & info [] ~docv:"FILE" ~doc:"Input files (.mc sources or .o objects).")
  in
  let bench =
    Arg.(value & opt (some Cli.benchmark) None
         & info [ "bench" ] ~docv:"NAME"
             ~doc:"Profile a suite benchmark instead of input files.")
  in
  let json_flag =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit the profiles as JSON on stdout.")
  in
  let top =
    Arg.(value & opt int 12
         & info [ "top" ] ~docv:"N" ~doc:"Procedure rows to print.")
  in
  let run files bench json top tr () =
    with_tracing tr @@ fun () ->
    let* what, world =
      match (bench, files) with
      | Some b, [] ->
          let* w = Workloads.Suite.resolve Workloads.Suite.Compile_each b in
          Ok (b.Workloads.Programs.name, w)
      | None, (_ :: _ as files) ->
          let* units = load_units files in
          let* w =
            Linker.Resolve.run units ~archives:[ Runtime.libstd () ]
          in
          Ok (String.concat "," files, w)
      | Some _, _ :: _ ->
          Error "give either input files or --bench, not both"
      | None, [] -> Error "nothing to profile: give input files or --bench NAME"
    in
    let* std = Linker.Link.link_resolved world in
    let* full =
      Result.map (fun o -> o.Om.decoded) (Om.optimize_resolved Om.Full world)
    in
    let fault name e =
      Format.asprintf "%s: simulation fault: %a" name Machine.Cpu.pp_error e
    in
    let* pstd =
      Result.map_error (fault "standard")
        (Result.bind (Machine.Cpu.decode std) Obs.Attr.run_decoded)
    in
    let* pfull =
      Result.map_error (fault "om-full") (Obs.Attr.run_decoded full)
    in
    if json then begin
      print_endline
        (Obs.Json.to_string
           (Obs.Json.Obj
              [ ("schema_version", Obs.Json.Int Obs.Report.schema_version);
                ("program", Obs.Json.String what);
                ("standard", Obs.Attr.to_json pstd);
                ("om-full", Obs.Attr.to_json pfull) ]));
      Ok ()
    end
    else begin
      Format.printf "%s: standard link@.%a@.@." what (Obs.Attr.pp ~top) pstd;
      Format.printf "om-full@.%a@.@." (Obs.Attr.pp ~top) pfull;
      Format.printf "address-calculation overhead, cycles (standard -> om-full):@.";
      List.iter
        (fun c ->
          let b0 = (Obs.Attr.bucket pstd.Obs.Attr.totals c).Obs.Attr.b_cycles in
          let b1 = (Obs.Attr.bucket pfull.Obs.Attr.totals c).Obs.Attr.b_cycles in
          Format.printf "  %-10s %12d -> %10d  (%+.1f%%)@."
            (Obs.Attr.category_name c) b0 b1
            (100. *. float_of_int (b1 - b0) /. float_of_int (max 1 b0)))
        Obs.Attr.all_categories;
      Format.printf "  %-10s %12d -> %10d  (%+.1f%%)@." "TOTAL"
        pstd.Obs.Attr.totals.Obs.Attr.p_cycles
        pfull.Obs.Attr.totals.Obs.Attr.p_cycles
        (100.
        *. float_of_int
             (pfull.Obs.Attr.totals.Obs.Attr.p_cycles
             - pstd.Obs.Attr.totals.Obs.Attr.p_cycles)
        /. float_of_int (max 1 pstd.Obs.Attr.totals.Obs.Attr.p_cycles));
      Ok ()
    end
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Simulate under the cycle-attribution profiler: per-procedure \
          cycles and the paper's address-calculation categories, standard \
          link vs OM-full.")
    (reporting
       Term.(const run $ files $ bench $ json_flag $ top $ trace_term))

(* --- suite --- *)

let suite_cmd =
  let bench =
    Arg.(value & opt (some Cli.benchmark) None
         & info [ "bench" ] ~docv:"NAME" ~doc:"Run a single benchmark.")
  in
  let json_flag =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit results as schema-versioned JSON instead of text.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"With --json: write the report to $(docv) instead of stdout.")
  in
  let run bench json out jobs () =
    let benches =
      match bench with Some b -> [ b ] | None -> Workloads.Programs.all
    in
    (* progress (and failures) stream to stderr as tasks finish; result
       rows print to stdout afterwards, in task order, so the output is
       deterministic whatever the domain interleaving *)
    let progress =
      { Reports.Runner.silent with
        on_done =
          (fun b build r ->
            match r with
            | Ok _ -> ()
            | Error m ->
                Printf.eprintf "%-10s %-12s ERROR %s\n%!"
                  b.Workloads.Programs.name
                  (Workloads.Suite.build_name build) m) }
    in
    let t0 = Unix.gettimeofday () in
    let rows = Reports.Runner.matrix ?jobs ~progress benches in
    let wall = Unix.gettimeofday () -. t0 in
    let results = Reports.Runner.results rows in
    let failures = List.length rows - List.length results in
    let disagreements =
      List.length
        (List.filter
           (fun (r : Obs.Report.bench) -> not r.outputs_agree)
           results)
    in
    if not json then begin
      (* Minsns, host seconds and MIPS of [runs] taken as one simulation:
         [Obs.Report.mips] of their summed instructions and seconds *)
      let rate (runs : Obs.Report.run list) =
        let secs (r : Obs.Report.run) = Option.value r.wall_s ~default:0. in
        match runs with
        | [] -> (0., 0., 0.)
        | first :: rest ->
            let t =
              List.fold_left
                (fun (t : Obs.Report.run) (r : Obs.Report.run) ->
                  { t with
                    insns = t.insns + r.insns;
                    wall_s = Some (secs t +. secs r) })
                first rest
            in
            ( float_of_int t.insns /. 1e6,
              secs t,
              Option.value (Obs.Report.mips t) ~default:0. )
      in
      List.iter
        (fun (r : Obs.Report.bench) ->
          let minsns, _, mips = rate r.runs in
          let level (run : Obs.Report.run) =
            Printf.sprintf "%s=%+.1f%%" run.level (Obs.Report.improvement r run)
          in
          (* a row's runs begin with the standard link's *)
          match r.runs with
          | std :: levels ->
              Printf.printf
                "%-10s %-12s std=%d %s agree=%b %8.1f Minsns %7.1f MIPS\n"
                r.bench r.build std.cycles
                (String.concat " " (List.map level levels))
                r.outputs_agree minsns mips
          | [] -> ())
        results;
      let runs = List.concat_map (fun (r : Obs.Report.bench) -> r.runs) results in
      let minsns, s, mips = rate runs in
      Printf.printf
        "\n%d simulations, %.1f Minsns, %.1f s simulating (%.1f s wall): %.1f \
         MIPS aggregate\n"
        (List.length runs) minsns s wall mips;
      let c = Machine.Blocks.counters () in
      Printf.printf "block cache: %d hits, %d misses, %d executors fused\n%!"
        c.Machine.Blocks.hits c.Machine.Blocks.misses c.Machine.Blocks.built
    end
    else begin
      let report = Reports.Runner.report rows in
      match out with
      | Some path -> Obs.Report.write path report
      | None -> print_endline (Obs.Json.to_string (Obs.Report.to_json report))
    end;
    if failures > 0 || disagreements > 0 then
      Error
        (Printf.sprintf "%d failure(s), %d output disagreement(s)" failures
           disagreements)
    else Ok ()
  in
  Cmd.v
    (Cmd.info "suite"
       ~doc:
         "Run the SPEC92-analogue benchmark matrix: one row per program and \
          build with its simulated Minsns and MIPS, then the aggregate and \
          block-cache counters. Fails when any row fails or any row's \
          outputs disagree.")
    (reporting
       Term.(const run $ bench $ json_flag $ out $ Cli.jobs))

(* --- fuzz: randomized differential testing of the pipeline --- *)

let fuzz_cmd =
  let seed =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"N"
             ~doc:"Campaign seed. The same seed replays the same cases, \
                   whatever the job count.")
  in
  let count =
    Arg.(value & opt int 200
         & info [ "count" ] ~docv:"N" ~doc:"Number of generated programs.")
  in
  let out =
    Arg.(value & opt string "_fuzz"
         & info [ "out" ] ~docv:"DIR"
             ~doc:"Directory for shrunk reproducers of failing cases.")
  in
  let no_repro =
    Arg.(value & flag
         & info [ "no-repro" ] ~doc:"Do not write reproducer directories.")
  in
  let replay =
    Arg.(value & opt (some int) None
         & info [ "replay" ] ~docv:"CASESEED"
             ~doc:"Re-run the single case with this derived seed (printed \
                   in failure reports and reproducer READMEs) instead of a \
                   campaign.")
  in
  let dump =
    Arg.(value & flag
         & info [ "dump" ]
             ~doc:"With --replay: print the generated minic modules before \
                   running the oracles.")
  in
  let span_stress =
    Arg.(value & flag
         & info [ "span-stress" ]
             ~doc:"Bias generation toward span boundaries: data straddling \
                   the GP window edge, padded procedures stretching branch \
                   spans, and ldah/lda pair-edge literals. Applies to \
                   campaigns and to --replay.")
  in
  let run seed count jobs out no_repro replay dump span_stress () =
    match replay with
    | Some cs -> (
        if dump then
          List.iter
            (fun (name, src) -> Printf.printf "// --- %s ---\n%s\n" name src)
            (Fuzz.Prog.render (Fuzz.Gen.program ~span_stress cs));
        match Fuzz.run_case ~span_stress cs with
        | Ok () ->
            Printf.printf "case seed %d: all oracles passed\n" cs;
            Ok ()
        | Error f ->
            Error (Format.asprintf "case seed %d: %a" cs Fuzz.Oracle.pp_failure f))
    | None ->
        let out_dir = if no_repro then None else Some out in
        let progress ~done_ ~total ~failed =
          Printf.eprintf "\rfuzz: %d/%d cases, %d failure(s)%!" done_ total
            failed
        in
        let r =
          Fuzz.campaign ?jobs ~out_dir ~progress ~span_stress ~seed ~count ()
        in
        Printf.eprintf "\n%!";
        Format.printf "%a@." Fuzz.pp_report r;
        if r.Fuzz.failed = [] then Ok ()
        else
          Error
            (Printf.sprintf "%d of %d cases failed"
               (List.length r.Fuzz.failed) count)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: generate random minic programs, link them \
          at every level (plus a merged build), and require identical \
          observable behavior, a clean structural verification, and \
          agreement between the two simulators. Failures are shrunk to \
          minimal reproducers.")
    (reporting
       Term.(
         const run $ seed $ count $ Cli.jobs $ out $ no_repro $ replay $ dump
         $ span_stress))

(* --- serve: the persistent link daemon --- *)

let socket_arg =
  Arg.(value & opt (some string) None
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix-domain socket path (default: \\$OMLT_SOCKET or \
                 omlinkd.sock).")

let serve_cmd =
  let deadline =
    Arg.(value & opt (some int) None
         & info [ "deadline-ms" ] ~docv:"MS"
             ~doc:"Default per-request deadline; requests that exceed it get \
                   a structured timeout error. Clients may override per \
                   request.")
  in
  let store_dir =
    Arg.(value & opt (some string) None
         & info [ "store" ] ~docv:"DIR"
             ~doc:"Artifact store directory (default: \\$OMLT_STORE or \
                   _omstore; $(b,none) keeps the store in memory only).")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet" ] ~doc:"No startup/shutdown chatter.")
  in
  let log_level =
    Arg.(value & opt (some string) None
         & info [ "log-level" ] ~docv:"LEVEL"
             ~doc:"Structured-log threshold: debug, info, warn, error, or \
                   off. Overrides \\$OMLT_LOG. Default when serving: info \
                   (or off with $(b,--quiet)).")
  in
  let drain_ms =
    Arg.(value & opt (some int) None
         & info [ "drain-ms" ] ~docv:"MS"
             ~doc:"On shutdown, finish queued and in-flight requests for \
                   up to $(docv) before aborting the rest (default 2000).")
  in
  let run socket deadline store_dir quiet log_level pool_jobs queue_limit
      drain_ms () =
    (* daemon diagnostics are JSON-lines on stderr via Obs.Log; the old
       ad-hoc eprintf chatter is gone *)
    (match log_level with
    | Some s -> Obs.Log.set_level (Obs.Log.level_of_string s)
    | None ->
        if quiet then Obs.Log.set_level None
        else if Sys.getenv_opt "OMLT_LOG" = None then
          Obs.Log.set_level (Some Obs.Log.Info));
    let store =
      match store_dir with
      | None -> Store.create ()
      | Some "none" | Some "" -> Store.in_memory ()
      | Some d -> Store.create ~dir:(Some d) ()
    in
    let engine = Server.Engine.create ~store () in
    Server.Daemon.serve ~engine ?socket ?default_deadline_ms:deadline
      ?workers:pool_jobs ?queue_limit ?drain_ms ()
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run omlinkd, the persistent link service: an artifact store plus \
          incremental relinking behind a Unix-domain socket, serving many \
          clients concurrently through a worker-domain pool with in-flight \
          request coalescing and bounded-queue backpressure.")
    (reporting
       Term.(const run $ socket_arg $ deadline $ store_dir $ quiet $ log_level
             $ Cli.jobs $ Cli.queue_limit $ drain_ms))

(* --- metrics: in-process registry dump --- *)

let metrics_cmd =
  let prometheus =
    Arg.(value & flag
         & info [ "prometheus" ]
             ~doc:"Print the Prometheus text exposition instead of JSON.")
  in
  let bench =
    Arg.(value & opt (some Cli.benchmark) None
         & info [ "bench" ] ~docv:"NAME"
             ~doc:"First measure $(docv) in-process so the registry holds \
                   pool/simulator/engine samples to dump.")
  in
  let run bench prometheus () =
    Option.iter (fun b -> ignore (Reports.Runner.matrix [ b ])) bench;
    let reg = Obs.Metrics.default in
    if prometheus then print_string (Obs.Metrics.to_prometheus reg)
    else print_endline (Obs.Json.to_string (Obs.Metrics.to_json reg));
    Ok ()
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Dump this process's metrics registry (use $(b,--bench) to populate \
          it first; for a running daemon's registry see $(b,omlink client \
          metrics)).")
    (reporting Term.(const run $ bench $ prometheus))

(* --- client: talk to a running omlinkd --- *)

let err_string (e : Server.Protocol.err) =
  Printf.sprintf "%s [%s]" e.Server.Protocol.message e.Server.Protocol.code

let with_daemon socket f =
  Result.join (Server.Client.with_connection ?socket f)

let retries_arg =
  Arg.(value & opt int 0
       & info [ "retries" ] ~docv:"N"
           ~doc:"Retry up to $(docv) times on a refused connection or an \
                 overloaded daemon, sleeping a jittered exponential backoff \
                 (or the server's retry_after_ms hint, whichever is larger) \
                 between attempts. Off by default.")

(* one seam for every client subcommand: plain connect when retries are
   off, [Server.Client.with_retries] otherwise, errors rendered as
   strings either way *)
let with_daemon_retries socket retries f =
  if retries = 0 then with_daemon socket (fun fd -> Result.map_error err_string (f fd))
  else
    Result.map_error err_string
      (Server.Client.with_retries ~retries ?socket f)

let deadline_arg =
  Arg.(value & opt (some int) None
       & info [ "deadline-ms" ] ~docv:"MS"
           ~doc:"Fail the request with a timeout error after $(docv).")

let client_ping_cmd =
  let delay =
    Arg.(value & opt int 0
         & info [ "delay-ms" ] ~docv:"MS"
             ~doc:"Ask the server to sleep before replying (deadline \
                   testing).")
  in
  let run socket deadline delay retries () =
    with_daemon_retries socket retries @@ fun fd ->
    match Server.Client.ping fd ?deadline_ms:deadline ~delay_ms:delay () with
    | Ok _ -> print_endline "pong"; Ok ()
    | Error e -> Error e
  in
  Cmd.v
    (Cmd.info "ping" ~doc:"Round-trip a ping through the daemon.")
    (reporting
       Term.(const run $ socket_arg $ deadline_arg $ delay $ retries_arg))

let client_link_cmd =
  let level =
    Arg.(value & opt string "full"
         & info [ "l"; "level" ] ~docv:"LEVEL"
             ~doc:"Link level: std, noopt, simple, full, sched, gc.")
  in
  let entry =
    Arg.(value & opt (some string) None
         & info [ "entry" ] ~docv:"SYM" ~doc:"Entry procedure.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o" ] ~docv:"OUT" ~doc:"Write the serialized image to $(docv).")
  in
  let trace =
    Arg.(value & flag
         & info [ "trace" ] ~doc:"Ask for pass spans and print them.")
  in
  let run files socket deadline level entry out trace retries () =
    (* the daemon resolves paths itself, so hand it absolute ones *)
    let files =
      List.map
        (fun f ->
          if Filename.is_relative f then Filename.concat (Sys.getcwd ()) f
          else f)
        files
    in
    with_daemon_retries socket retries @@ fun fd ->
    match
      Server.Client.link fd ?deadline_ms:deadline ~trace ?entry ~level files
    with
    | Error e -> Error e
    | Ok (bytes, fields) ->
        let get name conv =
          Option.bind (Server.Client.field name fields) conv
        in
        Printf.printf "linked %s: %d insns in %.3fs (%s, image %s)\n"
          (Option.value ~default:"?" (get "level" Obs.Json.get_string))
          (Option.value ~default:0 (get "insns" Obs.Json.get_int))
          (Option.value ~default:0. (get "elapsed_s" Obs.Json.get_float))
          (if Option.value ~default:false (get "image_hit" Obs.Json.get_bool)
           then "cache hit" else "cache miss")
          (Option.value ~default:"?" (get "image_digest" Obs.Json.get_string));
        (match Server.Client.field "trace" fields with
        | Some (Obs.Json.List spans) ->
            List.iter
              (fun s ->
                match
                  ( Option.bind (Obs.Json.member "name" s) Obs.Json.get_string,
                    Option.bind (Obs.Json.member "dur_us" s)
                      Obs.Json.get_float )
                with
                | Some name, Some dur ->
                    Printf.printf "  %-24s %10.0f us\n" name dur
                | _ -> ())
              spans
        | _ -> ());
        (match out with
        | None -> ()
        | Some path ->
            let oc = open_out_bin path in
            Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
            output_string oc bytes;
            Printf.printf "wrote %s (%d bytes)\n" path (String.length bytes));
        Ok ()
  in
  Cmd.v
    (Cmd.info "link" ~doc:"Link through the daemon (warm caches and all).")
    (reporting
       Term.(const run $ files_arg $ socket_arg $ deadline_arg $ level $ entry
             $ out $ trace $ retries_arg))

let client_stats_cmd =
  let json =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Print the raw JSON reply instead of a table.")
  in
  let run socket json () =
    with_daemon socket @@ fun fd ->
    match Server.Client.stats fd with
    | Error e -> Error (err_string e)
    | Ok fields ->
        if json then begin
          print_endline (Obs.Json.to_string (Obs.Json.Obj fields));
          Ok ()
        end
        else begin
          let get name conv =
            Option.bind (Server.Client.field name fields) conv
          in
          Printf.printf "uptime   %.1f s\nrequests %d\n"
            (Option.value ~default:0. (get "uptime_s" Obs.Json.get_float))
            (Option.value ~default:0 (get "requests" Obs.Json.get_int));
          (match Server.Client.field "sched" fields with
          | Some sched ->
              let s name =
                Option.value ~default:0
                  (Option.bind (Obs.Json.member name sched) Obs.Json.get_int)
              in
              Printf.printf
                "sched    %d workers, queue %d/%d, busy %d; submitted=%d \
                 completed=%d coalesced=%d shed=%d abandoned=%d\n"
                (s "workers") (s "queue_depth") (s "queue_limit") (s "busy")
                (s "submitted") (s "completed") (s "coalesced") (s "shed")
                (s "abandoned")
          | None -> ());
          (match Server.Client.field "store" fields with
          | Some store ->
              let m name conv = Option.bind (Obs.Json.member name store) conv in
              Printf.printf "store    %s (%d entries, %d bytes in memory)\n"
                (Option.value ~default:"memory" (m "dir" Obs.Json.get_string))
                (Option.value ~default:0 (m "mem_entries" Obs.Json.get_int))
                (Option.value ~default:0 (m "mem_bytes" Obs.Json.get_int));
              List.iter
                (fun kind ->
                  match Obs.Json.member kind store with
                  | Some (Obs.Json.Obj kv) ->
                      Printf.printf "  %-8s" kind;
                      List.iter
                        (fun (k, v) ->
                          match Obs.Json.get_int v with
                          | Some n -> Printf.printf " %s=%d" k n
                          | None -> ())
                        kv;
                      print_newline ()
                  | _ -> ())
                (List.map Store.kind_name Store.all_kinds @ [ "total" ])
          | None -> ());
          Ok ()
        end
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Print daemon uptime, scheduling-pool counters (workers, queue, \
          coalesces, sheds) and artifact-store counters (hit/miss/eviction \
          per artifact kind); $(b,--json) for the raw reply.")
    (reporting Term.(const run $ socket_arg $ json))

let client_metrics_cmd =
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Print the JSON registry snapshot instead of the \
                   Prometheus text exposition.")
  in
  let run socket json () =
    with_daemon socket @@ fun fd ->
    match Server.Client.metrics fd with
    | Error e -> Error (err_string e)
    | Ok fields ->
        if json then
          match Server.Client.field "metrics" fields with
          | Some m -> print_endline (Obs.Json.to_string m); Ok ()
          | None -> Error "metrics reply carries no metrics field"
        else (
          match
            Option.bind
              (Server.Client.field "prometheus" fields)
              Obs.Json.get_string
          with
          | Some text -> print_string text; Ok ()
          | None -> Error "metrics reply carries no prometheus field")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Fetch the daemon's live metrics registry: per-request-type latency \
          histograms with p50/p95/p99, cache counters, in-flight gauge.")
    (reporting Term.(const run $ socket_arg $ json))

let client_load_cmd =
  let run socket deadline spec () =
    match
      Load.run_against ?socket { spec with Load.deadline_ms = deadline }
    with
    | Error m -> Error m
    | Ok r ->
        List.iter print_endline (Load.summary_lines r);
        List.iter (Printf.printf "  failure: %s\n") r.Load.failures;
        if r.Load.load.l_mismatched > 0 then
          Error
            (Printf.sprintf "%d replies differ from the serial oracle"
               r.Load.load.l_mismatched)
        else Ok ()
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:
         "Fire a deterministic concurrent load at the daemon: N client \
          threads replaying a seeded hot/cold/duplicate request mix, every \
          reply checked bit-for-bit against a serial in-process oracle; \
          prints throughput, latency quantiles, and coalesce/shed counts.")
    (reporting
       Term.(const run $ socket_arg $ deadline_arg $ Cli.load_spec))

let client_shutdown_cmd =
  let run socket () =
    with_daemon socket @@ fun fd ->
    match Server.Client.shutdown fd with
    | Ok _ -> Ok ()
    | Error e -> Error (err_string e)
  in
  Cmd.v
    (Cmd.info "shutdown" ~doc:"Stop the daemon.")
    (reporting Term.(const run $ socket_arg))

let client_cmd =
  Cmd.group
    (Cmd.info "client" ~doc:"Talk to a running omlinkd (see $(b,omlink serve)).")
    [ client_ping_cmd; client_link_cmd; client_stats_cmd; client_metrics_cmd;
      client_load_cmd; client_shutdown_cmd ]

let main =
  Cmd.group
    (Cmd.info "omlink" ~version:"1.0"
       ~doc:
         "Link-time optimization of address calculation on a 64-bit \
          architecture (Srivastava & Wall, PLDI 1994), reproduced.")
    [ compile_cmd; dis_cmd; run_cmd; image_cmd; stats_cmd; profile_cmd;
      suite_cmd; Bench.cmd; fuzz_cmd; metrics_cmd; serve_cmd; client_cmd ]

let () = exit (Cmd.eval main)
