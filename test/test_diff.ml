(* Differential testing of the two interpreters.

   The decoded fast path (Machine.Cpu.run_decoded) and the retained
   symbolic reference interpreter (Machine.Cpu.run_reference) must agree on
   everything observable — stats, program output, exit code — for every
   image the suite can produce: each benchmark, both build styles, the
   standard link and every OM level.

   By default the quick five-benchmark subset runs (the same one
   omlink bench quick uses); set OMLT_DIFF_FULL=1 to sweep all
   benchmarks. *)

let benchmarks () =
  match Sys.getenv_opt "OMLT_DIFF_FULL" with
  | Some ("1" | "true" | "yes") -> Workloads.Programs.all
  | _ -> Testutil.quick_benchmarks ()

let check_outcome what (fast : Machine.Cpu.outcome)
    (ref_ : Machine.Cpu.outcome) =
  Alcotest.(check string) (what ^ ": output") ref_.Machine.Cpu.output
    fast.Machine.Cpu.output;
  Alcotest.(check int64) (what ^ ": exit code") ref_.Machine.Cpu.exit_code
    fast.Machine.Cpu.exit_code;
  let s_f = fast.Machine.Cpu.stats and s_r = ref_.Machine.Cpu.stats in
  Alcotest.(check int) (what ^ ": insns") s_r.Machine.Cpu.insns
    s_f.Machine.Cpu.insns;
  Alcotest.(check int) (what ^ ": cycles") s_r.Machine.Cpu.cycles
    s_f.Machine.Cpu.cycles;
  Alcotest.(check int) (what ^ ": loads") s_r.Machine.Cpu.loads
    s_f.Machine.Cpu.loads;
  Alcotest.(check int) (what ^ ": stores") s_r.Machine.Cpu.stores
    s_f.Machine.Cpu.stores;
  Alcotest.(check int) (what ^ ": icache misses")
    s_r.Machine.Cpu.icache_misses s_f.Machine.Cpu.icache_misses;
  Alcotest.(check int) (what ^ ": dcache misses")
    s_r.Machine.Cpu.dcache_misses s_f.Machine.Cpu.dcache_misses;
  Alcotest.(check int) (what ^ ": nops") s_r.Machine.Cpu.nops_executed
    s_f.Machine.Cpu.nops_executed

let check_image what (d : Linker.Image.decoded) =
  match (Machine.Cpu.run_decoded d, Machine.Cpu.run_reference d.image) with
  | Ok fast, Ok ref_ -> check_outcome what fast ref_
  | Error e, Ok _ ->
      Alcotest.failf "%s: fast path faulted (%a), reference ran" what
        Machine.Cpu.pp_error e
  | Ok _, Error e ->
      Alcotest.failf "%s: reference faulted (%a), fast path ran" what
        Machine.Cpu.pp_error e
  | Error ef, Error er ->
      Alcotest.(check string) (what ^ ": same fault")
        (Format.asprintf "%a" Machine.Cpu.pp_error er)
        (Format.asprintf "%a" Machine.Cpu.pp_error ef)

let test_fast_path_matches_reference () =
  List.iter
    (fun (b : Workloads.Programs.benchmark) ->
      List.iter
        (fun build ->
          let what level =
            Printf.sprintf "%s/%s/%s" b.Workloads.Programs.name
              (Workloads.Suite.build_name build) level
          in
          let world =
            match Workloads.Suite.compile_cached build b with
            | Ok w -> w
            | Error m -> Alcotest.failf "%s: %s" (what "compile") m
          in
          List.iter
            (fun (level, d) -> check_image (what level) d)
            (Testutil.target_images world))
        Workloads.Suite.all_builds)
    (benchmarks ())

let suite =
  ( "diff",
    [ Alcotest.test_case "fast path matches reference interpreter" `Slow
        test_fast_path_matches_reference ] )
