(* End-to-end tests over real suite benchmarks: every build style and
   optimization level must agree bit-for-bit on program output, and the
   static statistics must satisfy the paper's qualitative claims. *)

let quick_benchmarks = [ "li"; "compress"; "tomcatv"; "spice"; "eqntott" ]

let get name =
  match Workloads.Programs.find name with
  | Some b -> b
  | None -> Alcotest.failf "unknown benchmark %s" name

let measure name build =
  match Reports.Measure.run_benchmark build (get name) with
  | Ok r -> r
  | Error m -> Alcotest.failf "%s: %s" name m

(* the standard image's output, from a plain simulation *)
let std_output name build =
  match
    Result.bind (Workloads.Suite.resolve build (get name))
      Linker.Link.link_resolved
  with
  | Error m -> Alcotest.failf "%s: %s" name m
  | Ok image -> (
      match Machine.Cpu.run image with
      | Ok o -> o.Machine.Cpu.output
      | Error e -> Alcotest.failf "%s faults: %a" name Machine.Cpu.pp_error e)

let test_outputs_agree name () =
  List.iter
    (fun build ->
      let r = measure name build in
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s outputs agree" name
           (Workloads.Suite.build_name build))
        true r.Obs.Report.outputs_agree;
      Alcotest.(check bool) "output is nonempty" true
        (String.length (std_output name build) > 0))
    Workloads.Suite.all_builds

let stats_exn r level =
  match Reports.Measure.stats_of r level with
  | Some s -> s
  | None -> Alcotest.fail "missing stats"

let test_paper_claims name () =
  let r = measure name Workloads.Suite.Compile_each in
  let simple = stats_exn r Om.Simple in
  let full = stats_exn r Om.Full in
  (* OM-simple never changes the instruction count; OM-full shrinks it *)
  Alcotest.(check int) "simple preserves size" simple.Om.Stats.insns_before
    simple.Om.Stats.insns_after;
  Alcotest.(check bool) "full shrinks the program" true
    (full.Om.Stats.insns_after < full.Om.Stats.insns_before);
  (* address loads: full removes at least as many as simple *)
  Alcotest.(check bool) "full removes at least as many address loads" true
    (full.Om.Stats.addr_converted + full.Om.Stats.addr_nullified
    >= simple.Om.Stats.addr_converted + simple.Om.Stats.addr_nullified);
  (* essentially all jsr calls become bsr under both levels *)
  Alcotest.(check bool) "jsr mostly gone (simple)" true
    (simple.Om.Stats.jsr_after * 4 <= simple.Om.Stats.jsr_before);
  (* GP-reset and PV-load requirements only improve with effort *)
  Alcotest.(check bool) "pv: full <= simple" true
    (full.Om.Stats.calls_pv_after <= simple.Om.Stats.calls_pv_after);
  Alcotest.(check bool) "reset: full <= simple" true
    (full.Om.Stats.calls_reset_after <= simple.Om.Stats.calls_reset_after);
  (* GAT reduction is dramatic under full *)
  Alcotest.(check bool) "GAT shrinks by more than half" true
    (full.Om.Stats.gat_bytes_after * 2 < full.Om.Stats.gat_bytes_before)

let test_compile_all_calls_cheaper () =
  (* under compile-all, fewer call sites need bookkeeping to begin with
     (the compiler optimized user-to-user calls), but library calls keep
     the fraction high — the paper's core observation *)
  let r_each = measure "li" Workloads.Suite.Compile_each in
  let r_all = measure "li" Workloads.Suite.Compile_all in
  let s_each = stats_exn r_each Om.Simple in
  let s_all = stats_exn r_all Om.Simple in
  let frac (s : Om.Stats.t) =
    float_of_int s.Om.Stats.calls_pv_before /. float_of_int (max 1 s.Om.Stats.calls)
  in
  Alcotest.(check bool) "compile-all needs fewer pv loads up front" true
    (frac s_all <= frac s_each);
  Alcotest.(check bool) "but far from zero (library calls remain)" true
    (frac s_all > 0.3)

let test_dynamic_improvement_band () =
  (* the headline effect: OM-full should help li (a very call-dense
     program) by several percent, and never corrupt it *)
  let r = measure "li" Workloads.Suite.Compile_each in
  let imp = Reports.Measure.improvement r Om.Full in
  Alcotest.(check bool)
    (Printf.sprintf "li improves by >2%% (got %.2f%%)" imp)
    true (imp > 2.)

let test_insn_counts_drop_under_full () =
  let r = measure "compress" Workloads.Suite.Compile_each in
  let insns level =
    match Obs.Report.find_run r level with
    | Some run -> run.Obs.Report.insns
    | None -> Alcotest.failf "no %s run" level
  in
  Alcotest.(check bool) "dynamic instructions drop" true
    (insns (Om.level_name Om.Full) < insns Obs.Report.standard_level)

let test_all_benchmarks_compile () =
  (* every benchmark of the suite at least compiles and resolves in both
     build styles (full dynamic checks run in the benchmark harness) *)
  List.iter
    (fun (b : Workloads.Programs.benchmark) ->
      List.iter
        (fun build ->
          match Workloads.Suite.resolve build b with
          | Ok _ -> ()
          | Error m ->
              Alcotest.failf "%s (%s): %s" b.name
                (Workloads.Suite.build_name build) m)
        Workloads.Suite.all_builds)
    Workloads.Programs.all

let test_timing_harness () =
  let t =
    match Reports.Measure.time_builds (get "li") with
    | Ok t -> t
    | Error m -> Alcotest.failf "time_builds: %s" m
  in
  Alcotest.(check bool) "timings positive" true
    (t.Reports.Measure.t_std_link >= 0.
    && List.for_all (fun (_, v) -> v >= 0.) t.Reports.Measure.t_om);
  (* one timed OM column per level, in all_levels order *)
  Alcotest.(check (list string)) "om columns cover all levels"
    (List.map Om.level_name Om.all_levels)
    (List.map (fun (l, _) -> Om.level_name l) t.Reports.Measure.t_om);
  (* the interprocedural rebuild includes compilation, so it costs more
     than a standard link — the paper's Figure 7 argument *)
  Alcotest.(check bool) "interproc build slower than standard link" true
    (t.Reports.Measure.t_interproc > t.Reports.Measure.t_std_link)

let suite =
  ( "integration",
    List.map
      (fun name ->
        Alcotest.test_case
          (Printf.sprintf "%s agrees at all levels" name)
          `Slow (test_outputs_agree name))
      quick_benchmarks
    @ [ Alcotest.test_case "paper claims (li)" `Slow (test_paper_claims "li");
        Alcotest.test_case "paper claims (compress)" `Slow
          (test_paper_claims "compress");
        Alcotest.test_case "paper claims (tomcatv)" `Slow
          (test_paper_claims "tomcatv");
        Alcotest.test_case "compile-all call bookkeeping" `Slow
          test_compile_all_calls_cheaper;
        Alcotest.test_case "dynamic improvement band" `Slow
          test_dynamic_improvement_band;
        Alcotest.test_case "dynamic instruction drop" `Slow
          test_insn_counts_drop_under_full;
        Alcotest.test_case "all benchmarks compile" `Slow
          test_all_benchmarks_compile;
        Alcotest.test_case "timing harness" `Slow test_timing_harness ] )

(* --- determinism and budget --- *)

let test_suite_deterministic () =
  let b = get "compress" in
  let run () =
    let w =
      match Workloads.Suite.compile_cached Workloads.Suite.Compile_each b with
      | Ok w -> w
      | Error m -> Alcotest.fail m
    in
    let img = Result.get_ok (Linker.Link.link_resolved w) in
    match Machine.Cpu.run img with
    | Ok o -> (o.Machine.Cpu.output, o.Machine.Cpu.stats.Machine.Cpu.cycles)
    | Error _ -> Alcotest.fail "fault"
  in
  let a = run () and b' = run () in
  Alcotest.(check string) "same output" (fst a) (fst b');
  Alcotest.(check int) "same cycles" (snd a) (snd b')

let test_suite_budget () =
  (* keep the harness usable: no benchmark may exceed 40M instructions *)
  List.iter
    (fun (b : Workloads.Programs.benchmark) ->
      let w =
        match Workloads.Suite.compile_cached Workloads.Suite.Compile_each b with
        | Ok w -> w
        | Error m -> Alcotest.fail m
      in
      let img = Result.get_ok (Linker.Link.link_resolved w) in
      match Machine.Cpu.run img with
      | Ok o ->
          Alcotest.(check bool)
            (Printf.sprintf "%s within budget (%d insns)" b.name
               o.Machine.Cpu.stats.Machine.Cpu.insns)
            true
            (o.Machine.Cpu.stats.Machine.Cpu.insns < 40_000_000)
      | Error e ->
          Alcotest.failf "%s faults: %a" b.name Machine.Cpu.pp_error e)
    Workloads.Programs.all

(* --- link-path allocation --- *)

(* Minor words one call of [f] allocates, after a warm-up call. The count
   is exact and deterministic, so it gates where wall time cannot. *)
let minor_words f =
  ignore (Sys.opaque_identity (f ()));
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. w0

(* compress, compile-all: each stage may allocate at most 1.15x the minor
   words measured when validation stopped building instructions (the
   standard link's [Image.validate] and the compiler's [Cunit.validate]
   scan the text with [Isa.Decode.validate]) and [Om.Verify] came to hand
   its decoded text on. The parent of that change measured 70.7 K at
   compile, 6.5 K at the standard link, 24.2 K at om-noopt, 36.5 K at
   om-simple, 39.7 K at om-full, 66.7 K at om-full+sched and 47.4 K at
   om-gc. [Image.validate] itself allocates under 64 words on every
   quick-subset standard image: it builds nothing per word. *)
let test_link_path_allocation () =
  let b = get "compress" and build = Workloads.Suite.Compile_all in
  let over = ref [] in
  let check stage reference words =
    let budget = 1.15 *. reference in
    if words > budget then
      over :=
        Printf.sprintf
          "%s allocates %.0f minor words, over its budget of %.0f (1.15 x %.0f)"
          stage words budget reference
        :: !over
  in
  check "compile" 68_466.
    (minor_words (fun () -> Workloads.Suite.compile build b));
  let world =
    match Workloads.Suite.resolve build b with
    | Ok w -> w
    | Error m -> Alcotest.fail m
  in
  check "standard" 2_130.
    (minor_words (fun () -> Linker.Link.link_resolved world));
  let reference = function
    | Om.No_opt -> 24_237.
    | Om.Simple -> 36_490.
    | Om.Full -> 39_694.
    | Om.Full_sched -> 66_753.
    | Om.Gc -> 47_449.
  in
  List.iter
    (fun level ->
      check (Om.level_name level) (reference level)
        (minor_words (fun () -> Om.optimize_resolved level world)))
    Om.all_levels;
  List.iter
    (fun (q : Workloads.Programs.benchmark) ->
      List.iter
        (fun build ->
          match Workloads.Suite.compile_cached build q with
          | Error m -> Alcotest.fail m
          | Ok world -> (
              match Linker.Link.link_resolved world with
              | Error m -> Alcotest.fail m
              | Ok std ->
                  let words =
                    minor_words (fun () -> Linker.Image.validate std)
                  in
                  if words >= 64. then
                    over :=
                      Printf.sprintf
                        "%s %s: Image.validate allocates %.0f minor words, \
                         64 or more"
                        q.name
                        (Workloads.Suite.build_name build)
                        words
                      :: !over))
        Workloads.Suite.all_builds)
    (Testutil.quick_benchmarks ());
  if !over <> [] then Alcotest.fail (String.concat "; " (List.rev !over))

let suite =
  let name, cases = suite in
  ( name,
    cases
    @ [ Alcotest.test_case "suite determinism" `Slow test_suite_deterministic;
        Alcotest.test_case "suite instruction budget" `Slow test_suite_budget;
        Alcotest.test_case "link path allocation budget" `Quick
          test_link_path_allocation ] )
