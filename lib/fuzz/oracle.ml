type failure = { stage : string; detail : string }

let pp_failure ppf f = Format.fprintf ppf "[%s] %s" f.stage f.detail
let generated_failure f = f.stage = "compile" || f.stage = "resolve"

let fail stage fmt =
  Format.kasprintf (fun detail -> Error { stage; detail }) fmt

let ( let* ) = Result.bind

(* Generated programs are budget-bounded to a couple hundred thousand
   instructions; a limit three orders of magnitude above that catches a
   divergent image in well under a second instead of minutes. *)
let config = { Machine.Cpu.default_config with Machine.Cpu.max_insns = 50_000_000 }

let check_stats what (fast : Machine.Cpu.outcome) (ref_ : Machine.Cpu.outcome)
    =
  let s_f = fast.Machine.Cpu.stats and s_r = ref_.Machine.Cpu.stats in
  let cmp name f =
    let a = f s_f and b = f s_r in
    if a = b then Ok () else fail ("interp " ^ what) "%s: fast %d, reference %d" name a b
  in
  if fast.Machine.Cpu.output <> ref_.Machine.Cpu.output then
    fail ("interp " ^ what) "output differs:\nfast     : %S\nreference: %S"
      fast.Machine.Cpu.output ref_.Machine.Cpu.output
  else if fast.Machine.Cpu.exit_code <> ref_.Machine.Cpu.exit_code then
    fail ("interp " ^ what) "exit code: fast %Ld, reference %Ld"
      fast.Machine.Cpu.exit_code ref_.Machine.Cpu.exit_code
  else
    let* () = cmp "insns" (fun s -> s.Machine.Cpu.insns) in
    let* () = cmp "cycles" (fun s -> s.Machine.Cpu.cycles) in
    let* () = cmp "loads" (fun s -> s.Machine.Cpu.loads) in
    let* () = cmp "stores" (fun s -> s.Machine.Cpu.stores) in
    let* () = cmp "icache misses" (fun s -> s.Machine.Cpu.icache_misses) in
    let* () = cmp "dcache misses" (fun s -> s.Machine.Cpu.dcache_misses) in
    cmp "nops" (fun s -> s.Machine.Cpu.nops_executed)

let reference_profile ?config (d : Linker.Image.decoded) =
  let image = d.Linker.Image.image in
  let p = Machine.Blocks.profile d in
  let bump (a : int array) i n = a.(i) <- a.(i) + n in
  let probe (ev : Machine.Cpu.probe_event) =
    let i = (ev.Machine.Cpu.ev_pc - image.Linker.Image.text_base) asr 2 in
    bump p.Machine.Blocks.retired i 1;
    bump p.Machine.Blocks.cycles i ev.Machine.Cpu.ev_cycles;
    if ev.Machine.Cpu.ev_icache_miss then bump p.Machine.Blocks.imisses i 1;
    if ev.Machine.Cpu.ev_dcache_miss then bump p.Machine.Blocks.dmisses i 1
  in
  (Machine.Cpu.run_reference ?config ~probe image, p)

let check_profile what (d : Linker.Image.decoded) ~fused ~reference =
  let counters =
    let open Machine.Blocks in
    [ ("retired", fused.retired, reference.retired);
      ("cycles", fused.cycles, reference.cycles);
      ("icache misses", fused.imisses, reference.imisses);
      ("dcache misses", fused.dmisses, reference.dmisses) ]
  in
  let text_base = d.Linker.Image.image.Linker.Image.text_base in
  let rec scan i =
    if i >= Array.length fused.Machine.Blocks.retired then Ok ()
    else
      match List.find_opt (fun (_, f, r) -> f.(i) <> r.(i)) counters with
      | None -> scan (i + 1)
      | Some (name, f, r) ->
          fail ("attr " ^ what) "pc 0x%x %s: fused %d, reference %d"
            (text_base + (4 * i)) name f.(i) r.(i)
  in
  scan 0

(* Oracle 3: the decoded fast path and the reference interpreter must
   agree on the outcome and on every counter, and the fast path must
   attribute every counter to the same instructions as the reference's
   probe. A plain fused run shares the profiled run's executors and
   dispatch loop, so the image is simulated once, profiled. A fault from
   either is a failure outright — generated programs are well-defined by
   construction, so no image may trap. *)
let run_both what decoded =
  let fused = Machine.Blocks.profile decoded in
  let* fast =
    match Machine.Cpu.run_decoded ~config ~profile:fused decoded with
    | Ok o -> Ok o
    | Error e -> fail ("run " ^ what) "fast path: %a" Machine.Cpu.pp_error e
  in
  let ref_result, reference = reference_profile ~config decoded in
  let* ref_ =
    match ref_result with
    | Ok o -> Ok o
    | Error e ->
        fail ("interp " ^ what) "reference faulted (%a), fast path ran"
          Machine.Cpu.pp_error e
  in
  let* () = check_stats what fast ref_ in
  let* () = check_profile what decoded ~fused ~reference in
  Ok fast

(* Oracle 1: observable behavior must not depend on the link
   configuration. Stats legitimately differ across levels; output and
   exit state may not. *)
let check_behavior what ~(baseline : Machine.Cpu.outcome)
    (o : Machine.Cpu.outcome) =
  if o.Machine.Cpu.output <> baseline.Machine.Cpu.output then
    fail ("behavior " ^ what)
      "output differs from the standard link:\nstandard: %S\n%s: %S"
      baseline.Machine.Cpu.output what o.Machine.Cpu.output
  else if o.Machine.Cpu.exit_code <> baseline.Machine.Cpu.exit_code then
    fail ("behavior " ^ what)
      "exit code differs from the standard link: standard %Ld, %s %Ld"
      baseline.Machine.Cpu.exit_code what o.Machine.Cpu.exit_code
  else Ok ()

let check_image what ?baseline decoded =
  let* outcome = run_both what decoded in
  let* () =
    match baseline with
    | None -> Ok ()
    | Some b -> check_behavior what ~baseline:b outcome
  in
  Ok outcome

(* Oracle 2: the structural checker must come back clean. Every link
   fails unless it does ([Om.link_at] verifies the standard image as it
   does each level's), and the text the checker decoded is what the
   interpreters run. *)
let link what target world =
  match Om.link_at target world with
  | Ok (decoded, _) -> Ok decoded
  | Error m -> fail ("link " ^ what) "%s" m

(* Each target's image, in [Om.targets] order, through oracles 1 and 3.
   Unless the caller brings a baseline (the other build's), the first
   target's, the standard link's, is the baseline of the rest; returns
   the baseline. *)
let rec check_world tag world ?baseline = function
  | [] -> Ok baseline
  | target :: rest ->
      let what = tag ^ Om.target_name target in
      let* decoded = link what target world in
      let* outcome = check_image what ?baseline decoded in
      check_world tag world
        ~baseline:(Option.value baseline ~default:outcome)
        rest

(* One §5 build of the program, compiled and resolved as the suite
   builds a benchmark (the merged unit is [fuzz_all.o]); [tag] prefixes
   its compile or resolve failure. *)
let resolve tag build sources =
  match
    Workloads.Suite.resolve build { Workloads.Programs.name = "fuzz"; sources }
  with
  | Ok world -> Ok world
  | Error m -> fail "resolve" "%s%s" tag m
  | exception Minic.Driver.Error m -> fail "compile" "%s%s" tag m

let check_sources_exn sources =
  (* Compile-each: the paper's conservative per-module build, the
     configuration with the most GAT and GP-setup pressure. *)
  let* world = resolve "" Workloads.Suite.Compile_each sources in
  let* baseline = check_world "" world Om.targets in
  (* Compile-all: merged with interprocedural knowledge and inlining —
     the other §5 build style; must still behave identically. *)
  let* world_all = resolve "merged: " Workloads.Suite.Compile_all sources in
  let* _ = check_world "merged " world_all ?baseline Om.targets in
  Ok ()

(* A stray exception anywhere in the pipeline — an [invalid_arg] deep in
   codegen, say — is itself a reportable finding, and must not take the
   whole campaign down through the domain pool. [Driver.Error] is already
   mapped to the "compile" stage above, so whatever reaches this handler
   is a crash, which the shrinker treats as a pipeline-class failure. *)
let check_sources sources =
  try check_sources_exn sources
  with e -> fail "exception" "%s" (Printexc.to_string e)

let check prog = check_sources (Prog.render prog)
