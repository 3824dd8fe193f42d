module Rng = Rng
module Prog = Prog
module Gen = Gen
module Oracle = Oracle

let case_seed ~seed ~index = Rng.derive seed index

let run_case ?(span_stress = false) cs =
  Oracle.check (Gen.program ~span_stress cs)

let shrink ?(max_checks = 2000) prog failure =
  let checks = ref 0 in
  let same_class f =
    Oracle.generated_failure f = Oracle.generated_failure failure
  in
  let rec go p pf =
    let rec walk seq =
      match seq () with
      | Seq.Nil -> (p, pf)
      | Seq.Cons (cand, rest) ->
          if !checks >= max_checks then (p, pf)
          else begin
            incr checks;
            match Oracle.check cand with
            | Error f when same_class f -> go cand f
            | _ -> walk rest
          end
    in
    walk (Prog.shrink_steps p)
  in
  go prog failure

type reproducer = {
  r_index : int;
  r_case_seed : int;
  r_failure : Oracle.failure;
  r_prog : Prog.t;
  r_shrunk : Prog.t;
  r_shrunk_failure : Oracle.failure;
  r_dir : string option;
}

type report = { seed : int; count : int; failed : reproducer list }

let ensure_dir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc contents)

let write_sources dir prog =
  ensure_dir dir;
  List.iter
    (fun (name, src) -> write_file (Filename.concat dir (name ^ ".mc")) src)
    (Prog.render prog)

let write_reproducer ~out_dir ~seed r =
  ensure_dir out_dir;
  let dir =
    Filename.concat out_dir (Printf.sprintf "case-%d-%d" seed r.r_index)
  in
  ensure_dir dir;
  write_sources (Filename.concat dir "original") r.r_prog;
  write_sources (Filename.concat dir "shrunk") r.r_shrunk;
  let readme =
    Format.asprintf
      "# fuzz reproducer: campaign seed %d, case %d\n\n\
       - case seed: `%d` (replay with `omlink fuzz --replay %d`)\n\
       - original failure: %a\n\
       - shrunk failure: %a\n\
       - size: %d nodes original, %d shrunk\n\n\
       `original/` holds the generated modules as the campaign saw them;\n\
       `shrunk/` is the greedy minimization that still fails. Each `.mc`\n\
       file is one minic module; compile them together (compile-each or\n\
       merged) against the standard prelude to reproduce.\n"
      seed r.r_index r.r_case_seed r.r_case_seed Oracle.pp_failure r.r_failure
      Oracle.pp_failure r.r_shrunk_failure (Prog.size r.r_prog)
      (Prog.size r.r_shrunk)
  in
  write_file (Filename.concat dir "README.md") readme;
  dir

let campaign ?jobs ?(out_dir = Some "_fuzz") ?progress ?(span_stress = false)
    ~seed ~count () =
  let jobs =
    match jobs with Some j -> j | None -> Domain.recommended_domain_count ()
  in
  (* Force [Runtime.libstd]'s toplevel lazy before the first
     [Domain.spawn]; concurrent forcing raises CamlinternalLazy.Undefined
     (same hazard Reports.Runner.warm_up guards against). *)
  ignore (Runtime.libstd ());
  (* Chunked so long campaigns can report progress; chunking does not
     affect results — each case depends only on its derived seed. *)
  let chunk = max 1 (jobs * 8) in
  let failures = ref [] in
  let done_ = ref 0 in
  let rec sweep lo =
    if lo < count then begin
      let hi = min count (lo + chunk) in
      let indices = List.init (hi - lo) (fun k -> lo + k) in
      let results =
        Reports.Pool.map ~jobs
          (fun index ->
            let cs = case_seed ~seed ~index in
            match run_case ~span_stress cs with
            | Ok () -> None
            | Error f -> Some (index, cs, f))
          indices
      in
      List.iter
        (function Some r -> failures := r :: !failures | None -> ())
        results;
      done_ := hi;
      (match progress with
      | Some p -> p ~done_:hi ~total:count ~failed:(List.length !failures)
      | None -> ());
      sweep hi
    end
  in
  sweep 0;
  let failed =
    List.rev_map
      (fun (index, cs, f) ->
        let prog = Gen.program ~span_stress cs in
        let shrunk, shrunk_failure = shrink prog f in
        let r =
          {
            r_index = index;
            r_case_seed = cs;
            r_failure = f;
            r_prog = prog;
            r_shrunk = shrunk;
            r_shrunk_failure = shrunk_failure;
            r_dir = None;
          }
        in
        match out_dir with
        | None -> r
        | Some d -> { r with r_dir = Some (write_reproducer ~out_dir:d ~seed r) })
      !failures
  in
  { seed; count; failed }

let pp_report ppf r =
  if r.failed = [] then
    Format.fprintf ppf "fuzz: seed %d: %d/%d cases passed" r.seed r.count
      r.count
  else begin
    Format.fprintf ppf "fuzz: seed %d: %d failure(s) in %d cases" r.seed
      (List.length r.failed) r.count;
    List.iter
      (fun f ->
        Format.fprintf ppf "@\n  case %d (seed %d): %a" f.r_index f.r_case_seed
          Oracle.pp_failure f.r_shrunk_failure;
        match f.r_dir with
        | Some d -> Format.fprintf ppf "@\n    reproducer: %s" d
        | None -> ())
      r.failed
  end
