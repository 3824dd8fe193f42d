(* Report-vs-report regression gate.

   Rows are matched across the two reports by (bench, build), runs by
   level and relinks by program. Simulated cycle counts, improvement
   percentages and image sizes are deterministic for a given source
   tree, so they gate hard; MIPS and relink wall-times depend on the
   host and only warn, apart from the optional absolute MIPS floor. The
   bounds: *)

let max_cycle_regress_pct = 0.5
let max_improvement_drop_pts = 1.0
let max_size_regress_pct = 0.5
let warn_mips_drop_pct = 10.
let warn_relink_regress_pct = 25.

type finding = {
  subject : string;   (* "bench/build level" or similar *)
  metric : string;    (* "cycles", "improvement_pct", "mips", ... *)
  old_value : float;
  new_value : float;
  delta_pct : float;  (* positive = worse *)
}

type outcome = {
  regressions : finding list;
  warnings : finding list;
  improvements : finding list;
  missing : string list;   (* rows/runs present in OLD but absent in NEW *)
}

let ok outcome = outcome.regressions = [] && outcome.missing = []

let pct_change ~old_v ~new_v =
  if old_v = 0. then if new_v = 0. then 0. else 100.
  else (new_v -. old_v) /. Float.abs old_v *. 100.

let finding subject metric ~old_v ~new_v ~worse_pct =
  { subject; metric; old_value = old_v; new_value = new_v; delta_pct = worse_pct }

let bench_key (b : Report.bench) = (b.Report.bench, b.Report.build)

let subject_of (b : Report.bench) =
  Printf.sprintf "%s/%s" b.Report.bench b.Report.build

(* a finding worse than [limit] regresses; one better than before
   improves *)
let gate limit f acc =
  if f.delta_pct > limit then { acc with regressions = f :: acc.regressions }
  else if f.delta_pct < 0. then
    { acc with improvements = f :: acc.improvements }
  else acc

(* host-dependent: a finding worse than [limit] only warns *)
let warn limit f acc =
  if f.delta_pct > limit then { acc with warnings = f :: acc.warnings }
  else acc

(* a count, size or time: higher is worse *)
let growth subject metric old_v new_v =
  finding subject metric ~old_v ~new_v ~worse_pct:(pct_change ~old_v ~new_v)

let compare_cycles subject acc ~old_c ~new_c =
  gate max_cycle_regress_pct
    (growth subject "cycles" (float_of_int old_c) (float_of_int new_c))
    acc

(* improvement_pct: lower is worse; measured in points, not percent *)
let compare_improvement subject acc ~old_i ~new_i =
  gate max_improvement_drop_pts
    (finding subject "improvement_pct" ~old_v:old_i ~new_v:new_i
       ~worse_pct:(old_i -. new_i))
    acc

(* image sizes: each of text, data and GAT bytes gets its own finding *)
let compare_size subject acc ~old_s ~new_s =
  match (old_s, new_s) with
  | Some (o : Report.size), Some (n : Report.size) ->
      List.fold_left
        (fun acc (metric, old_b, new_b) ->
          gate max_size_regress_pct
            (growth subject metric (float_of_int old_b) (float_of_int new_b))
            acc)
        acc
        [ ("text_bytes", o.Report.text_bytes, n.Report.text_bytes);
          ("data_bytes", o.Report.data_bytes, n.Report.data_bytes);
          ("gat_bytes", o.Report.gat_bytes, n.Report.gat_bytes) ]
  | _ -> acc

(* host MIPS, lower is worse: a drop past 10% warns, and a figure under
   [min_mips] regresses — an absolute floor, independent of the old
   report, against the fast path silently degenerating to interpreter
   speed. The floor finding's [old_value] is the floor itself, so it
   prints as "floor -> measured". *)
let compare_mips subject min_mips acc ~old_m ~new_m =
  match new_m with
  | None -> acc
  | Some new_m -> (
      let acc =
        match old_m with
        | Some old_m ->
            warn warn_mips_drop_pct
              (finding subject "mips" ~old_v:old_m ~new_v:new_m
                 ~worse_pct:(-.pct_change ~old_v:old_m ~new_v:new_m))
              acc
        | None -> acc
      in
      match min_mips with
      | Some floor when new_m < floor ->
          let f =
            finding subject "mips_floor" ~old_v:floor ~new_v:new_m
              ~worse_pct:(-.pct_change ~old_v:floor ~new_v:new_m)
          in
          { acc with regressions = f :: acc.regressions }
      | _ -> acc)

(* relink cold/warm seconds *)
let compare_relink subject acc name ~old_s ~new_s =
  if old_s <= 0. || new_s <= 0. then acc
  else warn warn_relink_regress_pct (growth subject name old_s new_s) acc

(* one run of the row [ob] against its namesake in [nb]; the standard
   run is a run like any other (its improvement is 0 on both sides) *)
let compare_run subject min_mips acc (ob, (o : Report.run)) (nb, n) =
  let acc =
    compare_cycles subject acc ~old_c:o.Report.cycles ~new_c:n.Report.cycles
  in
  let acc =
    compare_improvement subject acc ~old_i:(Report.improvement ob o)
      ~new_i:(Report.improvement nb n)
  in
  let acc =
    compare_size subject acc ~old_s:o.Report.size ~new_s:n.Report.size
  in
  compare_mips subject min_mips acc ~old_m:(Report.mips o)
    ~new_m:(Report.mips n)

let compare_bench min_mips acc (o : Report.bench) (n : Report.bench) =
  List.fold_left
    (fun acc (orun : Report.run) ->
      let subject = Printf.sprintf "%s %s" (subject_of o) orun.Report.level in
      match Report.find_run n orun.Report.level with
      | None -> { acc with missing = subject :: acc.missing }
      | Some nrun -> compare_run subject min_mips acc (o, orun) (n, nrun))
    acc o.Report.runs

(* relinks are per program and host-dependent: they only warn, and a
   program timed in one report but not the other is skipped *)
let compare_relinks acc ~old_r ~new_r =
  List.fold_left
    (fun acc (name, (o : Report.relink)) ->
      match List.assoc_opt name new_r.Report.relinks with
      | None -> acc
      | Some (n : Report.relink) ->
          let subject = name ^ " relink" in
          let acc =
            compare_relink subject acc "relink_cold_s" ~old_s:o.Report.cold_s
              ~new_s:n.Report.cold_s
          in
          compare_relink subject acc "relink_warm_s" ~old_s:o.Report.warm_s
            ~new_s:n.Report.warm_s)
    acc old_r.Report.relinks

let compare ?min_mips ~old_r ~new_r () =
  let empty = { regressions = []; warnings = []; improvements = []; missing = [] } in
  let acc =
    List.fold_left
      (fun acc (ob : Report.bench) ->
        match
          List.find_opt
            (fun (nb : Report.bench) -> bench_key nb = bench_key ob)
            new_r.Report.results
        with
        | None -> { acc with missing = subject_of ob :: acc.missing }
        | Some nb -> compare_bench min_mips acc ob nb)
      empty old_r.Report.results
  in
  let acc = compare_relinks acc ~old_r ~new_r in
  { regressions = List.rev acc.regressions;
    warnings = List.rev acc.warnings;
    improvements = List.rev acc.improvements;
    missing = List.rev acc.missing }

let pp_finding ppf f =
  Format.fprintf ppf "%-40s %-18s %12.2f -> %12.2f  (%+.2f%s)" f.subject
    f.metric f.old_value f.new_value f.delta_pct
    (if f.metric = "improvement_pct" then " pts worse" else "% worse")

let pp_outcome ppf o =
  let section name items =
    if items <> [] then begin
      Format.fprintf ppf "@[<v>%s:@," name;
      List.iter (fun f -> Format.fprintf ppf "  %a@," pp_finding f) items;
      Format.fprintf ppf "@]"
    end
  in
  section "REGRESSIONS" o.regressions;
  section "warnings (host-dependent, not gating)" o.warnings;
  section "improvements" o.improvements;
  if o.missing <> [] then begin
    Format.fprintf ppf "@[<v>missing in new report:@,";
    List.iter (fun s -> Format.fprintf ppf "  %s@," s) o.missing;
    Format.fprintf ppf "@]"
  end;
  if o.regressions = [] && o.warnings = [] && o.missing = [] then
    Format.fprintf ppf "no regressions@."
