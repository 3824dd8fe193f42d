(* Report-vs-report regression gate.

   Rows are matched across the two reports by (bench, build) and runs by
   level. Simulated cycle counts and improvement percentages are
   deterministic for a given source tree, so they gate hard by default;
   MIPS and relink wall-times depend on the host and only gate when a
   threshold is explicitly supplied — otherwise they surface as
   warnings. *)

type thresholds = {
  max_cycle_regress_pct : float;
  max_improvement_drop_pts : float;
  max_mips_drop_pct : float option;
  min_mips : float option;
  max_relink_regress_pct : float option;
  max_size_regress_pct : float;
}

let default_thresholds =
  { max_cycle_regress_pct = 0.5;
    max_improvement_drop_pts = 1.0;
    max_mips_drop_pct = None;
    min_mips = None;
    max_relink_regress_pct = None;
    max_size_regress_pct = 0.5 }

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

let run_key (r : Report.run) = r.Report.level
let bench_key (b : Report.bench) = (b.Report.bench, b.Report.build)

let subject_of (b : Report.bench) =
  Printf.sprintf "%s/%s" b.Report.bench b.Report.build

(* cycles: higher is worse *)
let compare_cycles subject t acc ~old_c ~new_c =
  let old_v = float_of_int old_c and new_v = float_of_int new_c in
  let worse = pct_change ~old_v ~new_v in
  let f = finding subject "cycles" ~old_v ~new_v ~worse_pct:worse in
  if worse > t.max_cycle_regress_pct then { acc with regressions = f :: acc.regressions }
  else if worse < 0. then { acc with improvements = f :: acc.improvements }
  else acc

(* improvement_pct: lower is worse; measured in points, not percent *)
let compare_improvement subject t acc ~old_i ~new_i =
  let drop = old_i -. new_i in
  let f = finding subject "improvement_pct" ~old_v:old_i ~new_v:new_i ~worse_pct:drop in
  if drop > t.max_improvement_drop_pts then
    { acc with regressions = f :: acc.regressions }
  else if drop < 0. then { acc with improvements = f :: acc.improvements }
  else acc

(* image sizes: byte counts are deterministic for a given tree, so they
   gate hard like cycles; each component gets its own finding *)
let compare_size subject t acc ~old_s ~new_s =
  match (old_s, new_s) with
  | Some (o : Report.size), Some (n : Report.size) ->
      List.fold_left
        (fun acc (metric, old_b, new_b) ->
          let old_v = float_of_int old_b and new_v = float_of_int new_b in
          let worse = pct_change ~old_v ~new_v in
          let f = finding subject metric ~old_v ~new_v ~worse_pct:worse in
          if worse > t.max_size_regress_pct then
            { acc with regressions = f :: acc.regressions }
          else if worse < 0. then
            { acc with improvements = f :: acc.improvements }
          else acc)
        acc
        [ ("text_bytes", o.Report.text_bytes, n.Report.text_bytes);
          ("data_bytes", o.Report.data_bytes, n.Report.data_bytes);
          ("gat_bytes", o.Report.gat_bytes, n.Report.gat_bytes) ]
  | _ -> acc

(* mips: lower is worse; warn unless a threshold was given *)
let compare_mips subject t acc ~old_m ~new_m =
  if old_m <= 0. || new_m <= 0. then acc
  else
    let drop = pct_change ~old_v:old_m ~new_v:new_m in
    let worse = -.drop in
    let f = finding subject "mips" ~old_v:old_m ~new_v:new_m ~worse_pct:worse in
    match t.max_mips_drop_pct with
    | Some limit when worse > limit -> { acc with regressions = f :: acc.regressions }
    | Some _ -> if worse < 0. then { acc with improvements = f :: acc.improvements } else acc
    | None ->
        if worse > 10. then { acc with warnings = f :: acc.warnings } else acc

(* mips floor: an absolute lower bound on the NEW report's throughput,
   independent of the old report — the gate against the fast path
   silently degenerating to interpreter speed. [old_value] carries the
   floor itself so the finding prints as "floor -> measured". *)
let check_mips_floor subject t acc ~new_m =
  match t.min_mips with
  | Some floor when new_m > 0. && new_m < floor ->
      let worse = pct_change ~old_v:floor ~new_v:new_m in
      let f =
        finding subject "mips_floor" ~old_v:floor ~new_v:new_m
          ~worse_pct:(-.worse)
      in
      { acc with regressions = f :: acc.regressions }
  | _ -> acc

(* relink cold/warm seconds: higher is worse; warn unless a threshold
   was given *)
let compare_relink subject t acc name ~old_s ~new_s =
  if old_s <= 0. || new_s <= 0. then acc
  else
    let worse = pct_change ~old_v:old_s ~new_v:new_s in
    let f = finding subject name ~old_v:old_s ~new_v:new_s ~worse_pct:worse in
    match t.max_relink_regress_pct with
    | Some limit when worse > limit -> { acc with regressions = f :: acc.regressions }
    | Some _ -> if worse < 0. then { acc with improvements = f :: acc.improvements } else acc
    | None ->
        if worse > 25. then { acc with warnings = f :: acc.warnings } else acc

let compare_run subject t acc (o : Report.run) (n : Report.run) =
  let acc =
    compare_cycles subject t acc ~old_c:o.Report.cycles ~new_c:n.Report.cycles
  in
  let acc =
    compare_improvement subject t acc ~old_i:o.Report.improvement_pct
      ~new_i:n.Report.improvement_pct
  in
  let acc =
    compare_size subject t acc ~old_s:o.Report.size ~new_s:n.Report.size
  in
  let acc =
    match (o.Report.host, n.Report.host) with
    | Some oh, Some nh ->
        compare_mips subject t acc ~old_m:oh.Report.mips ~new_m:nh.Report.mips
    | _ -> acc
  in
  match n.Report.host with
  | Some nh -> check_mips_floor subject t acc ~new_m:nh.Report.mips
  | None -> acc

let compare_bench t acc (o : Report.bench) (n : Report.bench) =
  let subject = subject_of o in
  let acc =
    compare_cycles (subject ^ " std") t acc ~old_c:o.Report.std_cycles
      ~new_c:n.Report.std_cycles
  in
  let acc =
    compare_size (subject ^ " std") t acc ~old_s:o.Report.std_size
      ~new_s:n.Report.std_size
  in
  let acc =
    match (o.Report.std_host, n.Report.std_host) with
    | Some oh, Some nh ->
        compare_mips (subject ^ " std") t acc ~old_m:oh.Report.mips
          ~new_m:nh.Report.mips
    | _ -> acc
  in
  let acc =
    match n.Report.std_host with
    | Some nh ->
        check_mips_floor (subject ^ " std") t acc ~new_m:nh.Report.mips
    | None -> acc
  in
  let acc =
    match (o.Report.relink, n.Report.relink) with
    | Some orel, Some nrel ->
        let acc =
          compare_relink (subject ^ " relink") t acc "relink_cold_s"
            ~old_s:orel.Report.cold_s ~new_s:nrel.Report.cold_s
        in
        compare_relink (subject ^ " relink") t acc "relink_warm_s"
          ~old_s:orel.Report.warm_s ~new_s:nrel.Report.warm_s
    | _ -> acc
  in
  List.fold_left
    (fun acc (orun : Report.run) ->
      match
        List.find_opt
          (fun (nr : Report.run) -> run_key nr = run_key orun)
          n.Report.runs
      with
      | None ->
          { acc with
            missing = Printf.sprintf "%s %s" subject orun.Report.level :: acc.missing }
      | Some nrun ->
          compare_run
            (Printf.sprintf "%s %s" subject orun.Report.level)
            t acc orun nrun)
    acc o.Report.runs

let compare ?(thresholds = default_thresholds) ~old_r ~new_r () =
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
        | Some nb -> compare_bench thresholds acc ob nb)
      empty old_r.Report.results
  in
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
