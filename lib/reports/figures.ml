type matrix = Obs.Report.bench list

let of_build build (r : Obs.Report.bench) =
  String.equal r.build (Workloads.Suite.build_name build)

let find matrix ~bench ~build =
  List.find_opt
    (fun (r : Obs.Report.bench) ->
      String.equal r.bench bench && of_build build r)
    matrix

let benches matrix =
  List.sort_uniq compare
    (List.map (fun (r : Obs.Report.bench) -> r.bench) matrix)

let mean xs =
  match xs with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let pct x = 100. *. x

let render ppf ~title ~headers ~rows =
  (* rows: (label, float list list) — one float list per build *)
  Format.fprintf ppf "@[<v>%s@," title;
  let ncols = List.length headers in
  let seg_width = (ncols * 8) + 1 in
  Format.fprintf ppf "%-10s" "";
  List.iter
    (fun b ->
      Format.fprintf ppf "| %-*s" seg_width (Workloads.Suite.build_name b))
    Workloads.Suite.all_builds;
  Format.fprintf ppf "@,%-10s" "program";
  List.iter
    (fun _ ->
      Format.fprintf ppf "|";
      List.iter (fun h -> Format.fprintf ppf " %7s" h) headers;
      Format.fprintf ppf "  ")
    Workloads.Suite.all_builds;
  Format.fprintf ppf "@,";
  List.iter
    (fun (label, per_build) ->
      Format.fprintf ppf "%-10s" label;
      List.iter
        (fun cells ->
          Format.fprintf ppf "|";
          List.iter (fun v -> Format.fprintf ppf " %7.1f" v) cells;
          Format.fprintf ppf "  ")
        per_build;
      Format.fprintf ppf "@,")
    rows;
  Format.fprintf ppf "@]"

let rows_of matrix (cells : Obs.Report.bench -> float list) ~ncols =
  let names = benches matrix in
  let row name =
    ( name,
      List.map
        (fun build ->
          match find matrix ~bench:name ~build with
          | Some r -> cells r
          | None -> List.init ncols (fun _ -> nan))
        Workloads.Suite.all_builds )
  in
  let data_rows = List.map row names in
  let mean_row =
    ( "MEAN",
      List.mapi
        (fun bi _ ->
          List.init ncols (fun ci ->
              mean
                (List.filter_map
                   (fun (_, per_build) ->
                     let cells = List.nth per_build bi in
                     let v = List.nth cells ci in
                     if Float.is_nan v then None else Some v)
                   data_rows)))
        Workloads.Suite.all_builds )
  in
  data_rows @ [ mean_row ]

let get_stats (r : Obs.Report.bench) level =
  match Measure.stats_of r level with
  | Some s -> s
  | None -> Om.Stats.create ()

let fig3 ppf matrix =
  let cells (r : Obs.Report.bench) =
    let s = get_stats r Om.Simple in
    let f = get_stats r Om.Full in
    let sc, sn = Om.Stats.frac_addr_removed s in
    let fc, fn = Om.Stats.frac_addr_removed f in
    [ pct sc; pct sn; pct fc; pct fn ]
  in
  render ppf
    ~title:
      "Figure 3: static % of address loads removed (conv = changed to a \
       load-address op, null = no-op'd or deleted)"
    ~headers:[ "s-conv"; "s-null"; "f-conv"; "f-null" ]
    ~rows:(rows_of matrix cells ~ncols:4)

let fig4 ppf matrix =
  let frac n d = if d = 0 then 0. else float_of_int n /. float_of_int d in
  let pv_cells (r : Obs.Report.bench) =
    let s = get_stats r Om.Simple in
    let f = get_stats r Om.Full in
    [ pct (frac s.Om.Stats.calls_pv_before s.Om.Stats.calls);
      pct (frac s.Om.Stats.calls_pv_after s.Om.Stats.calls);
      pct (frac f.Om.Stats.calls_pv_after f.Om.Stats.calls) ]
  in
  let reset_cells (r : Obs.Report.bench) =
    let s = get_stats r Om.Simple in
    let f = get_stats r Om.Full in
    [ pct (frac s.Om.Stats.calls_reset_before s.Om.Stats.calls);
      pct (frac s.Om.Stats.calls_reset_after s.Om.Stats.calls);
      pct (frac f.Om.Stats.calls_reset_after f.Om.Stats.calls) ]
  in
  render ppf
    ~title:"Figure 4 (top): static % of calls requiring a PV load"
    ~headers:[ "no-OM"; "simple"; "full" ]
    ~rows:(rows_of matrix pv_cells ~ncols:3);
  Format.fprintf ppf "@.";
  render ppf
    ~title:"Figure 4 (bottom): static % of calls requiring GP-reset code"
    ~headers:[ "no-OM"; "simple"; "full" ]
    ~rows:(rows_of matrix reset_cells ~ncols:3)

let fig5 ppf matrix =
  let cells (r : Obs.Report.bench) =
    [ pct (Om.Stats.frac_insns_nullified (get_stats r Om.Simple));
      pct (Om.Stats.frac_insns_nullified (get_stats r Om.Full)) ]
  in
  render ppf
    ~title:"Figure 5: static % of instructions nullified (simple) or deleted (full)"
    ~headers:[ "simple"; "full" ]
    ~rows:(rows_of matrix cells ~ncols:2)

let fig6 ppf matrix =
  let cells (r : Obs.Report.bench) =
    [ Measure.improvement r Om.Simple;
      Measure.improvement r Om.Full;
      Measure.improvement r Om.Full_sched ]
  in
  render ppf
    ~title:
      "Figure 6: dynamic % improvement in simulated cycles over a program \
       without link-time optimization"
    ~headers:[ "simple"; "full"; "f+sched" ]
    ~rows:(rows_of matrix cells ~ncols:3)

let gat_table ppf matrix =
  let cells (r : Obs.Report.bench) =
    let f = get_stats r Om.Full in
    [ float_of_int f.Om.Stats.gat_bytes_before;
      float_of_int f.Om.Stats.gat_bytes_after;
      (if f.Om.Stats.gat_bytes_before = 0 then 0.
       else
         pct
           (float_of_int f.Om.Stats.gat_bytes_after
           /. float_of_int f.Om.Stats.gat_bytes_before)) ]
  in
  render ppf
    ~title:"GAT size under OM-full (bytes before, after, % remaining)"
    ~headers:[ "before"; "after"; "%left" ]
    ~rows:(rows_of matrix cells ~ncols:3)

let fig7 ppf timings =
  (* columns derive from [Om.all_levels]: a new level shows up here with
     no figure edit *)
  let levels = Om.all_levels in
  let short l =
    let n = Om.level_name l in
    if String.length n <= 9 then n else String.sub n 0 9
  in
  Format.fprintf ppf
    "@[<v>Figure 7: build times in milliseconds (standard link from \
     objects; compile-all from source; OM from objects)@,";
  Format.fprintf ppf "%-10s %9s %9s" "program" "std-link" "interproc";
  List.iter (fun l -> Format.fprintf ppf " %9s" (short l)) levels;
  Format.fprintf ppf "@,";
  let ms t = 1000. *. t in
  let totals = Array.make (2 + List.length levels) 0. in
  List.iter
    (fun (name, (t : Measure.timing)) ->
      let cols =
        t.t_std_link :: t.t_interproc
        :: List.map
             (fun l -> Option.value (List.assoc_opt l t.t_om) ~default:0.)
             levels
      in
      List.iteri (fun i v -> totals.(i) <- totals.(i) +. v) cols;
      Format.fprintf ppf "%-10s" name;
      List.iter (fun v -> Format.fprintf ppf " %9.2f" (ms v)) cols;
      Format.fprintf ppf "@,")
    timings;
  let n = max 1 (List.length timings) in
  Format.fprintf ppf "%-10s" "MEAN";
  Array.iter
    (fun v -> Format.fprintf ppf " %9.2f" (ms v /. float_of_int n))
    totals;
  Format.fprintf ppf "@,@]"

let summary ppf matrix =
  let avg build level =
    mean
      (List.filter_map
         (fun (r : Obs.Report.bench) ->
           if of_build build r then Some (Measure.improvement r level)
           else None)
         matrix)
  in
  let e = Workloads.Suite.Compile_each and a = Workloads.Suite.Compile_all in
  let gat_left =
    mean
      (List.filter_map
         (fun (r : Obs.Report.bench) ->
           if of_build e r then
             let f = get_stats r Om.Full in
             if f.Om.Stats.gat_bytes_before = 0 then None
             else
               Some
                 (pct
                    (float_of_int f.Om.Stats.gat_bytes_after
                    /. float_of_int f.Om.Stats.gat_bytes_before))
           else None)
         matrix)
  in
  Format.fprintf ppf
    "@[<v>Headline comparison (paper's number in parentheses):@,\
     compile-each: OM-simple %+.2f%% (1.5%%)   OM-full %+.2f%% (3.8%%)   \
     OM-full+sched %+.2f%% (4.2%%)@,\
     compile-all:  OM-simple %+.2f%% (1.35%%)  OM-full %+.2f%% (3.4%%)   \
     OM-full+sched %+.2f%% (3.6%%)@,\
     mean GAT remaining under OM-full: %.1f%% (3%%-15%%)@,\
     outputs identical across all configurations: %b@]"
    (avg e Om.Simple) (avg e Om.Full) (avg e Om.Full_sched)
    (avg a Om.Simple) (avg a Om.Full) (avg a Om.Full_sched)
    gat_left
    (List.for_all (fun (r : Obs.Report.bench) -> r.outputs_agree) matrix)
