(* Attribution re-simulates the image with a profile on; going through
   the decoded cache means that second pass never re-decodes. *)
let profile_buckets image =
  match Measure.decode_cached image with
  | Error _ -> None
  | Ok (d, _blocks) -> (
      match Obs.Attr.run_decoded d with
      | Ok p -> Some (Obs.Report.attribution_of_profile p)
      | Error _ -> None)

let size_of_image (image : Linker.Image.t) =
  Some
    { Obs.Report.text_bytes = Bytes.length image.Linker.Image.text;
      data_bytes = Bytes.length image.Linker.Image.data;
      gat_bytes = image.Linker.Image.gat_bytes }

let of_result ?(attribution = false) (r : Measure.result) =
  let attr image = if attribution then profile_buckets image else None in
  let host ~wall_s ~mips = Some { Obs.Report.wall_s; mips } in
  { Obs.Report.bench = r.Measure.bench;
    build = Workloads.Suite.build_name r.Measure.build;
    std_cycles = r.Measure.std_cycles;
    std_insns = r.Measure.std_insns;
    std_attribution = attr r.Measure.std_image;
    std_fault = None;
    outputs_agree = r.Measure.outputs_agree;
    runs =
      List.map
        (fun (run : Measure.run) ->
          { Obs.Report.level = Om.level_name run.Measure.level;
            cycles = run.Measure.cycles;
            insns = run.Measure.insns;
            improvement_pct = Measure.improvement r run.Measure.level;
            counters = Om.Stats.to_alist run.Measure.stats;
            attribution = attr run.Measure.image;
            fault = None;
            host = host ~wall_s:run.Measure.wall_s ~mips:run.Measure.mips;
            size = size_of_image run.Measure.image })
        r.Measure.runs;
    std_host = host ~wall_s:r.Measure.std_wall_s ~mips:r.Measure.std_mips;
    relink = None;
    std_size = size_of_image r.Measure.std_image }

let of_matrix ?attribution ?tool results =
  Obs.Report.make ?tool (List.map (of_result ?attribution) results)
