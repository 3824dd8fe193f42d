(* The golden link dump: one line per link of the benchmark matrix —
   19 programs x 2 builds x (the standard link and every OM level), 228
   in all. Each line carries the MD5 of the image in its binary format
   and, for an OM link, the MD5 of its statistics row, so a change that
   must not alter what any link emits is checked by [dune runtest]
   diffing this output against [links.expected]. An intended change to
   the emitted code is one [dune promote]. *)

let md5 s = Digest.to_hex (Digest.string s)

let stats_digest stats =
  Om.Stats.to_alist stats
  |> List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v)
  |> String.concat ";" |> md5

let () =
  List.iter
    (fun (b : Workloads.Programs.benchmark) ->
      List.iter
        (fun build ->
          let line level = function
            | Ok (image, stats) ->
                Printf.printf "%s %s %s %s %s\n" b.name
                  (Workloads.Suite.build_name build)
                  level
                  (md5 (Linker.Image.encode image))
                  stats
            | Error m ->
                Printf.printf "%s %s %s error: %s\n" b.name
                  (Workloads.Suite.build_name build)
                  level m
          in
          match Workloads.Suite.resolve build b with
          | Error m -> line "resolve" (Error m)
          | Ok world ->
              line "std"
                (Result.map
                   (fun image -> (image, "-"))
                   (Linker.Link.link_resolved world));
              List.iter
                (fun level ->
                  line (Om.level_name level)
                    (Result.map
                       (fun (o : Om.output) ->
                         (o.Om.image, stats_digest o.Om.stats))
                       (Om.optimize_resolved level world)))
                Om.all_levels)
        Workloads.Suite.all_builds)
    Workloads.Programs.all
