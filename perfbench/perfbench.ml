(* perfbench: run one workload and print its result as the last line.

     perfbench.exe --workload W --seed N --seconds S --trace 0|1

   With --trace 0 the line carries the end-to-end metrics of an
   untraced run; with --trace 1 the per-layer metrics the workload
   measures in a traced run. The exit code is nonzero when any op failed
   its check. *)

let workloads =
  [ ("paper-figures", Paper_figures.run);
    ("link-matrix", Link_matrix.run);
    ("serve-mixed", Serve_mixed.run) ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the op order and request mix");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  match List.assoc_opt !workload workloads with
  | None ->
      Printf.eprintf "unknown workload %S (expected %s)\n" !workload
        (String.concat ", " (List.map fst workloads));
      exit 2
  | Some run ->
      let r = run ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) in
      print_endline (Harness.result_line ~correct:(r.failed = 0) r);
      if r.failed > 0 then exit 1
