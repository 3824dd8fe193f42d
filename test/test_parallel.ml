(* The domain pool and the parallel matrix runner: parallel runs must be
   observably identical to serial ones, just faster. *)

let test_pool_preserves_order () =
  let xs = List.init 50 Fun.id in
  Alcotest.(check (list int))
    "map ~jobs:4 = List.map" (List.map succ xs)
    (Reports.Pool.map ~jobs:4 succ xs)

let test_pool_serial_fallback () =
  let xs = [ 3; 1; 4 ] in
  Alcotest.(check (list int))
    "jobs:1 runs inline" (List.map succ xs)
    (Reports.Pool.map ~jobs:1 succ xs)

let test_pool_propagates_failure () =
  match
    Reports.Pool.map ~jobs:3
      (fun x -> if x = 7 then failwith "boom" else x)
      (List.init 20 Fun.id)
  with
  | _ -> Alcotest.fail "expected Worker_failed"
  | exception Reports.Pool.Worker_failed (Failure m) ->
      Alcotest.(check string) "wraps the task's exception" "boom" m
  | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e)

let test_runner_matches_serial () =
  let b =
    match Workloads.Programs.find "compress" with
    | Some b -> b
    | None -> Alcotest.fail "compress benchmark missing"
  in
  let serial =
    List.map
      (fun build ->
        match Reports.Measure.run_benchmark build b with
        | Ok r -> r
        | Error m -> Alcotest.failf "serial measure failed: %s" m)
      Workloads.Suite.all_builds
  in
  let parallel =
    Reports.Runner.results (Reports.Runner.matrix ~jobs:2 [ b ])
  in
  Alcotest.(check int) "row count" (List.length serial)
    (List.length parallel);
  (* whole rows: every level's cycles, executed instructions,
     attribution, counters, size and the output check *)
  List.iter2
    (fun s p ->
      Alcotest.check Testutil.report_row "row without host timings"
        (Testutil.untimed s) (Testutil.untimed p))
    serial parallel

let suite =
  ( "parallel",
    [ Alcotest.test_case "pool preserves order" `Quick
        test_pool_preserves_order;
      Alcotest.test_case "pool serial fallback" `Quick
        test_pool_serial_fallback;
      Alcotest.test_case "pool propagates failure" `Quick
        test_pool_propagates_failure;
      Alcotest.test_case "parallel matrix = serial matrix" `Slow
        test_runner_matches_serial ] )
