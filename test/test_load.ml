(* The load-test subsystem: deterministic program generation, selfhosted
   end-to-end runs against a real daemon (bit-identity enforced by the
   harness itself), coalescing on the duplicate mix, and the report's
   load record round-trip. *)

let test_program_deterministic () =
  let p1 = Load.program ~seed:7 3 and p2 = Load.program ~seed:7 3 in
  Alcotest.(check bool) "same seed and id, same program" true (p1 = p2);
  Alcotest.(check bool) "distinct ids differ" true
    (Load.program ~seed:7 4 <> p1);
  Alcotest.(check bool) "distinct seeds differ" true
    (Load.program ~seed:8 3 <> p1);
  Alcotest.(check int) "two modules" 2 (List.length p1);
  (* the mix is a pure function of the spec *)
  let spec = { Load.default_spec with Load.requests = 32 } in
  let ids () = List.init 32 (Load.program_id spec) in
  Alcotest.(check (list int)) "mix replays" (ids ()) (ids ())

let run_ok spec ~workers =
  match Load.run_selfhosted ~workers spec with
  | Ok r -> r
  | Error m -> Alcotest.failf "load run failed: %s" m

let test_selfhosted_mixed () =
  let spec =
    { Load.default_spec with
      Load.profile = Load.Mixed;
      clients = 6;
      requests = 24;
      retries = 4 }
  in
  let r = (run_ok spec ~workers:2).Load.load in
  Alcotest.(check int) "every request succeeded" 24 r.l_ok;
  Alcotest.(check int) "no hard failures" 0 r.l_failed;
  Alcotest.(check int) "no timeouts" 0 r.l_timeouts;
  (* the load harness checks every reply against a serial in-process
     oracle: this is the concurrent bit-identity assertion *)
  Alcotest.(check int) "all replies bit-identical to serial links" 0
    r.l_mismatched;
  Alcotest.(check int) "one latency sample per request" 24 r.l_latency.q_count;
  Alcotest.(check bool) "throughput positive" true
    (Obs.Report.throughput r > 0.);
  Alcotest.(check bool) "p99 >= p50" true
    (r.l_latency.q_p99_us >= r.l_latency.q_p50_us)

let test_selfhosted_dup_coalesces () =
  let spec =
    { Load.default_spec with
      Load.profile = Load.Dup;
      clients = 6;
      requests = 24;
      retries = 4 }
  in
  let r = (run_ok spec ~workers:2).Load.load in
  Alcotest.(check int) "every request succeeded" 24 r.l_ok;
  Alcotest.(check int) "all replies bit-identical" 0 r.l_mismatched;
  Alcotest.(check bool) "duplicates coalesced" true (r.l_coalesced > 0)

let test_report_load_roundtrip () =
  let spec =
    { Load.default_spec with Load.profile = Load.Cold; clients = 2;
      requests = 4 }
  in
  let r = run_ok spec ~workers:1 in
  let report = Obs.Report.make ~load:r.Load.load [] in
  match Obs.Report.of_json (Obs.Report.to_json report) with
  | Error m -> Alcotest.failf "report reparse failed: %s" m
  | Ok back -> (
      Alcotest.(check (option int)) "stamped with the schema version"
        (Some Obs.Report.schema_version)
        (Option.bind
           (Obs.Json.member "schema_version" (Obs.Report.to_json back))
           Obs.Json.get_int);
      match back.Obs.Report.load with
      | None -> Alcotest.fail "load record lost in round-trip"
      | Some l ->
          Alcotest.(check bool) "the record survives whole" true
            (l = r.Load.load);
          Alcotest.(check string) "profile survives" "cold"
            l.Obs.Report.l_profile;
          Alcotest.(check int) "ok count survives" 4 l.Obs.Report.l_ok;
          Alcotest.(check int) "latency samples survive" 4
            l.Obs.Report.l_latency.Obs.Report.q_count)

let suite =
  ( "load",
    [ Alcotest.test_case "program generation is deterministic" `Quick
        test_program_deterministic;
      Alcotest.test_case "selfhosted mixed run: all ok, bit-identical" `Quick
        test_selfhosted_mixed;
      Alcotest.test_case "duplicate mix coalesces" `Quick
        test_selfhosted_dup_coalesces;
      Alcotest.test_case "report load record round-trips" `Quick
        test_report_load_roundtrip ] )
