(* The scheduling pool in isolation: worker fan-out, deterministic
   coalescing, shed-under-pressure, queued deadlines, crashes, and the
   seal/drain/stop lifecycle — all with blocker jobs released by hand,
   so nothing here depends on timing luck. *)

module Json = Obs.Json
module Sched = Server.Sched

let fresh () = Obs.Metrics.create ()

(* a job the test releases explicitly: deterministic worker occupancy *)
let blocker () =
  let release = Atomic.make false in
  let job () =
    while not (Atomic.get release) do
      Unix.sleepf 0.005
    done;
    Json.String "released"
  in
  (release, job)

let submit_ok t ?key job =
  match Sched.submit t ?key job with
  | Sched.Accepted h -> h
  | Sched.Shed _ -> Alcotest.fail "unexpected shed"
  | Sched.Closed -> Alcotest.fail "unexpected closed"

let reply_string = function
  | Sched.Reply (Json.String s) -> s
  | Sched.Reply _ -> Alcotest.fail "unexpected reply shape"
  | Sched.Crashed m -> Alcotest.failf "crashed: %s" m
  | Sched.Timed_out -> Alcotest.fail "timed out"
  | Sched.Aborted m -> Alcotest.failf "aborted: %s" m

let test_basic_fanout () =
  let t = Sched.create ~workers:2 ~registry:(fresh ()) () in
  Fun.protect ~finally:(fun () -> Sched.stop t) @@ fun () ->
  let handles =
    List.init 16 (fun i ->
        (i, submit_ok t (fun () -> Json.String (string_of_int (i * i)))))
  in
  List.iter
    (fun (i, h) ->
      Alcotest.(check string)
        (Printf.sprintf "job %d" i)
        (string_of_int (i * i))
        (reply_string (Sched.wait t h)))
    handles;
  let s = Sched.stats t in
  Alcotest.(check int) "all submitted" 16 s.Sched.st_submitted;
  Alcotest.(check int) "all completed" 16 s.Sched.st_completed;
  Alcotest.(check int) "nothing coalesced" 0 s.Sched.st_coalesced

let test_coalescing_deterministic () =
  let t = Sched.create ~workers:1 ~registry:(fresh ()) () in
  Fun.protect ~finally:(fun () -> Sched.stop t) @@ fun () ->
  let release, job = blocker () in
  let hb = submit_ok t job in
  (* the worker is busy: both keyed submissions are pending together,
     so the second MUST coalesce onto the first *)
  let runs = Atomic.make 0 in
  let keyed () =
    Atomic.incr runs;
    Json.String "shared"
  in
  let h1 = submit_ok t ~key:"k" keyed in
  let h2 = submit_ok t ~key:"k" keyed in
  Alcotest.(check bool) "first keyed is the computation" false
    (Sched.was_coalesced h1);
  Alcotest.(check bool) "second keyed coalesced" true (Sched.was_coalesced h2);
  Atomic.set release true;
  Alcotest.(check string) "blocker done" "released"
    (reply_string (Sched.wait t hb));
  Alcotest.(check string) "first gets the shared reply" "shared"
    (reply_string (Sched.wait t h1));
  Alcotest.(check string) "second gets the shared reply" "shared"
    (reply_string (Sched.wait t h2));
  Alcotest.(check int) "the job ran once" 1 (Atomic.get runs);
  Alcotest.(check int) "one coalesce counted" 1
    (Sched.stats t).Sched.st_coalesced

(* wait until the pool has picked up [n] running jobs, so queue-depth
   assertions don't race the workers *)
let rec wait_busy t n =
  if (Sched.stats t).Sched.st_busy < n then begin
    Unix.sleepf 0.005;
    wait_busy t n
  end

let test_shed_at_queue_limit () =
  let t = Sched.create ~workers:1 ~queue_limit:1 ~registry:(fresh ()) () in
  Fun.protect ~finally:(fun () -> Sched.stop t) @@ fun () ->
  let release, job = blocker () in
  let hb = submit_ok t job in
  wait_busy t 1;
  (* with the worker blocked, one submission fits the queue and the
     next MUST shed — never hang *)
  let fits = ref None and shed = ref None in
  (match Sched.submit t (fun () -> Json.String "fits") with
  | Sched.Accepted h -> fits := Some h
  | _ -> Alcotest.fail "queue slot refused");
  (match Sched.submit t (fun () -> Json.String "never") with
  | Sched.Shed { queue_depth; retry_after_ms } ->
      shed := Some (queue_depth, retry_after_ms)
  | Sched.Accepted _ -> Alcotest.fail "over-limit submission accepted"
  | Sched.Closed -> Alcotest.fail "unexpected closed");
  (match !shed with
  | Some (depth, retry_ms) ->
      Alcotest.(check int) "shed reports the full queue" 1 depth;
      Alcotest.(check bool) "retry hint positive" true (retry_ms > 0)
  | None -> ());
  Atomic.set release true;
  ignore (Sched.wait t hb);
  (match !fits with
  | Some h ->
      Alcotest.(check string) "queued job still completes" "fits"
        (reply_string (Sched.wait t h))
  | None -> ());
  Alcotest.(check int) "one shed counted" 1 (Sched.stats t).Sched.st_shed

let test_deadline_while_queued () =
  let t = Sched.create ~workers:1 ~registry:(fresh ()) () in
  Fun.protect ~finally:(fun () -> Sched.stop t) @@ fun () ->
  let release, job = blocker () in
  let hb = submit_ok t job in
  let hq = submit_ok t (fun () -> Json.String "late") in
  (match Sched.wait t ~deadline:(Unix.gettimeofday () +. 0.2) hq with
  | Sched.Timed_out -> ()
  | _ -> Alcotest.fail "queued deadline did not fire");
  Atomic.set release true;
  ignore (Sched.wait t hb)

let test_crash_is_structured () =
  let t = Sched.create ~workers:1 ~registry:(fresh ()) () in
  Fun.protect ~finally:(fun () -> Sched.stop t) @@ fun () ->
  let h = submit_ok t (fun () -> failwith "boom") in
  match Sched.wait t h with
  | Sched.Crashed m ->
      Alcotest.(check bool) "crash carries the message" true
        (Testutil.contains ~affix:"boom" m)
  | _ -> Alcotest.fail "crash not surfaced as Crashed"

let test_seal_drain_stop () =
  let t = Sched.create ~workers:2 ~registry:(fresh ()) () in
  let handles =
    List.init 8 (fun i -> submit_ok t (fun () -> Json.Int i))
  in
  Sched.seal t;
  (match Sched.submit t (fun () -> Json.Null) with
  | Sched.Closed -> ()
  | _ -> Alcotest.fail "sealed pool accepted work");
  Alcotest.(check bool) "drain finishes the backlog" true
    (Sched.drain t ~deadline:(Unix.gettimeofday () +. 10.));
  List.iteri
    (fun i h ->
      match Sched.wait t h with
      | Sched.Reply (Json.Int j) -> Alcotest.(check int) "drained reply" i j
      | _ -> Alcotest.fail "drained job lost its reply")
    handles;
  Sched.stop t;
  (* stop is idempotent and post-stop submissions stay Closed *)
  Sched.stop t;
  match Sched.submit t (fun () -> Json.Null) with
  | Sched.Closed -> ()
  | _ -> Alcotest.fail "stopped pool accepted work"

let suite =
  ( "sched",
    [ Alcotest.test_case "jobs fan out and all reply" `Quick test_basic_fanout;
      Alcotest.test_case "identical in-flight requests coalesce" `Quick
        test_coalescing_deterministic;
      Alcotest.test_case "bounded queue sheds, never hangs" `Quick
        test_shed_at_queue_limit;
      Alcotest.test_case "deadlines fire while queued" `Quick
        test_deadline_while_queued;
      Alcotest.test_case "worker crash surfaces as Crashed" `Quick
        test_crash_is_structured;
      Alcotest.test_case "seal, drain, stop lifecycle" `Quick
        test_seal_drain_stop ] )
