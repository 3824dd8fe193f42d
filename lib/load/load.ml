(* The load generator: seeded program mixes fired at the daemon from
   concurrent client threads, verified bit-for-bit against a serial
   in-process oracle. *)

module P = Server.Protocol
module Json = Obs.Json

type profile = Cold | Dup | Mixed

let profile_name = function Cold -> "cold" | Dup -> "dup" | Mixed -> "mixed"

let profile_of_string = function
  | "cold" -> Ok Cold
  | "dup" -> Ok Dup
  | "mixed" -> Ok Mixed
  | s -> Error (Printf.sprintf "unknown load profile %S (cold|dup|mixed)" s)

type spec = {
  profile : profile;
  clients : int;
  requests : int;
  level : string;
  seed : int;
  deadline_ms : int option;
  retries : int;
}

let default_spec =
  { profile = Mixed;
    clients = 4;
    requests = 48;
    level = "full";
    seed = 42;
    deadline_ms = None;
    retries = 4 }

(* --- deterministic program generation ---

   Program [id] under [seed] is always the same two-module minic
   program; distinct ids differ in their arithmetic constants (and so in
   source digest, image key and image bytes). The shape does real link
   work: two user modules, an extern call binding them, io from
   libstd. *)

let program ~seed id =
  let rng = Random.State.make [| 0x10ad; seed; id |] in
  let a = 3 + Random.State.int rng 93 in
  let b = 1 + Random.State.int rng 997 in
  let c = 2 + Random.State.int rng 89 in
  let iters = 8 + Random.State.int rng 56 in
  let util =
    Printf.sprintf
      "func churn(x) {\n\
      \  var acc = x;\n\
      \  var i = 0;\n\
      \  while (i < %d) {\n\
      \    acc = (acc * %d + %d) & 65535;\n\
      \    i = i + 1;\n\
      \  }\n\
      \  return acc;\n\
       }\n"
      iters a b
  in
  let main =
    Printf.sprintf
      "extern func churn(x);\n\
       func main() {\n\
      \  io_putint_nl(churn(%d));\n\
      \  return 0;\n\
       }\n"
      c
  in
  [ { P.src_name = "util.mc"; src_text = util };
    { P.src_name = "main.mc"; src_text = main } ]

(* the seeded request mix: which program id does request [j] link? *)
let program_id spec j =
  match spec.profile with
  | Cold -> j
  | Dup -> 0
  | Mixed ->
      let rng = Random.State.make [| 0x3141; spec.seed; j |] in
      if Random.State.int rng 10 < 7 then Random.State.int rng 8
      else 100_000 + j

(* --- results --- *)

type result = { load : Obs.Report.load; failures : string list }

(* --- the oracle: serial in-process links of every distinct program --- *)

let oracle_digests spec =
  let engine =
    Server.Engine.create ~store:(Store.in_memory ())
      ~metrics:(Obs.Metrics.create ()) ()
  in
  let tbl = Hashtbl.create 64 in
  let rec go j =
    if j >= spec.requests then Ok tbl
    else begin
      let id = program_id spec j in
      if Hashtbl.mem tbl id then go (j + 1)
      else
        let inputs =
          List.map
            (fun (s : P.source) ->
              Server.Engine.Source { name = s.P.src_name; text = s.P.src_text })
            (program ~seed:spec.seed id)
        in
        match Server.Engine.link engine ~level:spec.level inputs with
        | Error m -> Error (Printf.sprintf "oracle link of program %d: %s" id m)
        | Ok (image, _, _) ->
            Hashtbl.replace tbl id
              (Store.digest_string (Store.Codec.image_to_string image));
            go (j + 1)
    end
  in
  go 0

(* --- one client thread's shard --- *)

type tally = {
  mutable t_ok : int;
  mutable t_failed : int;
  mutable t_overloaded : int;
  mutable t_timeouts : int;
  mutable t_coalesced : int;
  mutable t_image_hits : int;
  mutable t_mismatched : int;
  mutable t_latencies : int list;
  mutable t_failures : string list;
}

let fresh_tally () =
  { t_ok = 0;
    t_failed = 0;
    t_overloaded = 0;
    t_timeouts = 0;
    t_coalesced = 0;
    t_image_hits = 0;
    t_mismatched = 0;
    t_latencies = [];
    t_failures = [] }

let bool_field name fields =
  match Option.bind (Server.Client.field name fields) Json.get_bool with
  | Some b -> b
  | None -> false

(* Open-loop within each connection: a sliding window of [pipeline]
   requests stays in flight at once (the daemon replies in request
   order), so duplicate links actually overlap and coalesce instead of
   arriving one reply apart. The window stays at the daemon's
   per-connection in-flight cap — deeper would just park the excess in
   socket buffers. *)
let pipeline = 8

let client_shard ?socket spec oracle tally indices =
  match Server.Client.connect ?socket () with
  | Error m ->
      tally.t_failed <- tally.t_failed + List.length indices;
      tally.t_failures <- m :: tally.t_failures
  | Ok fd ->
      Fun.protect ~finally:(fun () -> Server.Client.close fd) @@ fun () ->
      (* (request index, attempt, not-before time) still to send, and the
         FIFO of sent requests awaiting their in-order replies *)
      let to_send = Queue.create () and awaiting = Queue.create () in
      List.iter (fun j -> Queue.add (j, 0, 0.) to_send) indices;
      let t0 = Hashtbl.create 16 in
      let abandon m =
        tally.t_failed <-
          tally.t_failed + Queue.length to_send + Queue.length awaiting;
        tally.t_failures <- m :: tally.t_failures;
        Queue.clear to_send;
        Queue.clear awaiting
      in
      let send_one () =
        let j, attempt, not_before = Queue.pop to_send in
        let now = Unix.gettimeofday () in
        if not_before > now then Unix.sleepf (not_before -. now);
        if not (Hashtbl.mem t0 j) then
          Hashtbl.replace t0 j (Unix.gettimeofday ());
        let sources = program ~seed:spec.seed (program_id spec j) in
        match
          P.send fd
            (P.request_to_json
               (P.request ?deadline_ms:spec.deadline_ms
                  (P.Link
                     { files = []; sources; level = spec.level; entry = None })))
        with
        | () -> Queue.add (j, attempt) awaiting
        | exception Unix.Unix_error (e, _, _) ->
            Queue.add (j, attempt) awaiting;
            abandon ("send: " ^ Unix.error_message e)
      in
      let settle j =
        let us =
          int_of_float
            (1_000_000. *. (Unix.gettimeofday () -. Hashtbl.find t0 j))
        in
        tally.t_latencies <- us :: tally.t_latencies
      in
      let recv_one () =
        let j, attempt = Queue.pop awaiting in
        match P.recv fd with
        | P.Eof ->
            tally.t_failed <- tally.t_failed + 1;
            abandon "connection closed mid-reply"
        | P.Bad m ->
            tally.t_failed <- tally.t_failed + 1;
            abandon ("bad reply frame: " ^ m)
        | P.Frame reply -> (
            match P.response_result reply with
            | Ok fields -> (
                tally.t_ok <- tally.t_ok + 1;
                if bool_field "coalesced" fields then
                  tally.t_coalesced <- tally.t_coalesced + 1;
                if bool_field "image_hit" fields then
                  tally.t_image_hits <- tally.t_image_hits + 1;
                settle j;
                match
                  Option.bind (Server.Client.field "image" fields)
                    Json.get_string
                  |> Fun.flip Option.bind (fun hex ->
                         Result.to_option (P.hex_decode hex))
                with
                | None ->
                    tally.t_mismatched <- tally.t_mismatched + 1;
                    tally.t_failures <-
                      Printf.sprintf "request %d: reply carries no image" j
                      :: tally.t_failures
                | Some bytes ->
                    let got = Store.digest_string bytes in
                    if Hashtbl.find_opt oracle (program_id spec j) <> Some got
                    then begin
                      tally.t_mismatched <- tally.t_mismatched + 1;
                      (* whose image did we get? cross-wired replies name
                         the other program; corruption names nobody *)
                      let owner =
                        Hashtbl.fold
                          (fun id d acc -> if d = got then Some id else acc)
                          oracle None
                      in
                      tally.t_failures <-
                        (match owner with
                        | Some id ->
                            Printf.sprintf
                              "request %d (program %d): got program %d's image"
                              j (program_id spec j) id
                        | None ->
                            Printf.sprintf
                              "request %d (program %d): image matches no \
                               oracle program"
                              j (program_id spec j))
                        :: tally.t_failures
                    end)
            | Error e when e.P.code = "overloaded" ->
                tally.t_overloaded <- tally.t_overloaded + 1;
                if attempt < spec.retries then
                  let ms = Option.value e.P.retry_after_ms ~default:25 in
                  Queue.add
                    (j, attempt + 1,
                     Unix.gettimeofday () +. (float_of_int ms /. 1000.))
                    to_send
                else begin
                  settle j;
                  tally.t_failures <-
                    Printf.sprintf "request %d: %s" j e.P.message
                    :: tally.t_failures
                end
            | Error e when e.P.code = "timeout" ->
                tally.t_timeouts <- tally.t_timeouts + 1;
                settle j
            | Error e ->
                tally.t_failed <- tally.t_failed + 1;
                settle j;
                tally.t_failures <-
                  Printf.sprintf "request %d: [%s] %s" j e.P.code e.P.message
                  :: tally.t_failures)
      in
      while not (Queue.is_empty to_send && Queue.is_empty awaiting) do
        if
          (not (Queue.is_empty to_send)) && Queue.length awaiting < pipeline
        then send_one ()
        else recv_one ()
      done

let daemon_workers ?socket () =
  match
    Server.Client.with_connection ?socket (fun fd -> Server.Client.stats fd)
  with
  | Ok (Ok fields) ->
      Option.bind (Server.Client.field "sched" fields) (fun s ->
          Option.bind (Json.member "workers" s) Json.get_int)
      |> Option.value ~default:0
  | _ -> 0

let run_against ?socket spec =
  if spec.requests <= 0 then Error "load: requests must be positive"
  else if spec.clients <= 0 then Error "load: clients must be positive"
  else
    match oracle_digests spec with
    | Error m -> Error m
    | Ok oracle ->
        let workers = daemon_workers ?socket () in
        let clients = min spec.clients spec.requests in
        let shards =
          List.init clients (fun c ->
              List.filter
                (fun j -> j mod clients = c)
                (List.init spec.requests Fun.id))
        in
        let tallies = List.map (fun _ -> fresh_tally ()) shards in
        let t0 = Unix.gettimeofday () in
        let threads =
          List.map2
            (fun tally indices ->
              Thread.create
                (fun () -> client_shard ?socket spec oracle tally indices)
                ())
            tallies shards
        in
        List.iter Thread.join threads;
        let wall_s = Unix.gettimeofday () -. t0 in
        let sum f = List.fold_left (fun acc t -> acc + f t) 0 tallies in
        let latencies =
          Array.of_list (List.concat_map (fun t -> t.t_latencies) tallies)
        in
        Array.sort compare latencies;
        (* latency quantile by rank over the sorted samples; 0 when no
           request completed *)
        let quantile p =
          let n = Array.length latencies in
          if n = 0 then 0
          else latencies.(min (n - 1) (int_of_float (p *. float_of_int n)))
        in
        Ok
          { load =
              { Obs.Report.l_profile = profile_name spec.profile;
                l_level = spec.level;
                l_clients = clients;
                l_workers = workers;
                l_requests = spec.requests;
                l_ok = sum (fun t -> t.t_ok);
                l_failed = sum (fun t -> t.t_failed);
                l_overloaded = sum (fun t -> t.t_overloaded);
                l_timeouts = sum (fun t -> t.t_timeouts);
                l_coalesced = sum (fun t -> t.t_coalesced);
                l_image_hits = sum (fun t -> t.t_image_hits);
                l_mismatched = sum (fun t -> t.t_mismatched);
                l_wall_s = wall_s;
                l_latency =
                  { Obs.Report.q_count = Array.length latencies;
                    q_p50_us = quantile 0.50;
                    q_p95_us = quantile 0.95;
                    q_p99_us = quantile 0.99;
                    q_max_us = quantile 1.0 } };
            failures =
              (let all = List.concat_map (fun t -> t.t_failures) tallies in
               List.filteri (fun i _ -> i < 5) all) }

let run_selfhosted ?workers ?queue_limit spec =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "omlt_load_%d_%d" (Unix.getpid ())
         (Random.int 1_000_000))
  in
  Unix.mkdir dir 0o755;
  let socket = Filename.concat dir "load.sock" in
  let cleanup () =
    (try Sys.remove socket with Sys_error _ -> ());
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  let engine =
    Server.Engine.create ~store:(Store.in_memory ())
      ~metrics:(Obs.Metrics.create ()) ()
  in
  let server =
    Domain.spawn (fun () ->
        Server.Daemon.serve ~engine ~socket ?workers ?queue_limit ())
  in
  let rec wait_ready tries =
    match Server.Client.with_connection ~socket (fun fd -> Server.Client.ping fd ()) with
    | Ok (Ok _) -> Ok ()
    | _ when tries > 0 ->
        Unix.sleepf 0.05;
        wait_ready (tries - 1)
    | Ok (Error e) -> Error ("load daemon never became ready: " ^ e.P.message)
    | Error m -> Error ("load daemon never became ready: " ^ m)
  in
  let shutdown () =
    (match
       Server.Client.with_connection ~socket (fun fd -> Server.Client.shutdown fd)
     with
    | _ -> ());
    match Domain.join server with
    | Ok () -> Ok ()
    | Error m -> Error ("load daemon exited with: " ^ m)
  in
  match wait_ready 100 with
  | Error m ->
      ignore (shutdown ());
      Error m
  | Ok () -> (
      let run = run_against ~socket spec in
      match (run, shutdown ()) with
      | Error m, _ -> Error m
      | Ok _, Error m -> Error m
      | Ok r, Ok () ->
          (* selfhosted knows its pool shape even if stats was shed *)
          let l_workers =
            match workers with
            | Some w -> max 1 w
            | None -> r.load.l_workers
          in
          Ok { r with load = { r.load with l_workers } })

let summary_lines { load = l; _ } =
  [ Printf.sprintf "profile=%s level=%s clients=%d workers=%d requests=%d"
      l.l_profile l.l_level l.l_clients l.l_workers l.l_requests;
    Printf.sprintf
      "ok=%d failed=%d overloaded=%d timeouts=%d coalesced=%d image_hits=%d \
       mismatched=%d"
      l.l_ok l.l_failed l.l_overloaded l.l_timeouts l.l_coalesced
      l.l_image_hits l.l_mismatched;
    Printf.sprintf
      "wall=%.3fs throughput=%.1f req/s p50=%dus p95=%dus p99=%dus max=%dus"
      l.l_wall_s (Obs.Report.throughput l) l.l_latency.q_p50_us
      l.l_latency.q_p95_us l.l_latency.q_p99_us l.l_latency.q_max_us ]
