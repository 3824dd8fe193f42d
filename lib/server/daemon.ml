(* omlinkd: the persistent link service.

   One process owns an {!Engine.t} (and through it the artifact store)
   and serves length-framed JSON requests over a Unix-domain socket.
   Because the store outlives individual requests, the second link of a
   program is warm: unchanged modules hit the lift cache and an
   unchanged program hits the image cache outright.

   Concurrency model: the main thread multiplexes accepts; every
   connection gets a reader thread and a replier thread joined by a
   bounded queue (the per-connection in-flight cap, and the reason
   replies stay ordered even though requests pipeline). Real work —
   compile, link, suite, even ping sleeps — flows through {!Sched}'s
   worker-domain pool, which coalesces identical in-flight requests and
   sheds load with a structured [overloaded] error when its queue is
   full. Readers resolve all request inputs to in-memory values before
   submitting, so a warm request never touches the filesystem.

   Shutdown (a [shutdown] request or SIGTERM) is a graceful drain:
   stop accepting, let queued and in-flight work finish up to the drain
   deadline, flush replies, then tear the connections down. *)

module P = Protocol
module Json = Obs.Json

let default_socket () =
  match Sys.getenv_opt "OMLT_SOCKET" with
  | Some s when s <> "" -> s
  | _ -> "omlinkd.sock"

(* --- a bounded blocking queue: the per-connection pipeline --- *)

module Bq = struct
  type 'a t = {
    m : Mutex.t;
    nonfull : Condition.t;
    nonempty : Condition.t;
    q : 'a Queue.t;
    cap : int;
  }

  let create cap =
    { m = Mutex.create ();
      nonfull = Condition.create ();
      nonempty = Condition.create ();
      q = Queue.create ();
      cap = max 1 cap }

  let push t x =
    Mutex.lock t.m;
    while Queue.length t.q >= t.cap do
      Condition.wait t.nonfull t.m
    done;
    Queue.add x t.q;
    Condition.signal t.nonempty;
    Mutex.unlock t.m

  let pop t =
    Mutex.lock t.m;
    while Queue.is_empty t.q do
      Condition.wait t.nonempty t.m
    done;
    let x = Queue.take t.q in
    Condition.signal t.nonfull;
    Mutex.unlock t.m;
    x
end

(* --- request handlers --- *)

let counters_json c =
  Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (Store.counters_to_alist c))

let sched_stats_json sched =
  let s = Sched.stats sched in
  Json.Obj
    [ ("workers", Json.Int s.Sched.st_workers);
      ("queue_limit", Json.Int (Sched.queue_limit sched));
      ("queue_depth", Json.Int s.Sched.st_queue_depth);
      ("busy", Json.Int s.Sched.st_busy);
      ("submitted", Json.Int s.Sched.st_submitted);
      ("completed", Json.Int s.Sched.st_completed);
      ("coalesced", Json.Int s.Sched.st_coalesced);
      ("shed", Json.Int s.Sched.st_shed);
      ("abandoned", Json.Int s.Sched.st_abandoned) ]

let stats_json engine sched ~requests =
  let store = Engine.store engine in
  P.ok_response
    [ ("uptime_s", Json.Float (Engine.uptime_s engine));
      ("requests", Json.Int requests);
      ("sched", sched_stats_json sched);
      ( "store",
        Json.Obj
          ([ ( "dir",
               match Store.dir store with
               | None -> Json.Null
               | Some d -> Json.String d );
             ("mem_entries", Json.Int (Store.mem_entries store));
             ("mem_bytes", Json.Int (Store.mem_bytes store));
             ("disk_ops", Json.Int (Store.disk_ops store)) ]
          @ List.map
              (fun k -> (Store.kind_name k, counters_json (Store.counters store k)))
              Store.all_kinds
          @ [ ("total", counters_json (Store.counters_total store)) ]) ) ]

let compile_reply engine inputs =
  let compiled =
    Reports.Pool.map
      (fun (input : Engine.input) ->
        let name =
          match input with
          | Engine.Source { name; _ } | Engine.Object { name; _ } -> name
        in
        match Engine.compile_unit engine input with
        | Ok (u, cached) -> Ok (name, u, cached)
        | Error m -> Error (name, m))
      inputs
  in
  match
    List.find_map (function Error e -> Some e | Ok _ -> None) compiled
  with
  | Some (f, m) -> P.error_response ~code:"compile" (Printf.sprintf "%s: %s" f m)
  | None ->
      P.ok_response
        [ ( "units",
            Json.List
              (List.filter_map
                 (function
                   | Error _ -> None
                   | Ok (f, (u : Objfile.Cunit.t), cached) ->
                       let bytes = Store.Codec.cunit_to_string u in
                       Some
                         (Json.Obj
                            [ ("file", Json.String f);
                              ("name", Json.String u.Objfile.Cunit.name);
                              ("digest", Json.String (Store.digest_string bytes));
                              ( "insns",
                                Json.Int (Objfile.Cunit.insn_count u) );
                              ("cached", Json.Bool cached);
                              ("object", Json.String (P.hex_encode bytes)) ]))
                 compiled) ) ]

let link_reply engine ~inputs ~level ~entry =
  match Engine.link engine ?entry ~level inputs with
  | Error m -> P.error_response ~code:"link" m
  | Ok (_, stats, info) ->
      P.ok_response
        ([ ("level", Json.String info.Engine.li_level);
           ("image_digest", Json.String info.Engine.li_image_digest);
           ("insns", Json.Int info.Engine.li_insns);
           ("elapsed_s", Json.Float info.Engine.li_elapsed_s);
           ("image_hit", Json.Bool info.Engine.li_image_hit);
           ("store", Engine.info_counters_json info);
           ("image", Json.String (P.hex_encode info.Engine.li_image_bytes)) ]
        @
        match stats with
        | None -> []
        | Some s ->
            [ ( "stats",
                Json.Obj
                  (List.map
                     (fun (k, v) -> (k, Json.Int v))
                     (Om.Stats.to_alist s)) ) ])

let suite_reply ~bench ~jobs =
  let benches =
    match bench with
    | None -> Ok Workloads.Programs.all
    | Some n -> (
        match Workloads.Programs.find n with
        | Some b -> Ok [ b ]
        | None ->
            Error
              (Printf.sprintf "unknown benchmark %s (know: %s)" n
                 (String.concat ", " Workloads.Programs.names)))
  in
  match benches with
  | Error m -> P.error_response ~code:"suite" m
  | Ok benches ->
      let rows = Reports.Runner.matrix ?jobs benches in
      let report = Reports.Runner.report ?jobs rows in
      (* stamp each bench row with its cold-vs-warm link-service timing *)
      let report =
        { report with
          Obs.Report.results =
            List.map
              (fun (row : Obs.Report.bench) ->
                match
                  Option.bind
                    (Workloads.Programs.find row.Obs.Report.bench)
                    (fun b -> Result.to_option (Engine.relink_timings b))
                with
                | Some r -> { row with Obs.Report.relink = Some r }
                | None -> row)
              report.Obs.Report.results }
      in
      let failures =
        List.filter_map
          (fun ((b : Workloads.Programs.benchmark), build, r) ->
            match r with
            | Ok _ -> None
            | Error m ->
                Some
                  (Json.String
                     (Printf.sprintf "%s/%s: %s" b.Workloads.Programs.name
                        (Workloads.Suite.build_name build) m)))
          rows
      in
      P.ok_response
        [ ("report", Obs.Report.to_json report);
          ("failures", Json.List failures) ]

let metrics_reply engine =
  Engine.sync_store_metrics engine;
  let reg = Engine.metrics engine in
  P.ok_response
    [ ("metrics", Obs.Metrics.to_json reg);
      ("prometheus", Json.String (Obs.Metrics.to_prometheus reg)) ]

let spans_json spans =
  Json.List
    (List.map
       (fun (s : Obs.Trace.span) ->
         Json.Obj
           [ ("name", Json.String s.Obs.Trace.name);
             ("depth", Json.Int s.Obs.Trace.depth);
             ("dur_us", Json.Float s.Obs.Trace.dur_us) ])
       spans)

let with_trace ~trace respond =
  if not trace then respond ()
  else
    let c, reply = Obs.Trace.with_collector respond in
    match reply with
    | Json.Obj fields ->
        Json.Obj (fields @ [ ("trace", spans_json (Obs.Trace.spans c)) ])
    | j -> j

(* --- turning an envelope into scheduler work ---

   The reader thread resolves every input to an in-memory value before
   submitting, so worker jobs are pure computation: file reads happen
   here (and only for file-path requests — inline [sources] never touch
   the filesystem). The coalesce key covers everything the reply depends
   on; traced requests are never coalesced because their reply embeds
   the spans of their own run. *)

let input_digest = function
  | Engine.Source { name; text } ->
      Store.digest_string (Printf.sprintf "s:%s\x00%s" name text)
  | Engine.Object { name; bytes } ->
      Store.digest_string (Printf.sprintf "o:%s\x00%s" name bytes)

let resolve_inputs ~files ~sources =
  let ( let* ) = Result.bind in
  let rec resolve_files acc = function
    | [] -> Ok (List.rev acc)
    | f :: rest -> (
        match Engine.input_of_file f with
        | Ok i -> resolve_files (i :: acc) rest
        | Error m -> Error (Printf.sprintf "%s: %s" f m))
  in
  let* from_files = resolve_files [] files in
  Ok
    (from_files
    @ List.map
        (fun (s : P.source) ->
          Engine.Source { name = s.src_name; text = s.src_text })
        sources)

type work =
  | Now of Json.t  (* answered inline by the reader *)
  | Job of string option * (unit -> Json.t)  (* coalesce key + job *)

let work_of_request engine sched ~requests (env : P.envelope) =
  let trace = env.P.trace in
  let keyed k = if trace then None else Some k in
  match env.P.req with
  | P.Stats -> Now (stats_json engine sched ~requests)
  | P.Metrics -> Now (metrics_reply engine)
  | P.Shutdown -> Now (P.ok_response [ ("stopping", Json.Bool true) ])
  | P.Ping { delay_ms } ->
      Job
        ( None,
          fun () ->
            with_trace ~trace (fun () ->
                if delay_ms > 0 then Unix.sleepf (float_of_int delay_ms /. 1000.);
                P.ok_response [ ("pong", Json.Bool true) ]) )
  | P.Compile { files; sources } -> (
      match resolve_inputs ~files ~sources with
      | Error m -> Now (P.error_response ~code:"compile" m)
      | Ok inputs ->
          let key =
            keyed
              (Store.digest_string
                 (String.concat "\x00"
                    ("compile" :: List.map input_digest inputs)))
          in
          Job
            (key, fun () -> with_trace ~trace (fun () -> compile_reply engine inputs))
      )
  | P.Link { files; sources; level; entry } -> (
      match resolve_inputs ~files ~sources with
      | Error m -> Now (P.error_response ~code:"link" m)
      | Ok inputs ->
          let key =
            keyed
              (Store.digest_string
                 (String.concat "\x00"
                    ([ "link"; level; Option.value entry ~default:"" ]
                    @ List.map input_digest inputs)))
          in
          Job
            ( key,
              fun () ->
                with_trace ~trace (fun () -> link_reply engine ~inputs ~level ~entry)
            ))
  | P.Suite { bench; jobs } ->
      (* a suite spins up its own domain pool; run it but never coalesce
         (two suites racing one pool is exactly what we don't want) *)
      Job (None, fun () -> with_trace ~trace (fun () -> suite_reply ~bench ~jobs))

(* --- the socket --- *)

let bind_socket path =
  let ( let* ) = Result.bind in
  let* () =
    if not (Sys.file_exists path) then Ok ()
    else begin
      (* stale-socket detection: a connect that is refused means no
         daemon is behind the file, so it is safe to take over *)
      let probe = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let live =
        try
          Unix.connect probe (Unix.ADDR_UNIX path);
          true
        with Unix.Unix_error _ -> false
      in
      (try Unix.close probe with Unix.Unix_error _ -> ());
      if live then
        Error (Printf.sprintf "%s: an omlinkd is already listening" path)
      else begin
        (try Sys.remove path with Sys_error _ -> ());
        Ok ()
      end
    end
  in
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64
  with
  | () -> Ok fd
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Printf.sprintf "%s: %s" path (Unix.error_message e))

let error_code_of reply =
  match Json.member "ok" reply with
  | Some (Json.Bool false) ->
      Option.bind (Json.member "error" reply) (fun e ->
          Option.bind (Json.member "code" e) Json.get_string)
  | _ -> None

(* --- per-connection plumbing --- *)

type item = {
  i_id : int;  (* the engine's request counter *)
  i_kind : string;
  i_t0 : float;
  i_deadline : float option;
  i_work : work_handle;
  i_shutdown : bool;  (* after a successful send, stop the daemon *)
}

and work_handle = H_now of Json.t | H_wait of Sched.handle

type pending = Item of item | Close_conn

type conn = {
  c_fd : Unix.file_descr;
  mutable c_reader : Thread.t option;
  mutable c_replier : Thread.t option;
  mutable c_done : bool;  (* both threads have exited *)
}

type state = {
  engine : Engine.t;
  sched : Sched.t;
  default_deadline_ms : int option;
  conn_inflight : int;
  conns : conn list ref;
  conns_lock : Mutex.t;
  stop_w : Unix.file_descr;  (* write a byte to request shutdown *)
  stop_flag : bool Atomic.t;
}

let request_stop st =
  if not (Atomic.exchange st.stop_flag true) then
    try ignore (Unix.write_substring st.stop_w "x" 0 1)
    with Unix.Unix_error _ -> ()

let reader_loop st conn pq =
  let submit_frame j =
    let requests = Engine.count_request st.engine in
    let t0 = Unix.gettimeofday () in
    match P.request_of_json j with
    | Error m ->
        Item
          { i_id = requests;
            i_kind = "?";
            i_t0 = t0;
            i_deadline = None;
            i_work = H_now (P.error_response ~code:"protocol" m);
            i_shutdown = false }
    | Ok env ->
        let kind = P.kind_of_request env.P.req in
        Obs.Log.debug "request"
          ~fields:[ ("id", Json.Int requests); ("kind", Json.String kind) ];
        let deadline_ms =
          match env.P.deadline_ms with
          | Some _ as d -> d
          | None -> st.default_deadline_ms
        in
        let deadline =
          Option.map (fun ms -> t0 +. (float_of_int ms /. 1000.)) deadline_ms
        in
        let work =
          match work_of_request st.engine st.sched ~requests env with
          | Now j -> H_now j
          | Job (key, job) -> (
              match Sched.submit st.sched ?key job with
              | Sched.Accepted h -> H_wait h
              | Sched.Shed { queue_depth; retry_after_ms } ->
                  H_now
                    (P.error_response ~code:"overloaded" ~retry_after_ms
                       (Printf.sprintf
                          "request queue is full (%d deep); retry in %d ms"
                          queue_depth retry_after_ms))
              | Sched.Closed ->
                  H_now
                    (P.error_response ~code:"shutting_down"
                       "the daemon is draining and accepts no new work"))
        in
        Item
          { i_id = requests;
            i_kind = kind;
            i_t0 = t0;
            i_deadline = deadline;
            i_work = work;
            i_shutdown = env.P.req = P.Shutdown }
  in
  let rec loop () =
    match P.recv conn.c_fd with
    | P.Eof -> Bq.push pq Close_conn
    | P.Bad m ->
        (* framing is gone; answer if we can and drop the connection *)
        Bq.push pq
          (Item
             { i_id = 0;
               i_kind = "?";
               i_t0 = Unix.gettimeofday ();
               i_deadline = None;
               i_work = H_now (P.error_response ~code:"protocol" m);
               i_shutdown = false });
        Bq.push pq Close_conn
    | P.Frame j ->
        Bq.push pq (submit_frame j);
        loop ()
    | exception Unix.Unix_error _ -> Bq.push pq Close_conn
  in
  loop ()

let replier_loop st conn pq =
  let reg = Engine.metrics st.engine in
  let inflight =
    Obs.Metrics.gauge ~registry:reg ~help:"Requests currently being served"
      "omlinkd_inflight"
  in
  let send_safe j =
    try P.send conn.c_fd j; true with Unix.Unix_error _ -> false
  in
  let rec loop () =
    match Bq.pop pq with
    | Close_conn -> ()
    | Item it ->
        Obs.Metrics.add_gauge inflight 1.;
        let coalesced =
          match it.i_work with
          | H_wait h -> Sched.was_coalesced h
          | H_now _ -> false
        in
        let reply =
          match it.i_work with
          | H_now j -> j
          | H_wait h -> (
              match Sched.wait st.sched ?deadline:it.i_deadline h with
              | Sched.Reply r -> r
              | Sched.Crashed m -> P.error_response ~code:"internal" m
              | Sched.Timed_out ->
                  let ms =
                    match it.i_deadline with
                    | Some dl ->
                        int_of_float (1000. *. (dl -. it.i_t0) +. 0.5)
                    | None -> 0
                  in
                  P.error_response ~code:"timeout"
                    (Printf.sprintf "deadline of %d ms exceeded" ms)
              | Sched.Aborted m -> P.error_response ~code:"shutting_down" m)
        in
        let reply =
          (* tell the client its request was deduplicated onto another *)
          match reply with
          | Json.Obj (("ok", Json.Bool true) :: _ as fields) when coalesced ->
              Json.Obj (fields @ [ ("coalesced", Json.Bool true) ])
          | j -> j
        in
        let elapsed_s = Unix.gettimeofday () -. it.i_t0 in
        Obs.Metrics.add_gauge inflight (-1.);
        Obs.Metrics.observe_s
          (Obs.Metrics.histogram ~registry:reg
             ~labels:[ ("kind", it.i_kind) ]
             ~help:"Request latency in microseconds" "omlinkd_request_us")
          elapsed_s;
        Obs.Metrics.incr
          (Obs.Metrics.counter ~registry:reg
             ~labels:[ ("kind", it.i_kind) ]
             ~help:"Requests served" "omlinkd_requests_total");
        (match error_code_of reply with
        | Some code ->
            Obs.Metrics.incr
              (Obs.Metrics.counter ~registry:reg
                 ~labels:[ ("code", code) ]
                 ~help:"Error replies by code" "omlinkd_errors_total");
            Obs.Log.warn "request_error"
              ~fields:
                [ ("id", Json.Int it.i_id);
                  ("kind", Json.String it.i_kind);
                  ("code", Json.String code);
                  ("elapsed_s", Json.Float elapsed_s) ]
        | None ->
            Obs.Log.debug "request_done"
              ~fields:
                [ ("id", Json.Int it.i_id);
                  ("kind", Json.String it.i_kind);
                  ("elapsed_s", Json.Float elapsed_s) ]);
        let sent = send_safe reply in
        if it.i_shutdown then begin
          request_stop st;
          loop ()
        end
        else if sent then loop ()
        else loop ()
        (* on a failed send keep draining the queue so the reader can't
           deadlock pushing into it; recv will hit EOF shortly *)
  in
  loop ()

let start_conn st fd =
  let conn = { c_fd = fd; c_reader = None; c_replier = None; c_done = false } in
  let pq = Bq.create st.conn_inflight in
  let reader =
    Thread.create
      (fun () ->
        (try reader_loop st conn pq
         with _ -> (try Bq.push pq Close_conn with _ -> ())))
      ()
  in
  let replier =
    Thread.create
      (fun () ->
        (try replier_loop st conn pq with _ -> ());
        conn.c_done <- true)
      ()
  in
  conn.c_reader <- Some reader;
  conn.c_replier <- Some replier;
  Mutex.protect st.conns_lock (fun () -> st.conns := conn :: !(st.conns))

let join_conn conn =
  Option.iter Thread.join conn.c_reader;
  Option.iter Thread.join conn.c_replier;
  (try Unix.close conn.c_fd with Unix.Unix_error _ -> ())

(* join and close finished connections; keep the live ones *)
let prune_conns st =
  let done_, live =
    Mutex.protect st.conns_lock (fun () ->
        let done_, live = List.partition (fun c -> c.c_done) !(st.conns) in
        st.conns := live;
        (done_, live))
  in
  List.iter join_conn done_;
  ignore live

(* --- the serve loop --- *)

let serve ?engine ?socket ?default_deadline_ms ?workers ?queue_limit
    ?(conn_inflight = 8) ?(drain_ms = 2000) () =
  let engine =
    match engine with Some e -> e | None -> Engine.create ()
  in
  let path = match socket with Some s -> s | None -> default_socket () in
  match bind_socket path with
  | Error m ->
      Obs.Log.error "bind_failed"
        ~fields:[ ("socket", Json.String path); ("message", Json.String m) ];
      Error m
  | Ok listen_fd ->
      (* libstd's lazies must be forced before worker domains share them *)
      Engine.warmup engine;
      let sched =
        Sched.create ?workers ?queue_limit ~registry:(Engine.metrics engine) ()
      in
      let stop_r, stop_w = Unix.pipe ~cloexec:true () in
      let st =
        { engine;
          sched;
          default_deadline_ms;
          conn_inflight;
          conns = ref [];
          conns_lock = Mutex.create ();
          stop_w;
          stop_flag = Atomic.make false }
      in
      (* a client vanishing mid-send must not kill the daemon *)
      let old_pipe =
        try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
        with Invalid_argument _ | Sys_error _ -> None
      in
      let old_term =
        try
          Some
            (Sys.signal Sys.sigterm
               (Sys.Signal_handle (fun _ -> request_stop st)))
        with Invalid_argument _ | Sys_error _ -> None
      in
      Obs.Log.info "listening"
        ~fields:
          [ ("socket", Json.String path);
            ("workers", Json.Int (Sched.workers sched));
            ("queue_limit", Json.Int (Sched.queue_limit sched));
            ( "store",
              match Store.dir (Engine.store engine) with
              | Some d -> Json.String d
              | None -> Json.String "memory" ) ];
      let rec accept_loop () =
        match Unix.select [ listen_fd; stop_r ] [] [] 1.0 with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
        | readable, _, _ ->
            if List.mem stop_r readable then ()
            else begin
              prune_conns st;
              if List.mem listen_fd readable then begin
                match Unix.accept ~cloexec:true listen_fd with
                | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
                | conn_fd, _ -> start_conn st conn_fd
              end;
              accept_loop ()
            end
      in
      let graceful_stop () =
        (* 1. no new connections *)
        (try Unix.close listen_fd with Unix.Unix_error _ -> ());
        (* 2. no new work; queued + in-flight may still finish *)
        Sched.seal sched;
        let deadline =
          Unix.gettimeofday () +. (float_of_int drain_ms /. 1000.)
        in
        let drained = Sched.drain sched ~deadline in
        Obs.Log.info "drained"
          ~fields:
            [ ("complete", Json.Bool drained);
              ("drain_ms", Json.Int drain_ms) ];
        (* 3. unblock readers; repliers flush whatever is pending *)
        Mutex.protect st.conns_lock (fun () -> !(st.conns))
        |> List.iter (fun c ->
               try Unix.shutdown c.c_fd Unix.SHUTDOWN_RECEIVE
               with Unix.Unix_error _ -> ());
        (* 4. abort any post-deadline stragglers so repliers can't hang *)
        Sched.stop sched;
        Mutex.protect st.conns_lock (fun () ->
            let cs = !(st.conns) in
            st.conns := [];
            cs)
        |> List.iter join_conn;
        (try Unix.close stop_r with Unix.Unix_error _ -> ());
        (try Unix.close stop_w with Unix.Unix_error _ -> ());
        (try Sys.remove path with Sys_error _ -> ());
        (match old_pipe with
        | Some b -> ( try ignore (Sys.signal Sys.sigpipe b) with _ -> ())
        | None -> ());
        (match old_term with
        | Some b -> ( try ignore (Sys.signal Sys.sigterm b) with _ -> ())
        | None -> ());
        Obs.Log.info "shutdown"
      in
      Fun.protect ~finally:graceful_stop (fun () ->
          match accept_loop () with
          | () -> Ok ()
          | exception Unix.Unix_error (e, fn, _) ->
              Error (Printf.sprintf "omlinkd: %s: %s" fn (Unix.error_message e)))
