(* serve-mixed: the link service. Each epoch starts a hermetic omlinkd in
   this process (in-memory store, at most two worker domains) and replays
   one seeded trace of link requests over two client connections, each
   keeping a pipelining window of requests in flight. The trace blends
   duplicates of a hot set (image-cache reads), one-module edits of hot
   programs (partial cunit and lift hits) and cold programs. Every reply's
   image digest is checked against a serial in-process oracle. One op is
   one link request.

   Every epoch replays the same trace against a fresh daemon, so each
   does the same work, cold hot set included; daemon start and stop fall
   between epochs, off the clock. *)

module H = Harness
module P = Server.Protocol
module Json = Obs.Json

type kind = Hot | Edit | Cold

type request = { kind : kind; sources : P.source list; key : string }

(* The traffic starts from [Load]'s Mixed profile (lib/load/load.ml), the
   one this workload was sized from: 7 requests in 10 link one of 8 hot
   programs, 3 in 10 a cold one, 2000 requests. *)
let hot_set = 8
let epoch_len = 2000
let clients = 2

(* Load's pipelining window: the daemon's default per-connection cap. *)
let window = 8
let level = "full"
let workers = min 2 (Domain.recommended_domain_count ())

let key_of sources =
  Store.digest_string
    (String.concat "\000"
       (List.concat_map (fun (s : P.source) -> [ s.P.src_name; s.P.src_text ]) sources))

(* A one-module edit: [main.mc] gains a procedure, so its cunit and lift
   miss while [util.mc]'s hit. *)
let edit sources j =
  List.map
    (fun (s : P.source) ->
      if s.P.src_name = "main.mc" then
        { s with
          P.src_text =
            s.P.src_text ^ Printf.sprintf "func edit_%d() { return %d; }\n" j j }
      else s)
    sources

(* Load's Mixed shares, with one of its seven hot tenths turned into edits:
   60% hot duplicates, 10% edits, 30% cold programs. An edit relinks a hot
   program, so its share comes out of the hot side; the cold share, and so
   the puts of whole new images, stays Load's. One in ten keeps the mix
   close to the profile while every epoch still holds about 200 edits. *)
let trace ~seed =
  let rng = Random.State.make [| 0x5e7e; seed |] in
  Array.init epoch_len (fun j ->
      let hot () = Load.program ~seed (Random.State.int rng hot_set) in
      let kind, sources =
        match Random.State.int rng 10 with
        | r when r < 6 -> (Hot, hot ())
        | 6 -> (Edit, edit (hot ()) j)
        | _ -> (Cold, Load.program ~seed (100_000 + j))
      in
      { kind; sources; key = key_of sources })

let inputs sources =
  List.map
    (fun (s : P.source) ->
      Server.Engine.Source { name = s.P.src_name; text = s.P.src_text })
    sources

let fresh_engine () =
  Server.Engine.create ~store:(Store.in_memory ())
    ~metrics:(Obs.Metrics.create ()) ()

(* Image digest of every distinct program, from one serial engine. *)
let oracle requests =
  let engine = fresh_engine () in
  let tbl = Hashtbl.create 256 in
  Array.iter
    (fun r ->
      if not (Hashtbl.mem tbl r.key) then
        match Server.Engine.link engine ~level (inputs r.sources) with
        | Ok (image, _, _) ->
            Hashtbl.replace tbl r.key
              (Store.digest_string (Store.Codec.image_to_string image))
        | Error m -> failwith ("oracle link: " ^ m))
    requests;
  tbl

(* --- one epoch --- *)

type reply = {
  mutable ok : bool;
  mutable rtt_ms : float;
  mutable engine_ms : float;  (** time inside [Server.Engine.link] *)
  mutable hit : bool;
  mutable coalesced : bool;
}

let socket = Printf.sprintf "perfbench-%d.sock" (Unix.getpid ())

let with_daemon f =
  let engine = fresh_engine () in
  let server =
    Domain.spawn (fun () -> Server.Daemon.serve ~engine ~socket ~workers ())
  in
  let stop () =
    ignore (Server.Client.with_connection ~socket Server.Client.shutdown);
    match Domain.join server with
    | Ok () -> ()
    | Error m -> failwith ("daemon: " ^ m)
  in
  let rec ready tries =
    match
      Server.Client.with_connection ~socket (fun fd -> Server.Client.ping fd ())
    with
    | Ok (Ok _) -> true
    | _ when tries > 0 ->
        Unix.sleepf 0.002;
        ready (tries - 1)
    | _ -> false
  in
  if not (ready 2500) then begin
    stop ();
    failwith "daemon never became ready"
  end;
  match f () with
  | v ->
      stop ();
      v
  | exception e ->
      stop ();
      raise e

let bool_field name fields =
  Option.value ~default:false
    (Option.bind (Server.Client.field name fields) Json.get_bool)

let settle requests oracle replies t0 j = function
  | P.Frame frame -> (
      let r = replies.(j) in
      r.rtt_ms <- 1000. *. (H.now () -. t0.(j));
      match P.response_result frame with
      | Error e ->
          Printf.eprintf "serve-mixed: request %d: [%s] %s\n%!" j e.P.code
            e.P.message
      | Ok fields ->
          r.hit <- bool_field "image_hit" fields;
          r.coalesced <- bool_field "coalesced" fields;
          r.engine_ms <-
            1000.
            *. Option.value ~default:0.
                 (Option.bind (Server.Client.field "elapsed_s" fields)
                    Json.get_float);
          let digest =
            Option.bind (Server.Client.field "image" fields) Json.get_string
            |> Fun.flip Option.bind (fun hex -> Result.to_option (P.hex_decode hex))
            |> Option.map Store.digest_string
          in
          r.ok <- digest = Hashtbl.find_opt oracle requests.(j).key;
          if not r.ok then
            Printf.eprintf "serve-mixed: request %d: image differs from the oracle\n%!" j)
  | P.Eof | P.Bad _ ->
      Printf.eprintf "serve-mixed: request %d: connection lost\n%!" j

(* One connection's share of the trace: a closed loop keeping [window]
   requests in flight; the daemon replies in request order. *)
let client requests oracle replies t0 c =
  match Server.Client.connect ~socket () with
  | Error m -> Printf.eprintf "serve-mixed: connect: %s\n%!" m
  | Ok fd -> (
      Fun.protect ~finally:(fun () -> Server.Client.close fd) @@ fun () ->
      let mine =
        List.filter (fun j -> j mod clients = c) (List.init epoch_len Fun.id)
      in
      let to_send = Queue.of_seq (List.to_seq mine) and awaiting = Queue.create () in
      try
        while not (Queue.is_empty to_send && Queue.is_empty awaiting) do
          if (not (Queue.is_empty to_send)) && Queue.length awaiting < window
          then begin
            let j = Queue.pop to_send in
            t0.(j) <- H.now ();
            P.send fd
              (P.request_to_json
                 (P.request
                    (P.Link
                       { files = []; sources = requests.(j).sources; level;
                         entry = None })));
            Queue.add j awaiting
          end
          else
            let j = Queue.pop awaiting in
            settle requests oracle replies t0 j (P.recv fd)
        done
      with Unix.Unix_error (e, _, _) ->
        Printf.eprintf "serve-mixed: client %d: %s\n%!" c (Unix.error_message e))

(* What a phase's epochs add up to. Epochs fold in as they finish, so
   nothing the benchmark keeps grows with the run. *)
type tally = {
  ph : H.phase;
  mutable best : H.summary;
      (** each figure at its best over the epochs: every epoch replays the
          same trace against a fresh daemon, so each is a whole trial *)
  engine_ms : float array;  (** summed by class: hit, edit, cold *)
  served : int array;  (** non-coalesced replies by class *)
  mutable engine_total_ms : float;
  mutable coalesced : int;
  mutable shed : int;
  store : int array;  (** (mem hits, mem misses) of cunit, lifted, image *)
  mutable mem_bytes : int;
  mutable epochs : int;
}

let tally () =
  { ph = H.phase ();
    best = { H.ops_per_s = 0.; p50_ms = infinity; p90_ms = infinity };
    engine_ms = Array.make 3 0.;
    served = Array.make 3 0;
    engine_total_ms = 0.;
    coalesced = 0;
    shed = 0;
    store = Array.make 6 0;
    mem_bytes = 0;
    epochs = 0 }

let store_kinds = [ "cunit"; "lifted"; "image" ]

let int_at path fields =
  List.fold_left
    (fun j k -> Option.bind j (Json.member k))
    (Some (Json.Obj fields)) path
  |> Fun.flip Option.bind Json.get_int
  |> Option.value ~default:0

let fold_epoch t requests replies ~wall_s stats =
  let lat = Array.map (fun r -> r.rtt_ms) replies in
  Array.sort compare lat;
  let pct p = Option.get (H.percentile lat p) in
  let b = t.best in
  t.best <-
    { H.ops_per_s = Float.max b.H.ops_per_s (float_of_int epoch_len /. wall_s);
      p50_ms = Float.min b.H.p50_ms (pct 0.50);
      p90_ms = Float.min b.H.p90_ms (pct 0.90) };
  Array.iteri
    (fun j r ->
      H.record t.ph r.rtt_ms;
      if not r.ok then t.ph.H.failed <- t.ph.H.failed + 1;
      if r.coalesced then t.coalesced <- t.coalesced + 1
      else begin
        let c = if r.hit then 0 else if requests.(j).kind = Edit then 1 else 2 in
        t.engine_ms.(c) <- t.engine_ms.(c) +. r.engine_ms;
        t.served.(c) <- t.served.(c) + 1;
        t.engine_total_ms <- t.engine_total_ms +. r.engine_ms
      end)
    replies;
  t.shed <- t.shed + int_at [ "sched"; "shed" ] stats;
  List.iteri
    (fun i kind ->
      t.store.(2 * i) <- t.store.(2 * i) + int_at [ "store"; kind; "mem_hits" ] stats;
      t.store.((2 * i) + 1) <-
        t.store.((2 * i) + 1) + int_at [ "store"; kind; "mem_misses" ] stats)
    store_kinds;
  t.mem_bytes <- t.mem_bytes + int_at [ "store"; "mem_bytes" ] stats;
  t.epochs <- t.epochs + 1

(* One epoch: a fresh daemon, the whole trace, and (when traced) the
   daemon's [stats] reply. Wall time runs from the first send to the last
   reply; allocation counts every domain, daemon start and stop included. *)
let run_epoch t ~tracing requests oracle =
  let replies =
    Array.init epoch_len (fun _ ->
        { ok = false; rtt_ms = 0.; engine_ms = 0.; hit = false; coalesced = false })
  in
  let t0 = Array.make epoch_len 0. in
  let w0 = (Gc.quick_stat ()).Gc.minor_words in
  let wall_s, stats =
    with_daemon (fun () ->
        let start = H.now () in
        let threads =
          List.init clients (fun c ->
              Thread.create (client requests oracle replies t0) c)
        in
        List.iter Thread.join threads;
        let wall_s = H.now () -. start in
        let stats =
          if not tracing then []
          else
            match Server.Client.with_connection ~socket Server.Client.stats with
            | Ok (Ok fields) -> fields
            | _ -> failwith "stats request failed"
        in
        (wall_s, stats))
  in
  t.ph.H.wall_s <- t.ph.H.wall_s +. wall_s;
  t.ph.H.op_mw <- t.ph.H.op_mw +. ((Gc.quick_stat ()).Gc.minor_words -. w0);
  fold_epoch t requests replies ~wall_s stats

(* Whole epochs for about [seconds] and at least [min_ops] requests. *)
let run_epochs ~tracing ~seconds ~min_ops requests oracle =
  let t = tally () in
  Gc.compact ();
  let start = H.now () in
  let epoch_s = ref 0. in
  while
    H.another t.ph ~min_ops ~seconds ~elapsed:(H.now () -. start) ~block_s:!epoch_s
  do
    let epoch_start = H.now () in
    run_epoch t ~tracing requests oracle;
    epoch_s := H.now () -. epoch_start
  done;
  t

let setup ~seed () =
  ignore (Toolchain.compile_libstd ());
  let requests = trace ~seed in
  let oracle = oracle requests in
  let warm = run_epochs ~tracing:false ~seconds:0. ~min_ops:1 requests oracle in
  if warm.ph.H.failed > 0 then failwith "warm-up epoch failed";
  (requests, oracle)

(* --- per-layer figures from the traced epochs --- *)

let server_metrics t =
  let ops = float_of_int t.ph.H.ops in
  let engine c = t.engine_ms.(c) /. float_of_int (max 1 t.served.(c)) in
  let mean_rtt = H.mean_latency_ms t.ph in
  let hit_ratio i =
    let hits = t.store.(2 * i) in
    float_of_int hits /. float_of_int (max 1 (hits + t.store.((2 * i) + 1)))
  in
  (* engine time per op plus the rest of each round trip covers it all *)
  let engine_per_op = t.engine_total_ms /. ops in
  ( mean_rtt,
    [ ("server.engine.hit.ms", engine 0, "ms");
      ("server.engine.edit.ms", engine 1, "ms");
      ("server.engine.cold.ms", engine 2, "ms");
      ("server.wait.ms", mean_rtt -. engine_per_op, "ms");
      ("server.coalesced_ratio", float_of_int t.coalesced /. ops, "ratio");
      ("server.shed", float_of_int t.shed, "count");
      ("store.cunit_hit_ratio", hit_ratio 0, "ratio");
      ("store.lift_hit_ratio", hit_ratio 1, "ratio");
      ("store.image_hit_ratio", hit_ratio 2, "ratio");
      ( "store.mem_mb",
        float_of_int t.mem_bytes /. float_of_int t.epochs /. 1048576.,
        "MB" ) ] )

let run ~seed ~seconds ~trace =
  let (requests, oracle), setup_s = H.setup (setup ~seed) in
  Fun.protect ~finally:(fun () -> try Sys.remove socket with Sys_error _ -> ())
  @@ fun () ->
  if not trace then begin
    (* at least three epochs, so each figure is the best of three or more *)
    let t =
      run_epochs ~tracing:false ~seconds ~min_ops:(3 * epoch_len) requests oracle
    in
    { H.attempted = t.ph.H.ops;
      failed = t.ph.H.failed;
      metrics = H.end_to_end ~setup_s t.best }
  end
  else begin
    let plain =
      run_epochs ~tracing:false ~seconds:(seconds /. 2.) ~min_ops:1000 requests
        oracle
    in
    let traced =
      run_epochs ~tracing:true ~seconds:(seconds /. 2.) ~min_ops:1 requests oracle
    in
    let layer_ms, server = server_metrics traced in
    { H.attempted = plain.ph.H.ops + traced.ph.H.ops;
      failed = plain.ph.H.failed + traced.ph.H.failed;
      metrics = H.accounting ~plain:plain.ph ~traced:traced.ph ~layer_ms @ server }
  end
