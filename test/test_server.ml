(* The link service: wire-protocol round-trips, the incremental engine's
   cache behaviour, and an end-to-end daemon smoke test. *)

module P = Server.Protocol
module Json = Obs.Json

(* --- wire protocol --- *)

let roundtrip env =
  let j = P.request_to_json env in
  match Json.parse (Json.to_string ~minify:true j) with
  | Error m -> Alcotest.failf "reparse failed: %s" m
  | Ok j' -> (
      match P.request_of_json j' with
      | Error m -> Alcotest.failf "decode failed: %s" m
      | Ok env' -> env')

let test_request_roundtrips () =
  let cases =
    [ P.request (P.Ping { delay_ms = 0 });
      P.request ~deadline_ms:250 (P.Ping { delay_ms = 40 });
      P.request ~trace:true
        (P.Link
           { files = [ "x.mc" ];
             sources = [];
             level = "sched";
             entry = Some "main" });
      P.request
        (P.Link
           { files = [];
             sources =
               [ { P.src_name = "m.mc"; src_text = "func main() { return 0; }" } ];
             level = "full";
             entry = None });
      P.request P.Stats;
      P.request P.Shutdown ]
  in
  List.iter
    (fun env ->
      Alcotest.(check bool)
        (Printf.sprintf "%s round-trips" (P.kind_of_request env.P.req))
        true
        (roundtrip env = env))
    cases

let test_request_rejects_garbage () =
  let bad j =
    match P.request_of_json j with
    | Ok _ -> Alcotest.fail "accepted a malformed request"
    | Error _ -> ()
  in
  bad (Json.Obj []);
  bad (Json.Obj [ ("kind", Json.String "frobnicate") ]);
  bad (Json.Obj [ ("kind", Json.String "link") ]);
  bad
    (Json.Obj
       [ ("kind", Json.String "link"); ("files", Json.String "not-a-list") ]);
  (* the daemon runs no benchmark matrix, and compiles only to link *)
  bad (Json.Obj [ ("kind", Json.String "suite"); ("bench", Json.String "li") ]);
  match
    P.request_of_json
      (Json.Obj
         [ ("kind", Json.String "compile");
           ("files", Json.List [ Json.String "a.mc"; Json.String "b.o" ]) ])
  with
  | Ok _ -> Alcotest.fail "accepted a compile request"
  | Error m ->
      Alcotest.(check string) "compile is an unknown kind"
        {|unknown request kind "compile"|} m

(* the per-byte Printf formulation: the reference the table-driven
   encoder must match byte for byte *)
let hex_reference s =
  String.concat ""
    (List.map
       (fun c -> Printf.sprintf "%02x" (Char.code c))
       (List.of_seq (String.to_seq s)))

let test_hex_roundtrip () =
  let rng = Fuzz.Rng.create 16 in
  let random () =
    String.init (Fuzz.Rng.int rng 64) (fun _ -> Char.chr (Fuzz.Rng.int rng 256))
  in
  List.iter
    (fun s ->
      let hex = P.hex_encode s in
      Alcotest.(check string) "two lower-case digits per byte" (hex_reference s)
        hex;
      match P.hex_decode hex with
      | Ok s' -> Alcotest.(check string) "every byte survives" s s'
      | Error m -> Alcotest.failf "decode failed: %s" m)
    (String.init 256 Char.chr :: List.init 500 (fun _ -> random ()));
  let decodes expected hex =
    Alcotest.(check (result string string))
      (Printf.sprintf "decode %S" hex) expected (P.hex_decode hex)
  in
  decodes (Ok "\x00\xff\xab\xcd\x9e") "00fFAbcD9e";
  decodes (Ok "") "";
  decodes (Error "odd-length hex string") "abc";
  (* the first bad digit is named, in the high or the low nibble of the
     first, a middle or the last byte *)
  List.iter
    (fun hex -> decodes (Error "bad hex digit 'g'") hex)
    [ "g0aabb"; "0gaabb"; "aag0bb"; "aa0gbb"; "aabbg0"; "aabb0g" ];
  decodes (Error "bad hex digit 'z'") "aazgbb";
  decodes (Error "bad hex digit '\\n'") "aa0\nbb";
  decodes (Error "bad hex digit '\\255'") "aabb\xff0";
  (* linear, and no allocation beyond the result *)
  let n = 100_000 in
  let raw = String.init n (fun _ -> Char.chr (Fuzz.Rng.int rng 256)) in
  let hex = P.hex_encode raw in
  Alcotest.(check bool) "hex_encode allocates at most 2.1 bytes per byte" true
    (Testutil.allocated (fun () -> P.hex_encode raw) <= 2.1 *. float_of_int n);
  Alcotest.(check bool) "hex_decode allocates at most 1.1 bytes per byte" true
    (Testutil.allocated (fun () -> P.hex_decode hex) <= 1.1 *. float_of_int n)

let test_framing_over_socketpair () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
  @@ fun () ->
  let doc =
    Json.Obj [ ("kind", Json.String "ping"); ("payload", Json.String "αβγ") ]
  in
  P.send a doc;
  (match P.recv b with
  | P.Frame j ->
      Alcotest.(check string) "frame round-trips"
        (Json.to_string ~minify:true doc)
        (Json.to_string ~minify:true j)
  | _ -> Alcotest.fail "expected a frame");
  (* a torn frame: a length header promising bytes that never come *)
  ignore (Unix.write_substring a "\x00\x00\x00\x0a" 0 4);
  Unix.close a;
  match P.recv b with
  | P.Bad _ -> ()
  | P.Frame _ -> Alcotest.fail "torn frame decoded"
  | P.Eof -> Alcotest.fail "torn frame reported as clean EOF"

let test_eof_at_boundary () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.close a;
  Fun.protect ~finally:(fun () -> try Unix.close b with Unix.Unix_error _ -> ())
  @@ fun () ->
  match P.recv b with
  | P.Eof -> ()
  | _ -> Alcotest.fail "expected clean EOF"

let test_oversized_frame_rejected () =
  (* each input must come back [Bad], with an error naming the defect *)
  let rejects (what, bytes, affix) =
    let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () ->
        (try Unix.close a with Unix.Unix_error _ -> ());
        try Unix.close b with Unix.Unix_error _ -> ())
    @@ fun () ->
    ignore (Unix.write_substring a bytes 0 (String.length bytes));
    match P.recv b with
    | P.Bad m ->
        Alcotest.(check bool) (what ^ ": error names the defect") true
          (Testutil.contains ~affix m)
    | _ -> Alcotest.failf "%s accepted" what
  in
  let frame payload =
    let n = String.length payload in
    String.init 4 (fun i -> Char.chr ((n lsr (8 * (3 - i))) land 0xff))
    ^ payload
  in
  List.iter rejects
    [ (* a header claiming ~2 GB: must be rejected without reading it *)
      ("oversized frame", "\x7f\xff\xff\xff", "length");
      (* well-framed, but nested past the parser's bound *)
      ("deep frame", frame (String.make 10_000 '['), "nesting deeper than 512") ]

(* --- the incremental engine --- *)

let tmp_sources () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "omlt_server_%d_%d" (Unix.getpid ())
         (Random.int 1_000_000))
  in
  Unix.mkdir dir 0o755;
  dir

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let util_src = "func helper(x) { return x * 3 + 1; }\n"

let main_src =
  "extern func helper(x);\nfunc main() { io_putint_nl(helper(13)); return 0; }\n"

let engine_inputs () =
  [ Server.Engine.Source { name = "util.mc"; text = util_src };
    Server.Engine.Source { name = "main.mc"; text = main_src } ]

let link_ok engine ?(level = "full") inputs =
  match Server.Engine.link engine ~level inputs with
  | Ok r -> r
  | Error m -> Alcotest.failf "engine link failed: %s" m

let test_engine_incremental_relink () =
  let store = Store.in_memory () in
  let engine = Server.Engine.create ~store () in
  (* the store's counters around each (serial) link *)
  let counted link =
    let before kind = Store.counters store kind in
    let cunit0 = before Store.Cunit and image0 = before Store.Image in
    let r = link () in
    ( r,
      Store.counters_diff (Store.counters store Store.Cunit) cunit0,
      Store.counters_diff (Store.counters store Store.Image) image0 )
  in
  (* cold link: every source compiles, the image is stored *)
  let (_, _, cold), cold_cunit, cold_image =
    counted (fun () -> link_ok engine (engine_inputs ()))
  in
  Alcotest.(check bool) "cold link is not an image hit" false
    cold.Server.Engine.li_image_hit;
  Alcotest.(check int) "cold link compiles both modules" 2
    cold_cunit.Store.disk_misses;
  Alcotest.(check int) "cold link stores its image" 1 cold_image.Store.puts;
  (* identical relink: served whole from the image cache *)
  let (image1, _, warm), warm_cunit, warm_image =
    counted (fun () -> link_ok engine (engine_inputs ()))
  in
  Alcotest.(check bool) "unchanged relink is an image hit" true
    warm.Server.Engine.li_image_hit;
  Alcotest.(check int) "unchanged relink compiles nothing" 0
    warm_cunit.Store.disk_misses;
  Alcotest.(check int) "unchanged relink is one image hit" 1
    warm_image.Store.mem_hits;
  (* one-module edit: exactly one recompile; the unchanged module's unit
     is served from the store *)
  let edited =
    [ Server.Engine.Source
        { name = "util.mc"; text = "func helper(x) { return x * 5 + 1; }\n" };
      Server.Engine.Source { name = "main.mc"; text = main_src } ]
  in
  let (image2, _, inc), inc_cunit, inc_image =
    counted (fun () -> link_ok engine edited)
  in
  Alcotest.(check bool) "edited relink is not an image hit" false
    inc.Server.Engine.li_image_hit;
  Alcotest.(check int) "exactly one module re-compiled" 1
    inc_cunit.Store.disk_misses;
  Alcotest.(check int) "the unchanged module is a cache hit" 1
    inc_cunit.Store.mem_hits;
  Alcotest.(check int) "the edited image is stored" 1 inc_image.Store.puts;
  (* the edit must actually change behaviour *)
  let out image =
    (Testutil.run_image image).Machine.Cpu.output
  in
  Alcotest.(check string) "original program output" "40\n" (out image1);
  Alcotest.(check string) "edited program output" "66\n" (out image2)

let test_engine_matches_direct_link () =
  (* the engine's cached pipeline must produce bit-identical images to
     the one-shot paths, the standard linker's and [Om.link], at every
     target, whichever spelling names it *)
  let units =
    [ Testutil.compile ~name:"util.mc" util_src;
      Testutil.compile ~name:"main.mc" main_src ]
  in
  let archives = [ Runtime.libstd () ] in
  let check level target =
    let engine = Server.Engine.create ~store:(Store.in_memory ()) () in
    let image, _, info = link_ok engine ~level (engine_inputs ()) in
    let direct =
      match target with
      | Om.Standard -> Linker.Link.link units ~archives
      | Om.Level level ->
          Result.map (fun o -> o.Om.image) (Om.link ~level units ~archives)
    in
    let direct =
      match direct with
      | Ok image -> image
      | Error m -> Alcotest.failf "direct link failed: %s" m
    in
    Alcotest.(check string)
      (Printf.sprintf "engine image = direct image at %s" level)
      (Store.Codec.image_to_string direct)
      (Store.Codec.image_to_string image);
    Alcotest.(check string)
      (level ^ " reports its target's name")
      (Om.target_name target) info.Server.Engine.li_level
  in
  (* derived from Om.targets so a new level is covered automatically *)
  List.iter (fun t -> check (Om.target_name t) t) Om.targets;
  check "std" Om.Standard;
  check "full" (Om.Level Om.Full)

let test_engine_recomputes_undecodable_entries () =
  (* a cache entry that does not decode is a miss: the engine compiles or
     links afresh instead of failing, and writes the good artifact back *)
  let store = Store.in_memory () in
  let engine =
    Server.Engine.create ~store ~metrics:(Obs.Metrics.create ()) ()
  in
  let expected, _, cold = link_ok engine (engine_inputs ()) in
  let util = List.hd (engine_inputs ()) in
  let u =
    match Server.Engine.compile_unit engine util with
    | Ok (u, true) -> u
    | Ok (_, false) -> Alcotest.fail "warm compile missed the cache"
    | Error m -> Alcotest.failf "compile failed: %s" m
  in
  (* the engine keys a compiled unit by options, name and source *)
  Store.put store Store.Cunit
    ~key:(Store.digest_string ("mc:O2:util.mc\x00" ^ util_src))
    "not a unit";
  (match Server.Engine.compile_unit engine util with
  | Ok (u', false) ->
      Alcotest.(check string) "recompiled unit is the cached one's twin"
        (Store.Codec.cunit_to_string u) (Store.Codec.cunit_to_string u')
  | Ok (_, true) -> Alcotest.fail "undecodable unit served as a hit"
  | Error m -> Alcotest.failf "compile after garbage failed: %s" m);
  (* and an image: the engine keys one by level, entry, libstd and each
     unit's digest *)
  let key =
    Store.digest_string
      (String.concat "\x00"
         ([ "image"; "om-full"; "__start";
            Store.Codec.archive_digest (Runtime.libstd ()) ]
         @ List.map
             (fun i ->
               match Server.Engine.compile_unit engine i with
               | Ok (u, _) -> Store.Codec.cunit_digest u
               | Error m -> Alcotest.failf "compile failed: %s" m)
             (engine_inputs ())))
  in
  Alcotest.(check (option string)) "the key holds the cold link's image"
    (Some cold.Server.Engine.li_image_bytes)
    (Store.get store Store.Image ~key);
  Store.put store Store.Image ~key "not an image";
  let image, _, relinked = link_ok engine (engine_inputs ()) in
  Alcotest.(check bool) "undecodable image entry is a miss" false
    relinked.Server.Engine.li_image_hit;
  Alcotest.(check string) "relinked image equals the cold link's"
    (Store.Codec.image_to_string expected) (Store.Codec.image_to_string image);
  (* the relinked image was written back: the next link decodes it *)
  let _, _, next = link_ok engine (engine_inputs ()) in
  Alcotest.(check bool) "the rewritten entry is a hit" true
    next.Server.Engine.li_image_hit

(* A link encodes its image once: the info carries the bytes stored under
   the image key, and a hit passes the stored payload on unchanged. That
   relies on the encoding being canonical, which this pins for a cold
   link, a memory hit and a disk hit through a second engine. *)
let test_engine_image_bytes_stored_once () =
  let dir = tmp_sources () in
  Fun.protect ~finally:(fun () -> try rm_rf dir with Sys_error _ -> ())
  @@ fun () ->
  let engine () =
    Server.Engine.create
      ~store:(Store.create ~dir:(Some dir) ())
      ~metrics:(Obs.Metrics.create ()) ()
  in
  let first = engine () in
  let check what ~hit engine level =
    let image, _, info = link_ok engine ~level (engine_inputs ()) in
    let what = Printf.sprintf "%s at %s" what level in
    Alcotest.(check bool) (what ^ ": image hit") hit
      info.Server.Engine.li_image_hit;
    Alcotest.(check string) (what ^ ": bytes are the image's encoding")
      (Store.Codec.image_to_string image) info.Server.Engine.li_image_bytes;
    Alcotest.(check string) (what ^ ": digest is the bytes' digest")
      (Store.digest_string info.Server.Engine.li_image_bytes)
      info.Server.Engine.li_image_digest;
    info
  in
  let levels = "std" :: List.map Om.level_name Om.all_levels in
  let cold = List.map (check "cold link" ~hit:false first) levels in
  List.iter2
    (fun level (c : Server.Engine.link_info) ->
      let mem = check "memory hit" ~hit:true first level in
      Alcotest.(check string) "memory hit sends the cold link's bytes"
        c.Server.Engine.li_image_bytes mem.Server.Engine.li_image_bytes)
    levels cold;
  let second = engine () in
  List.iter2
    (fun level (c : Server.Engine.link_info) ->
      let disk_hits () =
        (Store.counters (Server.Engine.store second) Store.Image)
          .Store.disk_hits
      in
      let hits0 = disk_hits () in
      let disk = check "disk hit" ~hit:true second level in
      Alcotest.(check int) "served from disk" 1 (disk_hits () - hits0);
      Alcotest.(check string) "disk hit sends the cold link's bytes"
        c.Server.Engine.li_image_bytes disk.Server.Engine.li_image_bytes)
    levels cold

let test_relink_timings () =
  let b =
    match Workloads.Programs.find "li" with
    | Some b -> b
    | None -> Alcotest.fail "li benchmark missing"
  in
  match Server.Engine.relink_timings b.Workloads.Programs.sources with
  | Error m -> Alcotest.failf "relink timing failed: %s" m
  | Ok r ->
      Alcotest.(check bool) "warm time positive" true
        (r.Obs.Report.warm_s > 0.);
      (* medians of warmed engines: the cold link compiles every module,
         the warm one a single module *)
      Alcotest.(check bool) "warm relink faster than cold" true
        (r.Obs.Report.warm_s < r.Obs.Report.cold_s)

(* --- end-to-end daemon smoke test --- *)

let test_daemon_smoke () =
  let dir = tmp_sources () in
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> try rm dir with Sys_error _ -> ())
  @@ fun () ->
  let util_path = Filename.concat dir "util.mc" in
  let main_path = Filename.concat dir "main.mc" in
  write_file util_path util_src;
  write_file main_path main_src;
  let socket = Filename.concat dir "d.sock" in
  let engine = Server.Engine.create ~store:(Store.in_memory ()) () in
  let server =
    Domain.spawn (fun () ->
        Server.Daemon.serve ~engine ~socket ())
  in
  (* the daemon binds asynchronously: retry the connect briefly *)
  let rec connect tries =
    match Server.Client.connect ~socket () with
    | Ok fd -> fd
    | Error m ->
        if tries = 0 then Alcotest.failf "could not connect: %s" m
        else begin
          Unix.sleepf 0.05;
          connect (tries - 1)
        end
  in
  let fd = connect 100 in
  Fun.protect ~finally:(fun () -> Server.Client.close fd) @@ fun () ->
  (* ping *)
  (match Server.Client.ping fd () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "ping failed: %s" e.P.message);
  (* link through the daemon; the bytes must equal an in-process link *)
  let daemon_bytes, fields =
    match Server.Client.link fd ~level:"full" [ util_path; main_path ] with
    | Ok r -> r
    | Error e -> Alcotest.failf "daemon link failed: %s" e.P.message
  in
  let direct =
    (* the daemon names file inputs <base>.o — match it so any naming
       sensitivity shows up as a bytes mismatch, not a flake *)
    match
      Om.link ~level:Om.Full
        [ Testutil.compile ~name:"util.o" util_src;
          Testutil.compile ~name:"main.o" main_src ]
        ~archives:[ Runtime.libstd () ]
    with
    | Ok { Om.image; _ } -> Store.Codec.image_to_string image
    | Error m -> Alcotest.failf "direct link failed: %s" m
  in
  Alcotest.(check string) "daemon image bytes = in-process image bytes" direct
    daemon_bytes;
  let digest_matches bytes fields =
    Alcotest.(check (option string)) "image_digest is the image bytes' digest"
      (Some (Store.digest_string bytes))
      (Option.bind (Server.Client.field "image_digest" fields) Json.get_string)
  in
  digest_matches daemon_bytes fields;
  (* a slow ping against a short deadline: structured timeout, and the
     connection keeps working afterwards *)
  (match Server.Client.ping fd ~deadline_ms:50 ~delay_ms:2000 () with
  | Ok _ -> Alcotest.fail "deadline did not fire"
  | Error e -> Alcotest.(check string) "timeout error code" "timeout" e.P.code);
  (match Server.Client.ping fd () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "ping after timeout failed: %s" e.P.message);
  (* warm relink through the daemon: an image hit *)
  (match Server.Client.link fd ~level:"full" [ util_path; main_path ] with
  | Error e -> Alcotest.failf "warm daemon link failed: %s" e.P.message
  | Ok (warm_bytes, warm_fields) ->
      Alcotest.(check string) "warm bytes identical" direct warm_bytes;
      digest_matches warm_bytes warm_fields;
      Alcotest.(check bool) "warm link is an image hit" true
        (match
           Option.bind (Server.Client.field "image_hit" warm_fields)
             Json.get_bool
         with
        | Some b -> b
        | None -> false));
  (* shutdown: daemon replies, exits cleanly, removes its socket *)
  (match Server.Client.shutdown fd with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "shutdown failed: %s" e.P.message);
  (match Domain.join server with
  | Ok () -> ()
  | Error m -> Alcotest.failf "daemon exited with: %s" m);
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists socket)

(* Scripted latencies fetched back over the wire: the registry's
   quantiles must be *exact* for values below the unit-bucket limit,
   and the daemon must expose per-request-kind histograms for the
   requests the client actually sent. *)
let test_daemon_metrics_exact () =
  let dir = tmp_sources () in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
      Unix.rmdir dir)
  @@ fun () ->
  let socket = Filename.concat dir "d.sock" in
  let reg = Obs.Metrics.create () in
  let engine =
    Server.Engine.create ~store:(Store.in_memory ()) ~metrics:reg ()
  in
  (* a scripted request sequence under a kind label the test never
     sends over the wire, so live daemon latencies cannot pollute it *)
  let h =
    Obs.Metrics.histogram ~registry:reg
      ~labels:[ ("kind", "scripted") ]
      "omlinkd_request_us"
  in
  for v = 1 to 100 do
    Obs.Metrics.observe h v
  done;
  let server =
    Domain.spawn (fun () -> Server.Daemon.serve ~engine ~socket ())
  in
  let rec connect tries =
    match Server.Client.connect ~socket () with
    | Ok fd -> fd
    | Error m ->
        if tries = 0 then Alcotest.failf "could not connect: %s" m
        else begin
          Unix.sleepf 0.05;
          connect (tries - 1)
        end
  in
  let fd = connect 100 in
  Fun.protect ~finally:(fun () -> Server.Client.close fd) @@ fun () ->
  (* one real request first, so a live per-kind histogram exists too *)
  (match Server.Client.ping fd () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "ping failed: %s" e.P.message);
  let fields =
    match Server.Client.metrics fd with
    | Ok fields -> fields
    | Error e -> Alcotest.failf "metrics failed: %s" e.P.message
  in
  let snapshot =
    match Server.Client.field "metrics" fields with
    | Some j -> j
    | None -> Alcotest.fail "metrics reply carries no snapshot"
  in
  let histograms =
    match Option.bind (Json.member "histograms" snapshot) Json.get_list with
    | Some l -> l
    | None -> Alcotest.fail "snapshot carries no histogram list"
  in
  let kind_of j =
    Option.bind (Json.member "labels" j) (Json.member "kind")
    |> Fun.flip Option.bind Json.get_string
  in
  let find_hist kind =
    List.find_opt
      (fun j ->
        Option.bind (Json.member "name" j) Json.get_string
          = Some "omlinkd_request_us"
        && kind_of j = Some kind)
      histograms
  in
  (match find_hist "scripted" with
  | None -> Alcotest.fail "scripted histogram missing from wire snapshot"
  | Some j ->
      let int_field name =
        match Option.bind (Json.member name j) Json.get_int with
        | Some v -> v
        | None -> Alcotest.failf "histogram field %s missing" name
      in
      (* values 1..100: every sample sits in a unit-width bucket, so
         the rank-based quantiles are the true order statistics *)
      Alcotest.(check int) "count" 100 (int_field "count");
      Alcotest.(check int) "sum" 5050 (int_field "sum");
      Alcotest.(check int) "p50 exact" 50 (int_field "p50");
      Alcotest.(check int) "p95 exact" 95 (int_field "p95");
      Alcotest.(check int) "p99 exact" 99 (int_field "p99");
      Alcotest.(check int) "max exact" 100 (int_field "max"));
  (match find_hist "ping" with
  | None -> Alcotest.fail "no per-kind histogram for the ping we sent"
  | Some j ->
      let count =
        match Option.bind (Json.member "count" j) Json.get_int with
        | Some v -> v
        | None -> Alcotest.fail "ping histogram has no count"
      in
      Alcotest.(check bool) "ping latency recorded" true (count >= 1));
  (* the prometheus rendering travels alongside the snapshot *)
  (match
     Option.bind (Server.Client.field "prometheus" fields) Json.get_string
   with
  | None -> Alcotest.fail "metrics reply carries no prometheus text"
  | Some text ->
      Alcotest.(check bool) "prometheus names the histogram" true
        (Testutil.contains ~affix:"omlinkd_request_us" text));
  (match Server.Client.shutdown fd with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "shutdown failed: %s" e.P.message);
  match Domain.join server with
  | Ok () -> ()
  | Error m -> Alcotest.failf "daemon exited with: %s" m

(* resolved relative to the test binary, so the tests work from any cwd
   (dune runtest uses _build/default/test, dune exec does not), and made
   absolute so a command can run it from another directory *)
let omlink_exe () =
  let exe =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      (Filename.concat ".." (Filename.concat "bin" "omlink.exe"))
  in
  let exe =
    if Filename.is_relative exe then Filename.concat (Sys.getcwd ()) exe
    else exe
  in
  if not (Sys.file_exists exe) then
    Alcotest.fail "bin/omlink.exe not built alongside the tests";
  exe

(* run omlink in [dir]: its exit status, stdout and stderr *)
let run_omlink ~dir args =
  let out = Filename.concat dir "stdout.txt"
  and err = Filename.concat dir "stderr.txt" in
  let code =
    Sys.command
      (Printf.sprintf "cd %s && %s" (Filename.quote dir)
         (Filename.quote_command (omlink_exe ()) ~stdout:out ~stderr:err args))
  in
  let read path = In_channel.with_open_bin path In_channel.input_all in
  (code, read out, read err)

(* `bench compare` must exit non-zero when fed a synthetically
   regressed report, and zero on an identical pair. *)
let test_bench_compare_exit_codes () =
  let omlink_exe = omlink_exe () in
  let dir = tmp_sources () in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
      Unix.rmdir dir)
  @@ fun () ->
  let report ?(text_bytes = 3600) ~cycles () =
    let run level cycles =
      { Obs.Report.level;
        cycles;
        insns = 900;
        counters = [];
        attribution = None;
        fault = None;
        wall_s = None;
        size =
          Some { Obs.Report.text_bytes; data_bytes = 512; gat_bytes = 64 } }
    in
    Obs.Report.make
      [ { Obs.Report.bench = "b";
          build = "compile-each";
          outputs_agree = true;
          runs = [ run Obs.Report.standard_level 1250; run "om-full" cycles ]
        } ]
  in
  let write name r =
    let path = Filename.concat dir name in
    Obs.Report.write path r;
    path
  in
  let old_p = write "old.json" (report ~cycles:1000 ()) in
  let same_p = write "same.json" (report ~cycles:1000 ()) in
  let bad_p = write "bad.json" (report ~cycles:1100 ()) in
  let fat_p =
    (* cycles untouched, text 2.8% bigger: only the size gate can fire *)
    write "fat.json" (report ~text_bytes:3700 ~cycles:1000 ())
  in
  let run args =
    Sys.command
      (Filename.quote_command omlink_exe ~stdout:Filename.null
         ("bench" :: "compare" :: args))
  in
  Alcotest.(check int) "identical reports pass" 0 (run [ old_p; same_p ]);
  Alcotest.(check int) "identical reports pass CI's gates" 0
    (run [ old_p; same_p; "--min-mips"; "8" ]);
  Alcotest.(check bool) "regressed report fails" true
    (run [ old_p; bad_p ] <> 0);
  Alcotest.(check bool) "size-regressed report fails" true
    (run [ old_p; fat_p ] <> 0);
  Alcotest.(check int) "a report without one of OLD's rows fails" 1
    (run [ old_p; write "gone.json" (Obs.Report.make []) ]);
  (* an unreadable report, missing or cut short, is a usage error whose
     message names its file once *)
  let truncated = Filename.concat dir "truncated.json" in
  Out_channel.with_open_bin truncated (fun oc ->
      let text = In_channel.with_open_bin old_p In_channel.input_all in
      output_string oc (String.sub text 0 (String.length text / 2)));
  List.iter
    (fun path ->
      let code, _, err = run_omlink ~dir [ "bench"; "compare"; old_p; path ] in
      Alcotest.(check int) (path ^ " is a usage error") 2 code;
      Alcotest.(check bool)
        (Printf.sprintf "%S names %s once" err path)
        true
        (String.starts_with ~prefix:(path ^ ": ") err
        && not
             (Testutil.contains ~affix:path
                (String.sub err 1 (String.length err - 1)))))
    [ Filename.concat dir "nope.json"; truncated ]

(* three cycles in each address category, the rest in "other" *)
let buckets total =
  List.map
    (fun c ->
      let cycles = if c = Obs.Attr.Other then total - 9 else 3 in
      (Obs.Attr.category_name c, { Obs.Report.insns = 1; cycles }))
    Obs.Attr.all_categories

(* a metrics snapshot whose pool task histogram holds [n] samples *)
let pool_metrics n =
  let reg = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram ~registry:reg "omlt_pool_task_us" in
  List.iter (Obs.Metrics.observe h) (List.init n (fun i -> 10 * (i + 1)));
  Obs.Metrics.to_json reg

(* `bench check-report` on a report built from [attribution] (om-full's
   buckets) and the [metrics] snapshot; 0 or 1 *)
let check_report ~attribution ~metrics =
  let dir = tmp_sources () in
  Fun.protect ~finally:(fun () -> try rm_rf dir with Sys_error _ -> ())
  @@ fun () ->
  let size =
    Some { Obs.Report.text_bytes = 3600; data_bytes = 512; gat_bytes = 64 }
  in
  let load =
    { Obs.Report.l_profile = "mixed";
      l_level = "full";
      l_clients = 2;
      l_workers = 2;
      l_requests = 4;
      l_ok = 4;
      l_failed = 0;
      l_overloaded = 0;
      l_timeouts = 0;
      l_coalesced = 1;
      l_image_hits = 0;
      l_mismatched = 0;
      l_wall_s = 0.5;
      l_latency =
        { Obs.Report.q_count = 4;
          q_p50_us = 10;
          q_p95_us = 20;
          q_p99_us = 30;
          q_max_us = 40 } }
  in
  let run level cycles attribution =
    { Obs.Report.level;
      cycles;
      insns = 900;
      counters = [];
      attribution;
      fault = None;
      wall_s = Some 0.01;
      size }
  in
  let report =
    Obs.Report.make ~metrics ~load
      [ { Obs.Report.bench = "b";
          build = "compile-each";
          outputs_agree = true;
          runs =
            [ run Obs.Report.standard_level 1200 (Some (buckets 1200));
              run "om-full" 1000 attribution ] } ]
  in
  (* check-report reads BENCH_report.json from its working directory *)
  Obs.Report.write (Filename.concat dir "BENCH_report.json") report;
  let code, _, _ = run_omlink ~dir [ "bench"; "check-report" ] in
  code

(* `bench check-report` must refuse a report whose attribution is missing
   or does not add up to the cycles, or whose metrics snapshot lacks the
   pool's task latency. *)
let test_bench_check_report_gates_attribution () =
  let metrics = pool_metrics 4 and attribution = Some (buckets 1000) in
  Alcotest.(check int) "complete report passes" 0
    (check_report ~attribution ~metrics);
  Alcotest.(check int) "a run without attribution fails" 1
    (check_report ~attribution:None ~metrics);
  Alcotest.(check int) "a bucket one cycle off fails" 1
    (check_report ~attribution:(Some (buckets 1001)) ~metrics);
  Alcotest.(check int) "a snapshot without the pool histogram fails" 1
    (check_report ~attribution ~metrics:(Json.Obj []));
  Alcotest.(check int) "an empty pool histogram fails" 1
    (check_report ~attribution ~metrics:(pool_metrics 0))

(* `bench load` as CI spells it passes against a hermetic daemon; a
   malformed flag is refused before any daemon starts *)
let test_bench_load_command_line () =
  let dir = tmp_sources () in
  Fun.protect ~finally:(fun () -> try rm_rf dir with Sys_error _ -> ())
  @@ fun () ->
  let code, out, _ =
    run_omlink ~dir
      [ "bench"; "load"; "-j"; "2"; "--profile"; "mixed"; "--clients"; "8";
        "--requests"; "48"; "--retries"; "4"; "--p99-max-ms"; "5000";
        "--no-report" ]
  in
  Alcotest.(check int) "CI's load smoke passes" 0 code;
  Alcotest.(check bool) "every reply matches the oracle" true
    (Testutil.contains ~affix:"mismatched=0" out);
  let code, out, err = run_omlink ~dir [ "bench"; "load"; "--clients"; "0" ] in
  Alcotest.(check int) "--clients 0 is a usage error" 124 code;
  Alcotest.(check string) "nothing ran" "" out;
  Alcotest.(check bool) "no daemon started" false
    (Testutil.contains ~affix:"[bench] load" err)

(* `suite` prints one row per build with its simulated Minsns and MIPS,
   then the aggregate and block-cache lines *)
let test_suite_prints_throughput () =
  let dir = tmp_sources () in
  Fun.protect ~finally:(fun () -> try rm_rf dir with Sys_error _ -> ())
  @@ fun () ->
  let code, out, _ =
    run_omlink ~dir [ "suite"; "--bench"; "compress"; "-j"; "1" ]
  in
  Alcotest.(check int) "suite passes" 0 code;
  let lines = List.filter (( <> ) "") (String.split_on_char '\n' out) in
  match lines with
  | [ each; all; aggregate; cache ] ->
      List.iter
        (fun (build, row) ->
          Alcotest.(check bool) (build ^ " row") true
            (String.starts_with ~prefix:"compress" row
            && Testutil.contains ~affix:build row
            && Testutil.contains ~affix:" Minsns " row
            && String.ends_with ~suffix:" MIPS" row))
        [ ("compile-each", each); ("compile-all", all) ];
      Alcotest.(check bool) "aggregate line" true
        (String.starts_with ~prefix:"12 simulations, " aggregate
        && String.ends_with ~suffix:" MIPS aggregate" aggregate);
      Alcotest.(check bool) "block-cache line" true
        (String.starts_with ~prefix:"block cache: " cache)
  | _ -> Alcotest.failf "unexpected suite output:\n%s" out

(* --- omlink stats: one program measured at every level --- *)

let stats_src =
  "func fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }\n\
   func main() { io_putint_nl(fib(12)); return 0; }\n"

(* every image of this program faults: the store is far past the data *)
let faulting_src = "var a[4];\nfunc main() { a[1000000000] = 1; return 0; }\n"

(* run `omlink stats p.mc ARGS` on [src] in a fresh directory *)
let run_stats src args =
  let dir = tmp_sources () in
  Fun.protect ~finally:(fun () -> try rm_rf dir with Sys_error _ -> ())
  @@ fun () ->
  Out_channel.with_open_bin (Filename.concat dir "p.mc") (fun oc ->
      output_string oc src);
  run_omlink ~dir ("stats" :: "p.mc" :: args)

let stats_row src =
  let code, out, err = run_stats src [ "--json" ] in
  if code <> 0 then Alcotest.failf "stats --json exited %d: %s" code err;
  match Result.bind (Json.parse out) Obs.Report.of_json with
  | Ok { Obs.Report.results = [ row ]; _ } -> row
  | Ok _ -> Alcotest.fail "stats --json printed no single row"
  | Error m -> Alcotest.failf "stats --json: %s" m

let stats_lines src =
  let code, out, err = run_stats src [] in
  if code <> 0 then Alcotest.failf "stats exited %d: %s" code err;
  List.filter (( <> ) "") (String.split_on_char '\n' out)

(* `stats --json` is Reports.Measure's row for the same files: executed
   instruction counts, and a host time for every simulation *)
let test_stats_row_is_measures_row () =
  let row = stats_row stats_src in
  let world =
    match
      Linker.Resolve.run
        [ Testutil.compile ~name:"p.o" stats_src ]
        ~archives:[ Runtime.libstd () ]
    with
    | Ok w -> w
    | Error m -> Alcotest.failf "resolve failed: %s" m
  in
  List.iter2
    (fun (level, d) (run : Obs.Report.run) ->
      Alcotest.(check string) "runs in target order" level run.level;
      Alcotest.(check int)
        (run.level ^ " insns are executed instructions")
        (Testutil.run_decoded d).Machine.Cpu.stats.Machine.Cpu.insns run.insns)
    (Testutil.target_images world)
    row.Obs.Report.runs;
  Alcotest.(check bool) "every simulation is timed" true
    (List.for_all
       (fun (run : Obs.Report.run) -> run.wall_s <> None)
       row.Obs.Report.runs);
  match Reports.Measure.run_world ~bench:"p.mc" ~build:"files" world with
  | Error m -> Alcotest.failf "run_world failed: %s" m
  | Ok expected ->
      Alcotest.check Testutil.report_row "run_world's row"
        (Testutil.untimed expected) (Testutil.untimed row)

(* a faulting program is still a result: every image's cell and fault
   carries the simulator's message, and no output agrees *)
let test_stats_reports_faults () =
  let rows =
    List.filter
      (fun l ->
        not
          (String.starts_with ~prefix:"level " l
          || String.starts_with ~prefix:" " l))
      (stats_lines faulting_src)
  in
  Alcotest.(check int) "one line per image" (1 + List.length Om.all_levels)
    (List.length rows);
  List.iter
    (fun l ->
      Alcotest.(check bool) (l ^ " reads FAULT") true
        (Testutil.contains ~affix:" FAULT: simulation fault: " l))
    rows;
  let row = stats_row faulting_src in
  let is_sim_fault = function
    | Some m -> String.starts_with ~prefix:"simulation fault: " m
    | None -> false
  in
  List.iter
    (fun (run : Obs.Report.run) ->
      Alcotest.(check bool) (run.level ^ " fault") true (is_sim_fault run.fault))
    row.Obs.Report.runs;
  Alcotest.(check bool) "outputs do not agree" false row.Obs.Report.outputs_agree

(* om-full's statistics print as one block indented under its row *)
let test_stats_indents_full_statistics () =
  let lines = stats_lines stats_src in
  Alcotest.(check bool) "the relax line is indented" true
    (List.exists (String.starts_with ~prefix:"  relax: ") lines);
  Alcotest.(check (list string)) "no statistics line at column 0" []
    (List.filter
       (fun l ->
         String.starts_with ~prefix:"relax:" l
         || String.starts_with ~prefix:"gc:" l)
       lines)

(* --- the disassemblers are total ---

   A word that decodes to no instruction (0x10000000 is opcode 0x04)
   prints as [.word 0x10000000] in the image and the object printer
   alike, and `omlink dis` on an object carrying one exits 0. *)

let with_bad_word text ~at =
  let text = Bytes.copy text in
  Bytes.set_int32_le text (4 * at) 0x10000000l;
  text

let printed pp x = String.split_on_char '\n' (Format.asprintf "%a" pp x)

let test_printers_are_total () =
  let u = Testutil.compile ~name:"t.o" stats_src in
  let u =
    { u with Objfile.Cunit.text = with_bad_word u.Objfile.Cunit.text ~at:1 }
  in
  Alcotest.(check bool) "the object's bad word prints as .word" true
    (List.exists
       (String.starts_with ~prefix:"     4:  .word 0x10000000")
       (printed Objfile.Cunit.pp u));
  let image = Testutil.link_std [ Testutil.compile stats_src ] in
  let image =
    { image with
      Linker.Image.text = with_bad_word image.Linker.Image.text ~at:2 }
  in
  Alcotest.(check bool) "the image's bad word prints as .word" true
    (List.mem
       (Printf.sprintf "  %x:  .word 0x10000000"
          (image.Linker.Image.text_base + 8))
       (printed Linker.Image.pp_disassembly image));
  Alcotest.(check (result unit string)) "the image does not validate"
    (Error "undecodable text: unknown opcode 0x4")
    (Linker.Image.validate image);
  let dir = tmp_sources () in
  Fun.protect ~finally:(fun () -> try rm_rf dir with Sys_error _ -> ())
  @@ fun () ->
  Objfile.Obj_io.save (Filename.concat dir "t.o") u;
  let code, out, err = run_omlink ~dir [ "dis"; "t.o" ] in
  Alcotest.(check int) ("omlink dis exits 0: " ^ err) 0 code;
  Alcotest.(check bool) "omlink dis prints the bad word" true
    (Testutil.contains ~affix:".word 0x10000000" out)

let test_daemon_refuses_second_instance () =
  let dir = tmp_sources () in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
      Unix.rmdir dir)
  @@ fun () ->
  let socket = Filename.concat dir "d.sock" in
  let engine = Server.Engine.create ~store:(Store.in_memory ()) () in
  let server = Domain.spawn (fun () -> Server.Daemon.serve ~engine ~socket ()) in
  let rec wait_bound tries =
    if Sys.file_exists socket then ()
    else if tries = 0 then Alcotest.fail "daemon never bound"
    else begin
      Unix.sleepf 0.05;
      wait_bound (tries - 1)
    end
  in
  wait_bound 100;
  (match Server.Daemon.serve ~engine ~socket () with
  | Ok () -> Alcotest.fail "second daemon on the same socket succeeded"
  | Error m ->
      Alcotest.(check bool) "error names the socket" true
        (Testutil.contains ~affix:"listening" m));
  (match Server.Client.with_connection ~socket (fun fd -> Server.Client.shutdown fd) with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "shutdown connect failed: %s" m);
  match Domain.join server with
  | Ok () -> ()
  | Error m -> Alcotest.failf "daemon exited with: %s" m

(* --- the concurrent service under adversarial shapes --- *)

(* spawn a hermetic daemon with the given pool shape, hand the test its
   socket, and always reap it — even when the test body fails, and even
   when the test shut the daemon down itself *)
let with_test_daemon ?workers ?queue_limit
    ?(store = fun (_ : string) -> Store.in_memory ()) f =
  let dir = tmp_sources () in
  Fun.protect ~finally:(fun () -> try rm_rf dir with Sys_error _ -> ())
  @@ fun () ->
  let socket = Filename.concat dir "d.sock" in
  let engine =
    Server.Engine.create ~store:(store dir) ~metrics:(Obs.Metrics.create ()) ()
  in
  let server =
    Domain.spawn (fun () ->
        Server.Daemon.serve ~engine ~socket ?workers ?queue_limit ())
  in
  let rec connect tries =
    match Server.Client.connect ~socket () with
    | Ok fd -> fd
    | Error m ->
        if tries = 0 then Alcotest.failf "could not connect: %s" m
        else begin
          Unix.sleepf 0.05;
          connect (tries - 1)
        end
  in
  (* the daemon binds asynchronously: wait until it answers *)
  Server.Client.close (connect 100);
  Fun.protect
    ~finally:(fun () ->
      (* a test may have stopped the daemon itself: connecting can then
         fail or reset mid-roundtrip — either way, just reap the domain *)
      (try
         ignore
           (Server.Client.with_connection ~socket (fun fd ->
                Server.Client.shutdown fd))
       with Unix.Unix_error _ -> ());
      match Domain.join server with
      | Ok () -> ()
      | Error m -> Alcotest.failf "daemon exited with: %s" m)
  @@ fun () -> f ~socket ~connect:(fun () -> connect 3)

(* pipeline requests on one connection and collect one reply each, in
   order — the daemon promises in-order replies per connection *)
let pipeline_roundtrip fd reqs =
  List.iter (fun env -> P.send fd (P.request_to_json env)) reqs;
  List.map
    (fun _ ->
      match P.recv fd with
      | P.Frame j -> j
      | P.Eof -> Alcotest.fail "connection closed mid-pipeline"
      | P.Bad m -> Alcotest.failf "bad frame mid-pipeline: %s" m)
    reqs

let test_daemon_backpressure () =
  with_test_daemon ~workers:1 ~queue_limit:1 @@ fun ~socket:_ ~connect ->
  let fd = connect () in
  Fun.protect ~finally:(fun () -> Server.Client.close fd) @@ fun () ->
  (* one slow ping occupies the single worker, one fits the queue, and
     anything past that MUST be shed with a structured reply — the
     acceptance criterion is "overloaded, never a hang" *)
  let replies =
    pipeline_roundtrip fd
      (List.init 4 (fun _ -> P.request (P.Ping { delay_ms = 300 })))
  in
  let pongs = ref 0 and shed = ref 0 in
  List.iteri
    (fun i j ->
      match P.response_result j with
      | Ok _ -> incr pongs
      | Error e ->
          Alcotest.(check string)
            (Printf.sprintf "reply %d error code" i)
            "overloaded" e.P.code;
          (match e.P.retry_after_ms with
          | Some ms ->
              Alcotest.(check bool) "retry hint positive" true (ms > 0)
          | None -> Alcotest.fail "overloaded reply lost its retry hint");
          incr shed)
    replies;
  Alcotest.(check int) "every request answered" 4 (!pongs + !shed);
  Alcotest.(check bool) "accepted requests completed" true (!pongs >= 1);
  Alcotest.(check bool) "load beyond the queue was shed" true (!shed >= 1);
  match P.response_result (List.hd replies) with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "the first request must be accepted"

let test_daemon_drains_on_shutdown () =
  with_test_daemon ~workers:1 @@ fun ~socket:_ ~connect ->
  let fd = connect () in
  let replies =
    Fun.protect ~finally:(fun () -> Server.Client.close fd) @@ fun () ->
    (* shutdown arrives while the ping is still in flight: the daemon
       must finish the work, flush both replies in order, then stop *)
    pipeline_roundtrip fd
      [ P.request (P.Ping { delay_ms = 300 }); P.request P.Shutdown ]
  in
  match List.map P.response_result replies with
  | [ Ok ping_fields; Ok stop_fields ] ->
      Alcotest.(check bool) "in-flight ping finished before teardown" true
        (match Server.Client.field "pong" ping_fields with
        | Some (Json.Bool b) -> b
        | _ -> false);
      Alcotest.(check bool) "shutdown acknowledged" true
        (match Server.Client.field "stopping" stop_fields with
        | Some (Json.Bool b) -> b
        | _ -> false)
  | _ -> Alcotest.fail "expected two ok replies, in request order"

let test_daemon_warm_link_zero_disk_ops () =
  let sources =
    [ { P.src_name = "util.mc"; src_text = util_src };
      { P.src_name = "main.mc"; src_text = main_src } ]
  in
  (* the daemon-wide count, from the stats reply *)
  let disk_ops fd =
    match Server.Client.stats fd with
    | Error e -> Alcotest.failf "stats failed: %s" e.P.message
    | Ok fields -> (
        match Server.Client.field "store" fields with
        | Some (Json.Obj store) -> (
            match Server.Client.field "disk_ops" store with
            | Some (Json.Int n) -> n
            | _ -> Alcotest.fail "store stats lost disk_ops")
        | _ -> Alcotest.fail "stats reply lost its store counters")
  in
  with_test_daemon
    ~store:(fun dir ->
      Store.create ~dir:(Some (Filename.concat dir "store")) ())
  @@ fun ~socket:_ ~connect ->
  let fd = connect () in
  Fun.protect ~finally:(fun () -> Server.Client.close fd) @@ fun () ->
  let link () =
    match Server.Client.link fd ~sources ~level:"full" [] with
    | Ok r -> r
    | Error e -> Alcotest.failf "daemon link failed: %s" e.P.message
  in
  let cold_bytes, _ = link () in
  let ops0 = disk_ops fd in
  Alcotest.(check bool) "cold link wrote artifacts to disk" true (ops0 > 0);
  let warm_bytes, warm_fields = link () in
  let ops1 = disk_ops fd in
  Alcotest.(check string) "warm duplicate bit-identical" cold_bytes warm_bytes;
  Alcotest.(check bool) "warm duplicate is an image hit" true
    (match
       Option.bind (Server.Client.field "image_hit" warm_fields) Json.get_bool
     with
    | Some b -> b
    | None -> false);
  (* a warm request→image round trip is served entirely from memory:
     the daemon's disk-ops count does not move across the serial link *)
  Alcotest.(check int) "warm duplicate causes zero disk ops" 0 (ops1 - ops0)

(* Every store and scheduler series of the [metrics] reply reads its
   owner: after a cold and a warm link, each equals the [stats] reply's
   count, in the JSON snapshot and the Prometheus text alike, and each
   (name, labels) pair appears once. *)
let test_daemon_series_read_owners () =
  let sources =
    [ { P.src_name = "util.mc"; src_text = util_src };
      { P.src_name = "main.mc"; src_text = main_src } ]
  in
  with_test_daemon @@ fun ~socket:_ ~connect ->
  let fd = connect () in
  Fun.protect ~finally:(fun () -> Server.Client.close fd) @@ fun () ->
  let ok what = function
    | Ok fields -> fields
    | Error e -> Alcotest.failf "%s failed: %s" what e.P.message
  in
  ignore (ok "cold link" (Server.Client.link fd ~sources ~level:"full" []));
  ignore (ok "warm link" (Server.Client.link fd ~sources ~level:"full" []));
  let stats = Json.Obj (ok "stats" (Server.Client.stats fd)) in
  let reply = ok "metrics" (Server.Client.metrics fd) in
  let stat path =
    match
      Option.bind
        (List.fold_left
           (fun j k -> Option.bind j (Json.member k))
           (Some stats) path)
        Json.get_int
    with
    | Some n -> n
    | None -> Alcotest.failf "stats reply lacks %s" (String.concat "." path)
  in
  Alcotest.(check int) "two links were submitted" 2
    (stat [ "sched"; "submitted" ]);
  Alcotest.(check int) "the warm link hit the image cache" 1
    (stat [ "store"; "image"; "mem_hits" ]);
  (* (name, labels) -> the stats reply's count *)
  let expected =
    List.concat_map
      (fun kind ->
        let kind = Store.kind_name kind in
        match Option.bind (Json.member "store" stats) (Json.member kind) with
        | Some (Json.Obj fields) ->
            List.map
              (fun (field, _) ->
                ( ("omlt_store_" ^ field, [ ("kind", kind) ]),
                  [ "store"; kind; field ] ))
              fields
        | _ -> Alcotest.failf "stats reply lacks store.%s" kind)
      Store.all_kinds
    @ (("omlt_store_disk_ops_total", []), [ "store"; "disk_ops" ])
      :: List.map
           (fun (name, field) -> ((name, []), [ "sched"; field ]))
           [ ("omlt_srv_queue_depth", "queue_depth");
             ("omlt_srv_busy_workers", "busy");
             ("omlt_srv_submitted_total", "submitted");
             ("omlt_srv_completed_total", "completed");
             ("omlt_srv_coalesced_total", "coalesced");
             ("omlt_srv_shed_total", "shed");
             ("omlt_srv_abandoned_total", "abandoned") ]
    |> List.map (fun (key, path) -> (key, float_of_int (stat path)))
  in
  let owned (name, _) =
    String.starts_with ~prefix:"omlt_store_" name
    || String.starts_with ~prefix:"omlt_srv_" name
  in
  (* the JSON snapshot: every item once, the owned ones at their counts *)
  let series =
    match Server.Client.field "metrics" reply with
    | Some j -> Testutil.series j
    | None -> Alcotest.fail "metrics reply carries no snapshot"
  in
  let keys = List.map fst series in
  Alcotest.(check int) "each JSON series appears once" (List.length keys)
    (List.length (List.sort_uniq compare keys));
  let series_list =
    Alcotest.(list (pair (pair string (list (pair string string))) (float 0.)))
  in
  Alcotest.check series_list "JSON store and scheduler series = stats"
    (List.sort compare expected)
    (List.sort compare (List.filter (fun (k, _) -> owned k) series));
  (* the Prometheus text: every sample line once, the owned ones at
     their counts *)
  let text =
    match
      Option.bind (Server.Client.field "prometheus" reply) Json.get_string
    with
    | Some t -> t
    | None -> Alcotest.fail "metrics reply carries no prometheus text"
  in
  let samples =
    List.filter_map
      (fun line ->
        if line = "" || line.[0] = '#' then None
        else
          let i = String.rindex line ' ' in
          let value = String.sub line (i + 1) (String.length line - i - 1) in
          Some (String.sub line 0 i, float_of_string value))
      (String.split_on_char '\n' text)
  in
  Alcotest.(check int) "each Prometheus sample appears once"
    (List.length samples)
    (List.length (List.sort_uniq compare (List.map fst samples)));
  List.iter
    (fun ((name, labels), v) ->
      let sample =
        name
        ^
        match labels with
        | [] -> ""
        | l ->
            "{"
            ^ String.concat ","
                (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k v) l)
            ^ "}"
      in
      Alcotest.(check (option (float 0.))) (sample ^ " = stats") (Some v)
        (List.assoc_opt sample samples))
    expected

(* The daemon survives hostile bytes on its socket: a few hundred seeded
   bad inputs, each on a connection of its own that is then closed, and
   after each a ping on a fresh connection succeeds. Every declared
   length stays under 64 KB but one past [Protocol.max_frame], which the
   reader rejects before it allocates. *)
let test_daemon_survives_random_frames () =
  let rng = Fuzz.Rng.create 0xf4a3e in
  let bytes n = String.init n (fun _ -> Char.chr (Fuzz.Rng.int rng 256)) in
  let header n =
    String.init 4 (fun i -> Char.chr ((n lsr (8 * (3 - i))) land 0xff))
  in
  let frame payload = header (String.length payload) ^ payload in
  let wrong_shapes =
    [ Json.Null;
      Json.Int 7;
      Json.String "ping";
      Json.List [ Json.String "kind"; Json.String "ping" ];
      Json.Obj [];
      Json.Obj [ ("kind", Json.Int 3) ];
      Json.Obj [ ("kind", Json.String "compile") ];
      Json.Obj [ ("kind", Json.String "link") ];
      Json.Obj [ ("kind", Json.String "link"); ("files", Json.String "a.mc") ];
      Json.Obj
        [ ("kind", Json.String "link");
          ("sources", Json.List [ Json.Obj [ ("name", Json.Int 1) ] ]) ];
      Json.Obj [ ("kind", Json.String "ping"); ("delay_ms", Json.String "x") ];
      Json.Obj [ ("kind", Json.String "ping"); ("deadline_ms", Json.Bool true) ];
      Json.Obj [ ("kind", Json.String "stats"); ("trace", Json.Int 1) ] ]
  in
  (* (what, answered, input): an [answered] input reaches the daemon as
     one whole bad frame, which it refuses with a [protocol] error before
     it sees the connection close *)
  let cases =
    [| (* a whole header among the random bytes declares under 64 KB *)
       ( "random bytes",
         false,
         fun () ->
           let b = Bytes.of_string (bytes (1 + Fuzz.Rng.int rng 64)) in
           if Bytes.length b >= 4 then Bytes.fill b 0 2 '\000';
           Bytes.to_string b );
       ("truncated header", false, fun () -> bytes (1 + Fuzz.Rng.int rng 3));
       ( "short payload",
         false,
         fun () ->
           let n = 1 + Fuzz.Rng.int rng 4096 in
           header n ^ bytes (Fuzz.Rng.int rng n) );
       ( "length past max_frame",
         true,
         fun () ->
           header
             (P.max_frame + 1 + Fuzz.Rng.int rng (0xffff_ffff - P.max_frame)) );
       (* no JSON text starts with '}' *)
       ( "payload not JSON",
         true,
         fun () -> frame ("}" ^ bytes (Fuzz.Rng.int rng 64)) );
       ( "JSON of the wrong shape",
         true,
         fun () ->
           frame
             (Json.to_string ~minify:true (Fuzz.Rng.choose rng wrong_shapes)) )
    |]
  in
  with_test_daemon @@ fun ~socket ~connect ->
  for i = 0 to 299 do
    let what, answered, input = cases.(i mod Array.length cases) in
    let input = input () in
    let fd = connect () in
    (try
       let rec send off =
         if off < String.length input then
           send
             (off
             + Unix.write_substring fd input off (String.length input - off))
       in
       send 0;
       if answered then
         match P.recv fd with
         | P.Frame j ->
             Alcotest.(check (option string)) (what ^ ": protocol error")
               (Some "protocol")
               (Option.bind (Json.member "error" j) (fun e ->
                    Option.bind (Json.member "code" e) Json.get_string))
         | P.Eof | P.Bad _ -> Alcotest.failf "%s #%d: no reply" what i
     with Unix.Unix_error (e, _, _) ->
       if answered then
         Alcotest.failf "%s #%d: %s" what i (Unix.error_message e));
    Server.Client.close fd;
    match
      Server.Client.with_connection ~socket (fun fd -> Server.Client.ping fd ())
    with
    | Ok (Ok _) -> ()
    | Ok (Error e) -> Alcotest.failf "ping after %s #%d: %s" what i e.P.message
    | Error m -> Alcotest.failf "connect after %s #%d: %s" what i m
  done;
  match Server.Client.with_connection ~socket Server.Client.shutdown with
  | Ok (Ok _) -> ()
  | Ok (Error e) -> Alcotest.failf "shutdown failed: %s" e.P.message
  | Error m -> Alcotest.failf "shutdown connect failed: %s" m

(* Mutated frames through the decoders a reader and a client run: JSON,
   then the request or reply decoder, then the image's hex, then the
   image format. Each must answer [Ok] or [Error]; none may raise. *)
let test_decoders_total_under_mutation () =
  let sources =
    [ { P.src_name = "util.mc"; src_text = util_src };
      { P.src_name = "main.mc"; src_text = main_src } ]
  in
  let request =
    P.request_to_json
      (P.request (P.Link { files = []; sources; level = "full"; entry = None }))
  in
  let reply =
    with_test_daemon @@ fun ~socket:_ ~connect ->
    let fd = connect () in
    Fun.protect ~finally:(fun () -> Server.Client.close fd) @@ fun () ->
    P.send fd request;
    match P.recv fd with
    | P.Frame j -> j
    | _ -> Alcotest.fail "no link reply"
  in
  let rng = Fuzz.Rng.create 0x5eed in
  let mutate = Testutil.mutate rng in
  (* one decoder on one mutated input: it must return, not raise *)
  let total what input f =
    match f () with
    | r -> r
    | exception e ->
        Alcotest.failf "%s raised %s on %S" what (Printexc.to_string e) input
  in
  let reached = Hashtbl.create 8 in
  let reach stage r = Hashtbl.replace reached (stage, Result.is_ok r) () in
  let each base decode =
    let text = Json.to_string ~minify:true base in
    for _ = 1 to 2000 do
      let input = mutate text in
      match total "Json.parse" input (fun () -> Json.parse input) with
      | Error _ as r -> reach "json" r
      | Ok j as r ->
          reach "json" r;
          decode input j
    done
  in
  each request (fun input j ->
      reach "request"
        (total "request_of_json" input (fun () -> P.request_of_json j)));
  each reply (fun input j ->
      match total "response_result" input (fun () -> P.response_result j) with
      | Error _ as r -> reach "reply" r
      | Ok fields as r -> (
          reach "reply" r;
          match
            Option.bind (Server.Client.field "image" fields) Json.get_string
          with
          | None -> ()
          | Some hex -> (
              match total "hex_decode" input (fun () -> P.hex_decode hex) with
              | Error _ as r -> reach "hex" r
              | Ok bytes as r ->
                  reach "hex" r;
                  reach "image"
                    (total "image_of_string" input (fun () ->
                         Store.Codec.image_of_string bytes)))));
  (* the mutations reach every decoder, and the error path of each but
     [response_result], whose error needs the [ok] field itself hit *)
  List.iter
    (fun (stage, ok) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s saw %s" stage (if ok then "Ok" else "Error"))
        true (Hashtbl.mem reached (stage, ok)))
    [ ("json", true); ("json", false); ("request", true); ("request", false);
      ("reply", true); ("hex", true); ("hex", false); ("image", true);
      ("image", false) ]

let test_daemon_concurrent_clients () =
  with_test_daemon ~workers:2 @@ fun ~socket ~connect ->
  let run profile =
    let spec =
      { Load.default_spec with
        Load.profile;
        clients = 4;
        requests = 16;
        retries = 4 }
    in
    match Load.run_against ~socket spec with
    | Ok r -> r.Load.load
    | Error m -> Alcotest.failf "load run failed: %s" m
  in
  (* every concurrent reply is digest-checked against a serial
     in-process oracle by the harness itself *)
  let dup = run Load.Dup in
  Alcotest.(check int) "dup: every request succeeded" 16 dup.l_ok;
  Alcotest.(check int) "dup: bit-identical to in-process links" 0
    dup.l_mismatched;
  Alcotest.(check bool) "dup: concurrent duplicates coalesced" true
    (dup.l_coalesced > 0);
  let mixed = run Load.Mixed in
  Alcotest.(check int) "mixed: every request succeeded" 16 mixed.l_ok;
  Alcotest.(check int) "mixed: bit-identical to in-process links" 0
    mixed.l_mismatched;
  (* the daemon's own counters saw the coalescing *)
  let fd = connect () in
  Fun.protect ~finally:(fun () -> Server.Client.close fd) @@ fun () ->
  match Server.Client.stats fd with
  | Error e -> Alcotest.failf "stats failed: %s" e.P.message
  | Ok fields -> (
      match Server.Client.field "sched" fields with
      | Some (Json.Obj sched) ->
          (match Server.Client.field "coalesced" sched with
          | Some (Json.Int n) ->
              Alcotest.(check bool) "sched counted coalesces" true (n > 0)
          | _ -> Alcotest.fail "sched stats lost coalesced")
      | _ -> Alcotest.fail "stats reply lost sched")

let test_client_retries_ride_out_overload () =
  with_test_daemon ~workers:1 ~queue_limit:1 @@ fun ~socket ~connect ->
  let fd = connect () in
  Fun.protect ~finally:(fun () -> Server.Client.close fd) @@ fun () ->
  (* two slow pings saturate the pool: one running, one queued. They
     are sent in two steps — a back-to-back pair can race the worker's
     pickup of the first and get shed off the size-1 queue instead of
     occupying it. Stats answers inline, so polling it never competes
     for the queue. *)
  let sched_int name fields =
    match Server.Client.field "sched" fields with
    | Some (Json.Obj sched) -> (
        match Server.Client.field name sched with
        | Some (Json.Int n) -> n
        | _ -> Alcotest.failf "sched stats lost %s" name)
    | _ -> Alcotest.fail "stats reply lost sched"
  in
  let rec wait_for what pred tries =
    if tries = 0 then Alcotest.failf "pool never reached %s" what
    else
      let reached =
        match
          Server.Client.with_connection ~socket (fun fd2 ->
              Server.Client.stats fd2)
        with
        | Ok (Ok fields) -> pred fields
        | _ -> false
      in
      if not reached then begin
        Unix.sleepf 0.01;
        wait_for what pred (tries - 1)
      end
  in
  P.send fd (P.request_to_json (P.request (P.Ping { delay_ms = 1500 })));
  wait_for "a busy worker" (fun f -> sched_int "busy" f >= 1) 100;
  P.send fd (P.request_to_json (P.request (P.Ping { delay_ms = 1500 })));
  wait_for "a full queue" (fun f -> sched_int "queue_depth" f >= 1) 100;
  (* without retries the saturated daemon sheds immediately ... *)
  (match
     Server.Client.with_connection ~socket (fun fd2 ->
         Server.Client.ping fd2 ())
   with
  | Ok (Error e) ->
      Alcotest.(check string) "shed without retries" "overloaded" e.P.code
  | Ok (Ok _) -> Alcotest.fail "expected the saturated pool to shed"
  | Error m -> Alcotest.failf "probe connect failed: %s" m);
  (* ... and with retries the client rides the overload out *)
  (match
     Server.Client.with_retries ~retries:10 ~seed:7 ~socket
       (fun fd2 -> Server.Client.ping fd2 ())
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "retries exhausted: %s" e.P.message);
  (* drain the slow pings so the shutdown in the harness is clean *)
  List.iter
    (fun _ ->
      match P.recv fd with
      | P.Frame _ -> ()
      | P.Eof | P.Bad _ -> Alcotest.fail "slow ping reply lost")
    [ (); () ]

let suite =
  ( "server",
    [ Alcotest.test_case "requests round-trip the wire format" `Quick
        test_request_roundtrips;
      Alcotest.test_case "malformed requests rejected" `Quick
        test_request_rejects_garbage;
      Alcotest.test_case "hex codec round-trips" `Quick test_hex_roundtrip;
      Alcotest.test_case "framing over a socketpair" `Quick
        test_framing_over_socketpair;
      Alcotest.test_case "clean EOF at message boundary" `Quick
        test_eof_at_boundary;
      Alcotest.test_case "oversized frames rejected" `Quick
        test_oversized_frame_rejected;
      Alcotest.test_case "incremental relink recompiles the edit" `Quick
        test_engine_incremental_relink;
      Alcotest.test_case "engine images match direct links" `Quick
        test_engine_matches_direct_link;
      Alcotest.test_case "undecodable cache entries are recomputed" `Quick
        test_engine_recomputes_undecodable_entries;
      Alcotest.test_case "link info carries the stored image bytes" `Quick
        test_engine_image_bytes_stored_once;
      Alcotest.test_case "relink timings measurable" `Quick test_relink_timings;
      Alcotest.test_case "daemon end-to-end smoke" `Quick test_daemon_smoke;
      Alcotest.test_case "daemon metrics exact over the wire" `Quick
        test_daemon_metrics_exact;
      Alcotest.test_case "bench compare gates regressions" `Quick
        test_bench_compare_exit_codes;
      Alcotest.test_case "bench check-report gates attribution" `Quick
        test_bench_check_report_gates_attribution;
      Alcotest.test_case "bench load command line" `Quick
        test_bench_load_command_line;
      Alcotest.test_case "suite prints throughput" `Quick
        test_suite_prints_throughput;
      Alcotest.test_case "stats --json is run_world's row" `Quick
        test_stats_row_is_measures_row;
      Alcotest.test_case "stats reports faults per image" `Quick
        test_stats_reports_faults;
      Alcotest.test_case "stats indents om-full statistics" `Quick
        test_stats_indents_full_statistics;
      Alcotest.test_case "disassemblers print undecodable words" `Quick
        test_printers_are_total;
      Alcotest.test_case "daemon refuses a second instance" `Quick
        test_daemon_refuses_second_instance;
      Alcotest.test_case "bounded queue sheds with overloaded" `Quick
        test_daemon_backpressure;
      Alcotest.test_case "shutdown drains in-flight work" `Quick
        test_daemon_drains_on_shutdown;
      Alcotest.test_case "warm duplicate link causes zero disk ops" `Quick
        test_daemon_warm_link_zero_disk_ops;
      Alcotest.test_case "metrics series read their owners" `Quick
        test_daemon_series_read_owners;
      Alcotest.test_case "daemon survives random frames" `Quick
        test_daemon_survives_random_frames;
      Alcotest.test_case "decoders total under mutated frames" `Quick
        test_decoders_total_under_mutation;
      Alcotest.test_case "concurrent clients: bit-identical and coalesced"
        `Quick test_daemon_concurrent_clients;
      Alcotest.test_case "client retries ride out overload" `Quick
        test_client_retries_ride_out_overload ] )
