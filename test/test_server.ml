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
      P.request (P.Compile { files = [ "a.mc"; "b.o" ]; sources = [] });
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
      P.request (P.Suite { bench = Some "li"; jobs = Some 2 });
      P.request (P.Suite { bench = None; jobs = None });
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
       [ ("kind", Json.String "link"); ("files", Json.String "not-a-list") ])

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
          (Astring.String.is_infix ~affix m)
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
  let engine = Server.Engine.create ~store:(Store.in_memory ()) () in
  (* cold link: everything misses, everything is lifted *)
  let _, _, cold = link_ok engine (engine_inputs ()) in
  Alcotest.(check bool) "cold link is not an image hit" false
    cold.Server.Engine.li_image_hit;
  let cold_lifts = cold.Server.Engine.li_lifted.Store.disk_misses in
  Alcotest.(check bool) "cold link lifts user modules and libstd" true
    (cold_lifts > 2);
  (* identical relink: served whole from the image cache, no lifting *)
  let image1, _, warm = link_ok engine (engine_inputs ()) in
  Alcotest.(check bool) "unchanged relink is an image hit" true
    warm.Server.Engine.li_image_hit;
  Alcotest.(check int) "unchanged relink lifts nothing" 0
    (warm.Server.Engine.li_lifted.Store.disk_misses
    + warm.Server.Engine.li_lifted.Store.mem_hits);
  (* one-module edit: exactly one new lift, every other module (incl.
     every libstd member) is served from the store — the acceptance
     criterion of the incremental path *)
  let edited =
    [ Server.Engine.Source
        { name = "util.mc"; text = "func helper(x) { return x * 5 + 1; }\n" };
      Server.Engine.Source { name = "main.mc"; text = main_src } ]
  in
  let image2, _, inc = link_ok engine edited in
  Alcotest.(check bool) "edited relink is not an image hit" false
    inc.Server.Engine.li_image_hit;
  Alcotest.(check int) "exactly one module re-lifted" 1
    inc.Server.Engine.li_lifted.Store.disk_misses;
  Alcotest.(check int) "every unchanged lift is a cache hit" (cold_lifts - 1)
    inc.Server.Engine.li_lifted.Store.mem_hits;
  Alcotest.(check int) "exactly one module re-compiled" 1
    inc.Server.Engine.li_cunit.Store.disk_misses;
  (* the edit must actually change behaviour *)
  let out image =
    (Testutil.run_image image).Machine.Cpu.output
  in
  Alcotest.(check string) "original program output" "40\n" (out image1);
  Alcotest.(check string) "edited program output" "66\n" (out image2)

let test_engine_matches_direct_link () =
  (* the engine's cached pipeline must produce bit-identical images to
     the one-shot [Om.link] path, at every level *)
  let units =
    [ Testutil.compile ~name:"util.mc" util_src;
      Testutil.compile ~name:"main.mc" main_src ]
  in
  List.iter
    (fun (level_name, om_level) ->
      let engine = Server.Engine.create ~store:(Store.in_memory ()) () in
      let image, _, _ = link_ok engine ~level:level_name (engine_inputs ()) in
      let direct =
        match Om.link ~level:om_level units ~archives:[ Runtime.libstd () ] with
        | Ok { Om.image; _ } -> image
        | Error m -> Alcotest.failf "direct link failed: %s" m
      in
      Alcotest.(check string)
        (Printf.sprintf "engine image = direct image at %s" level_name)
        (Store.Codec.image_to_string direct)
        (Store.Codec.image_to_string image))
    (* derived from all_levels so a new level is covered automatically *)
    (List.map (fun l -> (Om.level_name l, l)) Om.all_levels)

let test_engine_recomputes_undecodable_entries () =
  (* a cache entry that does not decode is a miss: the engine compiles or
     lifts afresh instead of failing the link, and writes the good
     artifact back *)
  let store = Store.in_memory () in
  let engine =
    Server.Engine.create ~store ~metrics:(Obs.Metrics.create ()) ()
  in
  let _, _, cold = link_ok engine (engine_inputs ()) in
  let util = List.hd (engine_inputs ()) in
  let u =
    match Server.Engine.compile_unit engine util with
    | Ok (u, true) -> u
    | Ok (_, false) -> Alcotest.fail "warm compile missed the cache"
    | Error m -> Alcotest.failf "compile failed: %s" m
  in
  Store.put store Store.Lifted ~key:(Store.Codec.cunit_digest u) "not a lift";
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
  (* another level misses the image cache, so every lift is fetched *)
  let image, _, info = link_ok engine ~level:"sched" (engine_inputs ()) in
  let lifted = info.Server.Engine.li_lifted in
  Alcotest.(check int) "every module found a lift entry"
    cold.Server.Engine.li_lifted.Store.disk_misses lifted.Store.mem_hits;
  Alcotest.(check int) "the undecodable lift is the one re-lift" 1
    lifted.Store.puts;
  let clean =
    Server.Engine.create ~store:(Store.in_memory ())
      ~metrics:(Obs.Metrics.create ()) ()
  in
  let expected, _, _ = link_ok clean ~level:"sched" (engine_inputs ()) in
  Alcotest.(check string) "image equals a clean engine's"
    (Store.Codec.image_to_string expected) (Store.Codec.image_to_string image);
  (* the re-lift was written back: the next link decodes every entry *)
  let _, _, next = link_ok engine ~level:"simple" (engine_inputs ()) in
  Alcotest.(check int) "nothing left to re-lift" 0
    next.Server.Engine.li_lifted.Store.puts

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
      let disk = check "disk hit" ~hit:true second level in
      Alcotest.(check int) "served from disk" 1
        disk.Server.Engine.li_image.Store.disk_hits;
      Alcotest.(check string) "disk hit sends the cold link's bytes"
        c.Server.Engine.li_image_bytes disk.Server.Engine.li_image_bytes)
    levels cold

let test_relink_timings () =
  let b =
    match Workloads.Programs.find "li" with
    | Some b -> b
    | None -> Alcotest.fail "li benchmark missing"
  in
  match Server.Engine.relink_timings b with
  | Error m -> Alcotest.failf "relink timing failed: %s" m
  | Ok r ->
      Alcotest.(check bool) "cold time positive" true (r.Obs.Report.cold_s > 0.);
      Alcotest.(check bool) "warm time positive" true (r.Obs.Report.warm_s > 0.)

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
  Alcotest.(check bool) "reply carries store counters" true
    (Server.Client.field "store" fields <> None);
  (* a slow ping against a short deadline: structured timeout, and the
     connection keeps working afterwards *)
  (match Server.Client.ping fd ~deadline_ms:50 ~delay_ms:2000 () with
  | Ok _ -> Alcotest.fail "deadline did not fire"
  | Error e -> Alcotest.(check string) "timeout error code" "timeout" e.P.code);
  (match Server.Client.ping fd () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "ping after timeout failed: %s" e.P.message);
  (* warm relink through the daemon: image hit, zero lifts *)
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
        (Astring.String.is_infix ~affix:"omlinkd_request_us" text));
  (match Server.Client.shutdown fd with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "shutdown failed: %s" e.P.message);
  match Domain.join server with
  | Ok () -> ()
  | Error m -> Alcotest.failf "daemon exited with: %s" m

(* `bench compare` must exit non-zero when fed a synthetically
   regressed report, and zero on an identical pair. *)
let test_bench_compare_exit_codes () =
  (* resolved relative to the test binary, so the test works from any
     cwd (dune runtest uses _build/default/test, dune exec does not) *)
  let bench_exe =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      (Filename.concat ".." (Filename.concat "bench" "main.exe"))
  in
  if not (Sys.file_exists bench_exe) then
    Alcotest.fail "bench/main.exe not built alongside the tests";
  let dir = tmp_sources () in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
      Unix.rmdir dir)
  @@ fun () ->
  let report ?(text_bytes = 3600) ~cycles ~pct () =
    let run =
      { Obs.Report.level = "om-full";
        cycles;
        insns = 900;
        improvement_pct = pct;
        counters = [];
        attribution = None;
        fault = None;
        host = None;
        size =
          Some { Obs.Report.text_bytes; data_bytes = 512; gat_bytes = 64 } }
    in
    Obs.Report.make
      [ { Obs.Report.bench = "b";
          build = "compile-each";
          std_cycles = 1200;
          std_insns = 1000;
          std_attribution = None;
          std_fault = None;
          outputs_agree = true;
          runs = [ run ];
          std_host = None;
          relink = None;
          std_size = None } ]
  in
  let write name r =
    let path = Filename.concat dir name in
    Obs.Report.write path r;
    path
  in
  let old_p = write "old.json" (report ~cycles:1000 ~pct:20.0 ()) in
  let same_p = write "same.json" (report ~cycles:1000 ~pct:20.0 ()) in
  let bad_p = write "bad.json" (report ~cycles:1100 ~pct:12.0 ()) in
  let fat_p =
    (* cycles untouched, text 2.8% bigger: only the size gate can fire *)
    write "fat.json" (report ~text_bytes:3700 ~cycles:1000 ~pct:20.0 ())
  in
  let run args =
    Sys.command
      (Filename.quote_command bench_exe ~stdout:Filename.null
         ("compare" :: args))
  in
  Alcotest.(check int) "identical reports pass" 0 (run [ old_p; same_p ]);
  Alcotest.(check bool) "regressed report fails" true
    (run [ old_p; bad_p ] <> 0);
  Alcotest.(check bool) "size-regressed report fails" true
    (run [ old_p; fat_p ] <> 0);
  Alcotest.(check int) "unreadable report is a usage error" 2
    (run [ old_p; Filename.concat dir "nope.json" ])

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
        (Astring.String.is_infix ~affix:"listening" m));
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
  let disk_ops fields =
    match Server.Client.field "store" fields with
    | Some (Json.Obj store) -> (
        match Server.Client.field "disk_ops" store with
        | Some (Json.Int n) -> n
        | _ -> Alcotest.fail "store counters lost disk_ops")
    | _ -> Alcotest.fail "reply lost its store counters"
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
  let cold_bytes, cold_fields = link () in
  Alcotest.(check bool) "cold link writes artifacts to disk" true
    (disk_ops cold_fields > 0);
  let warm_bytes, warm_fields = link () in
  Alcotest.(check string) "warm duplicate bit-identical" cold_bytes warm_bytes;
  Alcotest.(check bool) "warm duplicate is an image hit" true
    (match
       Option.bind (Server.Client.field "image_hit" warm_fields) Json.get_bool
     with
    | Some b -> b
    | None -> false);
  (* the satellite criterion: a warm request→image round trip is served
     entirely from memory, proven by the per-request disk-ops delta *)
  Alcotest.(check int) "warm duplicate causes zero disk ops" 0
    (disk_ops warm_fields)

(* Mutated frames through the decoders a reader and a client run: JSON,
   then the request or reply decoder, then the image's hex. Each must
   answer [Ok] or [Error]; none may raise. *)
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
  let mutate s =
    let n = String.length s in
    let at = Fuzz.Rng.int rng (n + 1) in
    match Fuzz.Rng.int rng 3 with
    | 0 when at < n ->
        let b = Bytes.of_string s in
        Bytes.set b at
          (Char.chr (Char.code s.[at] lxor (1 lsl Fuzz.Rng.int rng 8)));
        Bytes.to_string b
    | 1 -> String.sub s 0 at
    | _ ->
        let c =
          Fuzz.Rng.choose rng [ "\""; "\\"; "["; "g"; "Z"; "\xff"; " " ]
        in
        String.sub s 0 at ^ c ^ String.sub s at (n - at)
  in
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
          | Some hex ->
              reach "hex" (total "hex_decode" input (fun () -> P.hex_decode hex))));
  (* the mutations reach every decoder, and the error path of each but
     [response_result], whose error needs the [ok] field itself hit *)
  List.iter
    (fun (stage, ok) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s saw %s" stage (if ok then "Ok" else "Error"))
        true (Hashtbl.mem reached (stage, ok)))
    [ ("json", true); ("json", false); ("request", true); ("request", false);
      ("reply", true); ("hex", true); ("hex", false) ]

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
    | Ok r -> r
    | Error m -> Alcotest.failf "load run failed: %s" m
  in
  (* every concurrent reply is digest-checked against a serial
     in-process oracle by the harness itself *)
  let dup = run Load.Dup in
  Alcotest.(check int) "dup: every request succeeded" 16 dup.Load.r_ok;
  Alcotest.(check int) "dup: bit-identical to in-process links" 0
    dup.Load.r_mismatched;
  Alcotest.(check bool) "dup: concurrent duplicates coalesced" true
    (dup.Load.r_coalesced > 0);
  let mixed = run Load.Mixed in
  Alcotest.(check int) "mixed: every request succeeded" 16 mixed.Load.r_ok;
  Alcotest.(check int) "mixed: bit-identical to in-process links" 0
    mixed.Load.r_mismatched;
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
     Server.Client.with_retries ~retries:10 ~base_ms:50 ~seed:7 ~socket
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
      Alcotest.test_case "incremental relink lifts only the edit" `Quick
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
      Alcotest.test_case "daemon refuses a second instance" `Quick
        test_daemon_refuses_second_instance;
      Alcotest.test_case "bounded queue sheds with overloaded" `Quick
        test_daemon_backpressure;
      Alcotest.test_case "shutdown drains in-flight work" `Quick
        test_daemon_drains_on_shutdown;
      Alcotest.test_case "warm duplicate link causes zero disk ops" `Quick
        test_daemon_warm_link_zero_disk_ops;
      Alcotest.test_case "decoders total under mutated frames" `Quick
        test_decoders_total_under_mutation;
      Alcotest.test_case "concurrent clients: bit-identical and coalesced"
        `Quick test_daemon_concurrent_clients;
      Alcotest.test_case "client retries ride out overload" `Quick
        test_client_retries_ride_out_overload ] )
