(* The content-addressed artifact store: put/get across both layers,
   LRU eviction, on-disk atomicity and corruption recovery, codecs. *)

let with_tmpdir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "omlt_store_%d_%d" (Unix.getpid ()) (Random.int 1_000_000))
  in
  Unix.mkdir dir 0o755;
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> try rm dir with Sys_error _ -> ()) @@ fun () ->
  f dir

(* --- memory layer --- *)

let test_put_get_memory () =
  let s = Store.in_memory () in
  let key = Store.digest_string "payload" in
  Alcotest.(check (option string)) "miss before put" None
    (Store.get s Store.Cunit ~key);
  Store.put s Store.Cunit ~key "payload";
  Alcotest.(check (option string)) "hit after put" (Some "payload")
    (Store.get s Store.Cunit ~key);
  let c = Store.counters s Store.Cunit in
  Alcotest.(check int) "one mem hit" 1 c.Store.mem_hits;
  Alcotest.(check int) "one full miss" 1 c.Store.disk_misses;
  Alcotest.(check int) "one put" 1 c.Store.puts

let test_kinds_are_separate_namespaces () =
  let s = Store.in_memory () in
  let key = Store.digest_string "k" in
  Store.put s Store.Cunit ~key "a";
  Store.put s Store.Image ~key "b";
  Alcotest.(check (option string)) "cunit value" (Some "a")
    (Store.get s Store.Cunit ~key);
  Alcotest.(check (option string)) "image value" (Some "b")
    (Store.get s Store.Image ~key)

let test_lru_eviction () =
  (* capacity for two 8-byte payloads; inserting a third evicts the
     least recently used *)
  let s = Store.create ~dir:None ~mem_capacity:16 () in
  let k i = Store.digest_string (string_of_int i) in
  Store.put s Store.Cunit ~key:(k 1) "11111111";
  Store.put s Store.Cunit ~key:(k 2) "22222222";
  (* touch 1 so 2 becomes the LRU victim *)
  ignore (Store.get s Store.Cunit ~key:(k 1));
  Store.put s Store.Cunit ~key:(k 3) "33333333";
  Alcotest.(check (option string)) "recently used survives" (Some "11111111")
    (Store.get s Store.Cunit ~key:(k 1));
  Alcotest.(check (option string)) "LRU victim evicted" None
    (Store.get s Store.Cunit ~key:(k 2));
  Alcotest.(check (option string)) "new entry present" (Some "33333333")
    (Store.get s Store.Cunit ~key:(k 3));
  let c = Store.counters s Store.Cunit in
  Alcotest.(check bool) "eviction counted" true (c.Store.evictions >= 1);
  Alcotest.(check bool) "memory stays within capacity" true
    (Store.mem_bytes s <= 16)

(* --- disk layer --- *)

let test_disk_persistence () =
  with_tmpdir @@ fun dir ->
  let key = Store.digest_string "persisted" in
  let s1 = Store.create ~dir:(Some dir) () in
  Store.put s1 Store.Cunit ~key "persisted";
  (* a fresh store over the same directory: memory is cold, disk hits *)
  let s2 = Store.create ~dir:(Some dir) () in
  Alcotest.(check (option string)) "disk hit in a fresh store"
    (Some "persisted")
    (Store.get s2 Store.Cunit ~key);
  let c = Store.counters s2 Store.Cunit in
  Alcotest.(check int) "counted as disk hit" 1 c.Store.disk_hits;
  (* the disk hit was promoted: the next get is a memory hit *)
  ignore (Store.get s2 Store.Cunit ~key);
  let c = Store.counters s2 Store.Cunit in
  Alcotest.(check int) "promoted to memory" 1 c.Store.mem_hits

let find_disk_file dir =
  let rec walk path =
    if Sys.is_directory path then
      Array.fold_left
        (fun acc e -> match acc with
          | Some _ -> acc
          | None -> walk (Filename.concat path e))
        None (Sys.readdir path)
    else Some path
  in
  match walk dir with
  | Some f -> f
  | None -> Alcotest.fail "no file written to the store directory"

let test_corruption_recovery () =
  with_tmpdir @@ fun dir ->
  let key = Store.digest_string "fragile" in
  let s1 = Store.create ~dir:(Some dir) () in
  Store.put s1 Store.Image ~key "fragile";
  (* flip bytes in the stored payload behind the store's back *)
  let file = find_disk_file dir in
  let oc = open_out_gen [ Open_wronly; Open_binary ] 0o644 file in
  seek_out oc (out_channel_length oc - 3);
  output_string oc "XXX";
  close_out oc;
  let s2 = Store.create ~dir:(Some dir) () in
  Alcotest.(check (option string)) "corrupted entry degrades to a miss" None
    (Store.get s2 Store.Image ~key);
  let c = Store.counters s2 Store.Image in
  Alcotest.(check int) "corruption counted" 1 c.Store.corruptions;
  Alcotest.(check bool) "corrupt file evicted from disk" false
    (Sys.file_exists file);
  (* recompute-and-put heals it *)
  Store.put s2 Store.Image ~key "fragile";
  let s3 = Store.create ~dir:(Some dir) () in
  Alcotest.(check (option string)) "healed" (Some "fragile")
    (Store.get s3 Store.Image ~key)

(* well-formed entries that another build of the toolchain wrote — in
   the layout without a build segment, and under another build's
   segment — are never read; this build's own entries still are *)
let test_other_builds_miss () =
  with_tmpdir @@ fun dir ->
  let plant segments payload =
    let key = Store.digest_string payload in
    let path =
      List.fold_left Filename.concat dir
        (segments @ [ "cunit"; String.sub key 0 2; key ])
    in
    let rec mkdir_p d =
      if not (Sys.file_exists d) then begin
        mkdir_p (Filename.dirname d);
        Unix.mkdir d 0o755
      end
    in
    mkdir_p (Filename.dirname path);
    Out_channel.with_open_bin path (fun oc ->
        output_string oc (Store.digest_string payload ^ "\n" ^ payload));
    key
  in
  let unsalted = plant [ "v1" ] "unsalted"
  and foreign = plant [ "v1"; Store.digest_string "another build" ] "foreign" in
  let s1 = Store.create ~dir:(Some dir) () in
  Alcotest.(check (option string)) "unsalted entry misses" None
    (Store.get s1 Store.Cunit ~key:unsalted);
  Alcotest.(check (option string)) "another build's entry misses" None
    (Store.get s1 Store.Cunit ~key:foreign);
  let key = Store.digest_string "ours" in
  Store.put s1 Store.Cunit ~key "ours";
  let s2 = Store.create ~dir:(Some dir) () in
  Alcotest.(check (option string)) "this build's entry hits" (Some "ours")
    (Store.get s2 Store.Cunit ~key);
  Alcotest.(check int) "from disk" 1
    (Store.counters s2 Store.Cunit).Store.disk_hits

let test_counters_diff () =
  let a =
    { Store.mem_hits = 5; mem_misses = 4; disk_hits = 3; disk_misses = 2;
      evictions = 1; corruptions = 1; puts = 7 }
  in
  let b =
    { Store.mem_hits = 2; mem_misses = 1; disk_hits = 1; disk_misses = 1;
      evictions = 0; corruptions = 0; puts = 3 }
  in
  let d = Store.counters_diff a b in
  Alcotest.(check int) "mem_hits delta" 3 d.Store.mem_hits;
  Alcotest.(check int) "puts delta" 4 d.Store.puts;
  let sum = Store.counters_add d b in
  Alcotest.(check bool) "diff then add round-trips" true (sum = a)

(* --- codecs --- *)

let test_cunit_codec_roundtrip () =
  let u = Testutil.compile "func main() { io_putint_nl(7); return 0; }" in
  let bytes = Store.Codec.cunit_to_string u in
  match Store.Codec.cunit_of_string bytes with
  | Error m -> Alcotest.failf "decode failed: %s" m
  | Ok u' ->
      Alcotest.(check string) "codec round-trips the serialized form"
        (Store.Codec.cunit_to_string u')
        bytes;
      Alcotest.(check string) "digest is stable" (Store.Codec.cunit_digest u)
        (Store.Codec.cunit_digest u')

let test_cunit_digest_tracks_content () =
  let u1 = Testutil.compile "func main() { return 1; }" in
  let u2 = Testutil.compile "func main() { return 2; }" in
  Alcotest.(check bool) "different programs, different digests" false
    (String.equal (Store.Codec.cunit_digest u1) (Store.Codec.cunit_digest u2))

(* An image decodes to an equal record and still runs; so does every
   image of the suite's link matrix — 19 programs, both builds, the
   standard link and each OM level. *)
let test_image_codec_roundtrip () =
  let image =
    Testutil.link_std [ Testutil.compile "func main() { return 0; }" ]
  in
  let bytes = Store.Codec.image_to_string image in
  Alcotest.(check string) "begins with the magic" "WIM1" (String.sub bytes 0 4);
  (match Store.Codec.image_of_string bytes with
  | Error m -> Alcotest.failf "decode failed: %s" m
  | Ok image' ->
      Alcotest.(check string) "image bytes round-trip"
        (Store.Codec.image_to_string image')
        bytes;
      let out = (Testutil.run_image image').Machine.Cpu.output in
      Alcotest.(check string) "decoded image still runs"
        (Testutil.run_image image).Machine.Cpu.output out);
  let n = ref 0 in
  List.iter
    (fun bench ->
      List.iter
        (fun build ->
          let world =
            match Workloads.Suite.compile_cached build bench with
            | Ok w -> w
            | Error m -> Alcotest.failf "resolve failed: %s" m
          in
          List.iter
            (fun (level, { Linker.Image.image; _ }) ->
              let what =
                Printf.sprintf "%s %s %s" bench.Workloads.Programs.name
                  (Workloads.Suite.build_name build)
                  level
              in
              incr n;
              match
                Store.Codec.image_of_string (Store.Codec.image_to_string image)
              with
              | Error m -> Alcotest.failf "%s: decode failed: %s" what m
              | Ok image' ->
                  if image' <> image then
                    Alcotest.failf "%s: image differs after a round trip" what)
            (Testutil.target_images world))
        Workloads.Suite.all_builds)
    Workloads.Programs.all;
  Alcotest.(check int) "every link of the matrix" 228 !n

(* The decoder is total: garbage, a foreign magic, and every proper
   prefix and one-byte extension of a real image are [Error]. *)
let test_image_codec_rejects_garbage () =
  let rejects what s =
    match Store.Codec.image_of_string s with
    | Ok _ -> Alcotest.failf "%s decoded as an image" what
    | Error _ -> ()
  in
  rejects "the empty string" "";
  rejects "garbage" "not an image";
  rejects "an object file"
    (Store.Codec.cunit_to_string
       (Testutil.compile "func main() { return 0; }"));
  let bytes =
    Store.Codec.image_to_string
      (Testutil.link_std [ Testutil.compile "func main() { return 0; }" ])
  in
  for len = 0 to String.length bytes - 1 do
    rejects (Printf.sprintf "a %d-byte prefix" len) (String.sub bytes 0 len)
  done;
  rejects "an image with a trailing byte" (bytes ^ "\000");
  let flag = Bytes.of_string bytes in
  (* the last procedure's gp_setup_at_entry byte sits before the symbol
     count, which follows every procedure *)
  let image = Result.get_ok (Store.Codec.image_of_string bytes) in
  let symbols_len =
    List.fold_left
      (fun acc (name, _) -> acc + 4 + String.length name + 8)
      4 image.Linker.Image.symbols
  in
  let at = String.length bytes - 24 - symbols_len - 1 in
  Bytes.set flag at '\002';
  rejects "a flag byte of 2" (Bytes.to_string flag)

let suite =
  ( "store",
    [ Alcotest.test_case "put/get in memory" `Quick test_put_get_memory;
      Alcotest.test_case "kinds are separate namespaces" `Quick
        test_kinds_are_separate_namespaces;
      Alcotest.test_case "LRU eviction" `Quick test_lru_eviction;
      Alcotest.test_case "disk persistence across stores" `Quick
        test_disk_persistence;
      Alcotest.test_case "corruption degrades to a miss" `Quick
        test_corruption_recovery;
      Alcotest.test_case "entries of other builds miss" `Quick
        test_other_builds_miss;
      Alcotest.test_case "counters diff/add" `Quick test_counters_diff;
      Alcotest.test_case "cunit codec round-trip" `Quick
        test_cunit_codec_roundtrip;
      Alcotest.test_case "cunit digest tracks content" `Quick
        test_cunit_digest_tracks_content;
      Alcotest.test_case "image codec round-trip" `Quick
        test_image_codec_roundtrip;
      Alcotest.test_case "image codec rejects garbage" `Quick
        test_image_codec_rejects_garbage ] )
