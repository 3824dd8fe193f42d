(* link-matrix: the toolchain with no simulation. All 19 programs x both
   builds x the six link levels, 228 ops per pass; one op compiles,
   resolves and links. Every image must pass [Om.Verify.check] and match
   the digest the set-up's warm-up pass produced. *)

module H = Harness
module T = Toolchain

let rows = T.rows Workloads.Programs.names
let ops = T.ops rows

type reference = { digest : string; text_bytes : int }

(* Set-up: build libstd's members, then link every op once untimed; the
   images' digests are what later passes must reproduce. *)
let setup () =
  let libstd = T.compile_libstd () in
  let reference =
    Array.map
      (fun (row, lv) ->
        match T.link (H.layers false) ~libstd row lv with
        | Ok (image, _) ->
            (match Om.Verify.check image with
            | Ok () -> ()
            | Error m -> failwith (T.row_name row ^ ": verify: " ^ m));
            { digest = Store.Codec.image_digest image;
              text_bytes = Bytes.length image.Linker.Image.text }
        | Error m ->
            failwith
              (Printf.sprintf "%s %s: %s" (T.row_name row) (T.level_name lv) m))
      ops
  in
  (libstd, reference)

(* Geomean over the (program, build) pairs of om-full text bytes over std
   text bytes. *)
let text_ratio reference =
  H.geomean
    (List.init (Array.length rows) (fun r ->
         float_of_int reference.((r * T.nlevels) + T.om_full_index).text_bytes
         /. float_of_int reference.((r * T.nlevels) + T.std_index).text_bytes))

let run ~seed ~seconds ~trace =
  let (libstd, reference), setup_s = H.setup setup in
  let rng = Random.State.make [| 0x11a7; seed |] in
  let phase l ~seconds ~min_ops counts =
    H.run_passes ~rng ~n:(Array.length ops) ~seconds ~min_ops
      ~op:(fun i ->
        let row, lv = ops.(i) in
        T.link l ~libstd row lv)
      ~check:(fun i r ->
        let row, lv = ops.(i) in
        let fail m =
          Printf.eprintf "link-matrix: %s %s: %s\n%!" (T.row_name row)
            (T.level_name lv) m;
          false
        in
        match r with
        | Error m -> fail m
        | Ok (image, stats) -> (
            T.note_stats counts stats;
            match Om.Verify.check image with
            | Error m -> fail ("verify: " ^ m)
            | Ok () ->
                Store.Codec.image_digest image = reference.(i).digest
                || fail "image differs from the warm-up pass"))
  in
  if not trace then begin
    (* at least three passes: each op's best is the best of three or more *)
    let ph =
      phase (H.layers false) ~seconds ~min_ops:(3 * Array.length ops)
        (T.om_counts ())
    in
    { H.attempted = ph.H.ops;
      failed = ph.H.failed;
      metrics = H.end_to_end ~setup_s (H.best_of_passes ph) }
  end
  else begin
    let plain =
      phase (H.layers false) ~seconds:(seconds /. 2.) ~min_ops:1000
        (T.om_counts ())
    in
    let l = H.layers true and counts = T.om_counts () in
    let traced = phase l ~seconds:(seconds /. 2.) ~min_ops:1 counts in
    let layer_ms = 1000. *. H.total_layer_s l /. float_of_int traced.H.ops in
    { H.attempted = plain.H.ops + traced.H.ops;
      failed = plain.H.failed + traced.H.failed;
      metrics =
        H.accounting ~plain ~traced ~layer_ms
        @ (H.gc_ms plain :: T.layer_metrics l ~ops:traced.H.ops)
        @ T.om_count_metrics counts
        @ [ ("om_text_ratio", text_ratio reference, "ratio") ] }
  end
