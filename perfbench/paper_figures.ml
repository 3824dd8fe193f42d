(* paper-figures: the paper's section 5 matrix on the quick subset, 60 ops
   per pass. One op compiles, resolves, links at its level, decodes,
   simulates on the fused path with a fresh [Machine.Blocks.t] and
   attributes the image with [Obs.Attr.run_decoded]. Each op's output must
   equal its row's standard-link output, and the attributed cycle total
   the fused run's. *)

module H = Harness
module T = Toolchain

let programs = [ "alvinn"; "compress"; "li"; "tomcatv"; "spice" ]
let rows = T.rows programs
let ops = T.ops rows

type sim = {
  output : string;
  cycles : int;
  insns : int;
  sim_s : float;
  built : int;
  attr_cycles : int;
  attr_output : string;
}

let fault e = Format.asprintf "simulation fault: %a" Machine.Cpu.pp_error e

(* Simulation time is always taken (it is the base of [sim_mips]); the
   executor count only when tracing. *)
let simulate (l : H.layers) image =
  let ( let* ) = Result.bind in
  let* decoded =
    Result.map_error fault
      (H.timed l "machine.decode" (fun () -> Machine.Cpu.decode image))
  in
  let built0 = if l.H.tracing then (Machine.Blocks.counters ()).built else 0 in
  let t0 = H.now () in
  let run =
    Machine.Cpu.run_decoded ~blocks:(Machine.Blocks.create decoded) decoded
  in
  let sim_s = H.now () -. t0 in
  let built =
    if l.H.tracing then begin
      H.charge l.H.top "machine.sim" ~s:sim_s ~mw:0.;
      (Machine.Blocks.counters ()).built - built0
    end
    else 0
  in
  let* o = Result.map_error fault run in
  let* attr =
    Result.map_error fault
      (H.timed l "obs.attr" (fun () -> Obs.Attr.run_decoded decoded))
  in
  Ok
    { output = o.Machine.Cpu.output;
      cycles = o.Machine.Cpu.stats.Machine.Cpu.cycles;
      insns = o.Machine.Cpu.stats.Machine.Cpu.insns;
      sim_s;
      built;
      attr_cycles = attr.Obs.Attr.totals.Obs.Attr.p_cycles;
      attr_output = attr.Obs.Attr.output }

let op l ~libstd (row, lv) =
  Result.bind (T.link l ~libstd row lv) (fun (image, stats) ->
      Result.map (fun sim -> (sim, stats)) (simulate l image))

(* Set-up: build libstd's members; the oracle is each row's standard
   link run on the fused path (no attribution); the warm-up runs every
   level of the first row in full. *)
let setup () =
  let libstd = T.compile_libstd () in
  let std_output =
    Array.map
      (fun row ->
        match T.link (H.layers false) ~libstd row T.Std with
        | Error m -> failwith (T.row_name row ^ ": " ^ m)
        | Ok (image, _) -> (
            match Machine.Cpu.run image with
            | Ok o -> o.Machine.Cpu.output
            | Error e -> failwith (T.row_name row ^ ": " ^ fault e)))
      rows
  in
  for i = 0 to T.nlevels - 1 do
    match op (H.layers false) ~libstd ops.(i) with
    | Ok _ -> ()
    | Error m -> failwith ("warm-up: " ^ m)
  done;
  (libstd, std_output)

(* What a phase saw besides latencies: simulated work, and each op's
   cycle count (which must repeat exactly in every pass). *)
type tally = {
  mutable insns : int;
  mutable sim_s : float;
  mutable built : int;
  counts : T.om_counts;
}

let run ~seed ~seconds ~trace =
  let (libstd, std_output), setup_s = H.setup setup in
  let rng = Random.State.make [| 0xf16; seed |] in
  let cycles = Array.make (Array.length ops) (-1) in
  let phase l ~seconds ~min_ops =
    let t = { insns = 0; sim_s = 0.; built = 0; counts = T.om_counts () } in
    let ph =
      H.run_passes ~rng ~n:(Array.length ops) ~seconds ~min_ops
        ~op:(fun i -> op l ~libstd ops.(i))
        ~check:(fun i r ->
          let row, lv = ops.(i) in
          let fail m =
            Printf.eprintf "paper-figures: %s %s: %s\n%!" (T.row_name row)
              (T.level_name lv) m;
            false
          in
          match r with
          | Error m -> fail m
          | Ok (s, stats) ->
              T.note_stats t.counts stats;
              t.insns <- t.insns + s.insns;
              t.sim_s <- t.sim_s +. s.sim_s;
              t.built <- t.built + s.built;
              if cycles.(i) < 0 then cycles.(i) <- s.cycles;
              if s.output <> std_output.(i / T.nlevels) then
                fail "output differs from the standard link"
              else if s.attr_cycles <> s.cycles || s.attr_output <> s.output
              then fail "attribution disagrees with the fused run"
              else if s.cycles <> cycles.(i) then
                fail "cycle count differs from an earlier pass"
              else true)
    in
    (ph, t)
  in
  if not trace then begin
    (* at least three passes: each op's best is the best of three or more *)
    let ph, _ = phase (H.layers false) ~seconds ~min_ops:(3 * Array.length ops) in
    { H.attempted = ph.H.ops;
      failed = ph.H.failed;
      metrics = H.end_to_end ~setup_s (H.best_of_passes ph) }
  end
  else begin
    let plain, pt = phase (H.layers false) ~seconds:(seconds /. 2.) ~min_ops:1 in
    let l = H.layers true in
    let traced, tt = phase l ~seconds:(seconds /. 2.) ~min_ops:1 in
    let n = float_of_int traced.H.ops in
    let layer_ms = 1000. *. H.total_layer_s l /. n in
    let cycle_ratio =
      H.geomean
        (List.init (Array.length rows) (fun r ->
             float_of_int cycles.((r * T.nlevels) + T.om_full_index)
             /. float_of_int cycles.((r * T.nlevels) + T.std_index)))
    in
    { H.attempted = plain.H.ops + traced.H.ops;
      failed = plain.H.failed + traced.H.failed;
      metrics =
        H.accounting ~plain ~traced ~layer_ms
        @ (H.gc_ms plain :: T.layer_metrics l ~ops:traced.H.ops)
        @ T.om_count_metrics tt.counts
        @ [ ("machine.decode.ms", 1000. *. H.layer_s l "machine.decode" /. n, "ms");
            ("machine.sim.ms", 1000. *. H.layer_s l "machine.sim" /. n, "ms");
            ("machine.sim.minsns", float_of_int tt.insns /. n /. 1e6, "Minsns");
            ("machine.blocks.built", float_of_int tt.built /. n, "count");
            ("obs.attr.ms", 1000. *. H.layer_s l "obs.attr" /. n, "ms");
            ("obs.attr.mw", H.layer_mw l "obs.attr" /. n /. 1e6, "Mwords");
            ("sim_mips", float_of_int pt.insns /. pt.sim_s /. 1e6, "Minsns/s");
            ("om_cycle_ratio", cycle_ratio, "ratio") ] }
  end
