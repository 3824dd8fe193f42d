(* One program through the toolchain's public entry points — compile,
   resolve, then a standard link or lift + optimize — with each call
   charged to its layer. Shared by paper-figures and link-matrix. *)

module H = Harness

type level = Std | Om of Om.level

let levels = Std :: List.map (fun l -> Om l) Om.all_levels

let level_name = function Std -> "std" | Om l -> Om.level_name l

(* Positions in [levels]: ops are laid out row-major, one per level. *)
let std_index = 0

let om_full_index =
  let rec find i = function
    | [] -> invalid_arg "om-full is not a level"
    | Om Om.Full :: _ -> i
    | _ :: rest -> find (i + 1) rest
  in
  find 0 levels

type row = {
  bench : Workloads.Programs.benchmark;
  build : Workloads.Suite.build;
}

let rows names =
  List.concat_map
    (fun name ->
      match Workloads.Programs.find name with
      | Some bench ->
          List.map (fun build -> { bench; build }) Workloads.Suite.all_builds
      | None -> invalid_arg ("unknown program " ^ name))
    names
  |> Array.of_list

let nlevels = List.length levels

(* Op [i] links row [i / nlevels] at level [i mod nlevels]. *)
let ops rows =
  Array.to_list rows
  |> List.concat_map (fun r -> List.map (fun lv -> (r, lv)) levels)
  |> Array.of_list

let row_name r =
  r.bench.Workloads.Programs.name ^ "/"
  ^ Workloads.Suite.build_name r.build

(* The work libstd's construction does: compile its minic members. The
   archive itself is built once per process by [Runtime.libstd]. *)
let compile_libstd () =
  List.iter
    (fun (name, src) ->
      ignore
        (Minic.Driver.compile_module ~opt:Minic.Driver.O2
           ~prelude:Runtime.prelude ~name src))
    Runtime.module_sources;
  Runtime.libstd ()

(* OM pass spans are named after the pass; both transform variants are
   one layer. *)
let pass_layer name =
  if String.starts_with ~prefix:"transform:" name then "om.transform"
  else "om." ^ name

let optimize (l : H.layers) level program =
  if not l.H.tracing then Om.optimize_program level program
  else begin
    let c, out =
      Obs.Trace.with_collector (fun () -> Om.optimize_program level program)
    in
    List.iter
      (fun (name, s) -> H.charge l.H.sub (pass_layer name) ~s ~mw:0.)
      (H.self_times (Obs.Trace.spans c));
    out
  end

let link (l : H.layers) ~libstd row level =
  let ( let* ) = Result.bind in
  let* units =
    try
      Ok (H.timed l "minic" (fun () -> Workloads.Suite.compile row.build row.bench))
    with Minic.Driver.Error m -> Error ("compile: " ^ m)
  in
  let* world =
    H.timed l "linker.resolve" (fun () ->
        Linker.Resolve.run units ~archives:[ libstd ])
  in
  match level with
  | Std ->
      let* image =
        H.timed l "linker.link" (fun () -> Linker.Link.link_resolved world)
      in
      Ok (image, None)
  | Om lv ->
      let* program = H.timed l "om.lift" (fun () -> Om.Lift.run world) in
      let* out = H.timed l "om.optimize" (fun () -> optimize l lv program) in
      Ok (out.Om.image, Some out.Om.stats)

let om_passes =
  [ "om.gc"; "om.gat-merge"; "om.datalayout"; "om.transform"; "om.sched";
    "om.relax"; "om.lower"; "om.verify" ]

(* Mean per op of each toolchain layer, OM pass self times included. *)
let layer_metrics (l : H.layers) ~ops =
  let per_op x = x /. float_of_int ops in
  let ms name = (name ^ ".ms", 1000. *. per_op (H.layer_s l name), "ms") in
  let mw name = (name ^ ".mw", per_op (H.layer_mw l name) /. 1e6, "Mwords") in
  [ ms "minic"; mw "minic"; ms "linker.resolve"; ms "linker.link"; ms "om.lift";
    ms "om.optimize"; mw "om.optimize" ]
  @ List.map
      (fun p -> (p ^ ".ms", 1000. *. per_op (H.sub_s l p), "ms"))
      om_passes

(* Exact OM counts: means over the OM-level links seen. *)
type om_counts = { mutable links : int; mutable insns : int; mutable iters : int }

let om_counts () = { links = 0; insns = 0; iters = 0 }

let note_stats c = function
  | None -> ()
  | Some (s : Om.Stats.t) ->
      c.links <- c.links + 1;
      c.insns <- c.insns + s.Om.Stats.insns_after;
      c.iters <- c.iters + s.Om.Stats.relax_iterations

let om_count_metrics c =
  let mean x = float_of_int x /. float_of_int (max 1 c.links) in
  [ ("om.insns_after", mean c.insns, "count");
    ("om.relax_iterations", mean c.iters, "count") ]
