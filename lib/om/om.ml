(* Re-exports: [om.ml] is the library's root module. *)
module Symbolic = Symbolic
module Lift = Lift
module Analysis = Analysis
module Datalayout = Datalayout
module Transform = Transform
module Gc = Gc
module Sched = Sched
module Relax = Relax
module Lower = Lower
module Stats = Stats
module Verify = Verify

module S = Symbolic

type level = No_opt | Simple | Full | Full_sched | Gc

let level_name = function
  | No_opt -> "om-noopt"
  | Simple -> "om-simple"
  | Full -> "om-full"
  | Full_sched -> "om-full+sched"
  | Gc -> "om-gc"

let all_levels = [ No_opt; Simple; Full; Full_sched; Gc ]

(* One parser for every CLI/daemon surface: short aliases and the full
   level_name forms both work, so plumbing can never drift per-frontend. *)
let level_of_string = function
  | "noopt" | "om-noopt" -> Some No_opt
  | "simple" | "om-simple" -> Some Simple
  | "full" | "om-full" -> Some Full
  | "sched" | "full+sched" | "om-full+sched" -> Some Full_sched
  | "gc" | "om-gc" -> Some Gc
  | _ -> None

type output = {
  image : Linker.Image.t;
  stats : Stats.t;
}

(* Reserved GAT for the Full levels: a superset of what can survive the
   transformations — literal constants and procedure-address entries. Data
   addresses never survive OM-full (each becomes GP-relative or an
   ldah/lda pair). *)
let planned_full_gat ~addr_opt (program : S.program) =
  let keys = Hashtbl.create 32 in
  S.iter_nodes program (fun _proc n ->
      match n.S.insn with
      | S.Gatload { key = S.Pconst _ as k; _ }
      | S.Gatload { key = S.Paddr (Linker.Resolve.Tproc _, _) as k; _ } ->
          Hashtbl.replace keys k ()
      | S.Gatload { key = k; _ } when not addr_opt ->
          (* address optimization ablated: data entries survive too *)
          Hashtbl.replace keys k ()
      | _ -> ());
  Hashtbl.length keys

(* Trace counters: the delta a pass left in [stats] since the last
   snapshot. Nonzero entries only — most passes touch a few fields. *)
let stats_delta stats snapshot () =
  let now = Stats.to_alist stats in
  let delta =
    List.map2 (fun (k, before) (_, after) -> (k, after - before)) !snapshot now
    |> List.filter (fun (_, d) -> d <> 0)
  in
  snapshot := now;
  delta

(* The level table: which passes a level runs. [optimize_program] reads
   nothing else of the level, so a new rung is one more row. Relaxation
   and the single-group GAT reservation come with [transform = Some Full]:
   the Full transform is the one that makes optimistic span choices and
   shrinks the GAT. *)
type passes = {
  gc : bool;                          (* om-gc's whole-program pruning *)
  transform : Transform.level option; (* [None]: translate and regenerate *)
  sched : bool;                       (* per-block rescheduling *)
  align : bool;                       (* quadword-align branch targets *)
}

let passes level =
  let none = { gc = false; transform = None; sched = false; align = false } in
  let full = { none with transform = Some Transform.Full } in
  match level with
  | No_opt -> none
  | Simple -> { none with transform = Some Transform.Simple }
  | Full -> full
  | Full_sched -> { full with sched = true; align = true }
  (* om-gc schedules but keeps branch-target alignment off: the pads
     would cost text bytes, and om-gc's contract is never to be larger
     than om-full on any axis. *)
  | Gc -> { full with gc = true; sched = true }

let ( let* ) = Result.bind

let prefix_error what r = Result.map_error (fun m -> "om: " ^ what ^ ": " ^ m) r

(* The back half of the pipeline: everything after lifting. Callers that
   already hold a lifted program enter here; note the transform mutates
   it, so a program instance is good for one optimization only. *)
let optimize_program ?transform_options level (program : S.program) =
  let world = program.S.world in
  let topts =
    Option.value transform_options ~default:Transform.default_options
  in
  let p = passes level in
  let full = p.transform = Some Transform.Full in
  let stats = Stats.create () in
  (* om-gc prunes the symbolic program before any layout decision is
     made: the shrunken GAT reservation and dead-section holes both
     depend on the post-GC program. *)
  let gc =
    if not p.gc then None
    else begin
      let gc = Obs.Trace.span "gc" (fun () -> Gc.run program) in
      stats.Stats.procs_deleted <- gc.Gc.procs_deleted;
      stats.Stats.gc_insns_deleted <- gc.Gc.insns_deleted;
      stats.Stats.data_bytes_deleted <- gc.Gc.data_bytes_deleted;
      Some gc
    end
  in
  let live =
    match gc with Some gc -> Gc.liveness gc | None -> Datalayout.all_live
  in
  let merged = Obs.Trace.span "gat-merge" (fun () -> Linker.Gat.merge world) in
  let plan =
    Obs.Trace.span "datalayout" @@ fun () ->
    (* the Full levels reserve one GAT group sized by what can survive;
       the count runs over the (possibly GC-pruned) program, so freed PV
       and constant slots shrink the reservation *)
    let planned =
      if full then
        Some (planned_full_gat ~addr_opt:topts.Transform.opt_addr program)
      else None
    in
    match planned with
    | Some planned when planned <= Linker.Layout.gat_group_capacity ->
        Datalayout.plan ~live world
          ~group_of_module:
            (Array.map (fun _ -> 0) merged.Linker.Gat.group_of_module)
          ~ngroups:1
          ~group_gat_bytes:[| max 16 (8 * planned) |]
    | _ ->
        (* the merged per-module grouping: the conservative levels, and a
           degenerate huge program at the Full levels *)
        let base g =
          if g < merged.Linker.Gat.ngroups then
            Linker.Gat.group_base_offset merged g
          else Linker.Gat.size_bytes merged
        in
        Datalayout.plan ~live world
          ~group_of_module:merged.Linker.Gat.group_of_module
          ~ngroups:merged.Linker.Gat.ngroups
          ~group_gat_bytes:
            (Array.init merged.Linker.Gat.ngroups (fun g ->
                 base (g + 1) - base g))
  in
  stats.Stats.gat_bytes_before <- Linker.Gat.size_bytes merged;
  let snapshot = ref (Stats.to_alist stats) in
  let counters = stats_delta stats snapshot in
  (match p.transform with
  | None -> stats.Stats.insns_before <- S.static_insn_count program
  | Some tl ->
      let name =
        match tl with Transform.Simple -> "simple" | Transform.Full -> "full"
      in
      let section_live = Option.map Gc.section_live gc in
      Obs.Trace.span ~counters ("transform:" ^ name) (fun () ->
          ignore
            (Transform.run ~options:topts ?section_live tl program plan
               stats)));
  if p.sched then Obs.Trace.span "sched" (fun () -> Sched.run program);
  let options = { Lower.align_branch_targets = p.align } in
  (* the Full levels made optimistic span choices; the relaxation
     fixed point grows only what provably doesn't fit (and elides
     branches to the next instruction, re-plans the data region
     around the exact surviving GAT). The conservative levels keep
     the one-shot emission and double as relaxation's oracle. *)
  let* plan =
    if not full then Ok plan
    else
      prefix_error "relax"
        (Obs.Trace.span ~counters "relax" (fun () ->
             Relax.run ~options program plan stats))
  in
  stats.Stats.insns_after <- S.static_insn_count program;
  let* image, gat_used =
    prefix_error "lower"
      (Obs.Trace.span "lower" (fun () -> Lower.run ~options program plan))
  in
  stats.Stats.gat_bytes_after <- gat_used;
  (* a second pair of eyes over the rewritten bytes *)
  let* () =
    prefix_error "verify"
      (Obs.Trace.span "verify" (fun () -> Verify.check image))
  in
  Ok { image; stats }

let optimize_resolved ?transform_options ?lift level world =
  Obs.Trace.span ("om:" ^ level_name level) @@ fun () ->
  let* program =
    prefix_error "lift" (Obs.Trace.span "lift" (fun () -> Lift.run ?lift world))
  in
  optimize_program ?transform_options level program

let link ?(level = Full) ?entry units ~archives =
  let* world =
    Obs.Trace.span "resolve" (fun () ->
        Linker.Resolve.run ?entry units ~archives)
  in
  optimize_resolved level world
