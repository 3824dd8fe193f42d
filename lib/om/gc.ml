(* Link-time garbage collection (the om-gc level).

   Working over the lifted symbolic program — before layout, so every
   freed GAT slot and data section shrinks the final table — this pass
   computes a whole-program liveness fixpoint over three domains:

   - procedures (world indices), reached through the call graph: direct
     branches/bsrs, GAT-mediated jsr sites, and procedure addresses
     loaded from the pool or referenced from live data;
   - named data objects, reached through pool keys, GP-relative operands
     and relocations in live data;
   - per-module data sections, at section granularity: a section is live
     as soon as one object homed in it is (code may address a neighbour
     through a symbol plus addend, so individual objects are never carved
     out of a surviving section).

   The root is the entry procedure. Unreached procedures are deleted from
   the program outright; dead sections and commons are reported to
   {!Datalayout} (which assigns them no space, renumbering the survivors)
   and to {!Lower} (which skips their bytes, relocations and symbols).
   The world itself is never mutated — it is shared across levels. *)

module S = Symbolic

type t = {
  live_proc : bool array;
  live_obj : bool array;
  live_sec : bool array array;
  procs_deleted : int;
  insns_deleted : int;
  data_bytes_deleted : int;
}

(* data sections only; text and the GAT are managed elsewhere *)
let sec_id = function
  | Objfile.Section.Data -> Some 0
  | Objfile.Section.Sdata -> Some 1
  | Objfile.Section.Sbss -> Some 2
  | Objfile.Section.Bss -> Some 3
  | Objfile.Section.Text | Objfile.Section.Gat -> None

let section_live t m s =
  match sec_id s with Some i -> t.live_sec.(m).(i) | None -> true

let liveness t =
  { Datalayout.live_section = section_live t;
    live_target =
      (function
      | Linker.Resolve.Tproc p -> t.live_proc.(p)
      | Linker.Resolve.Tobj o -> t.live_obj.(o)) }

let run (program : S.program) =
  let world = program.S.world in
  let live_proc = Array.make (Array.length world.Linker.Resolve.procs) false in
  let live_obj = Array.make (Array.length world.Linker.Resolve.objs) false in
  let live_sec =
    Array.make_matrix (Array.length world.Linker.Resolve.modules) 4 false
  in
  let ix = S.index program in
  let work = Queue.create () in
  let mark_target = function
    | Linker.Resolve.Tproc p ->
        if not live_proc.(p) then begin
          live_proc.(p) <- true;
          Queue.add (`Proc p) work
        end
    | Linker.Resolve.Tobj o ->
        if not live_obj.(o) then begin
          live_obj.(o) <- true;
          Queue.add (`Obj o) work
        end
  in
  let mark_sec m s =
    match sec_id s with
    | Some i ->
        if not live_sec.(m).(i) then begin
          live_sec.(m).(i) <- true;
          Queue.add (`Sec (m, s)) work
        end
    | None -> ()
  in
  mark_target (Linker.Resolve.Tproc world.Linker.Resolve.entry_proc);
  while not (Queue.is_empty work) do
    match Queue.pop work with
    | `Proc p ->
        let pi = ix.S.sym_proc.(p) in
        (* an unlifted procedure has nothing to scan *)
        if pi >= 0 then
          Array.iter
            (fun (n : S.node) ->
              match n.S.insn with
              | S.Gatload { key = S.Paddr (t, _); _ } -> mark_target t
              | S.Gprel { target; _ } | S.Lea_wide { target; _ } ->
                  mark_target target
              | S.Branch { target; _ } ->
                  (* a branch target identifies its home procedure *)
                  let h = S.label_home ix target in
                  if h >= 0 then
                    let q = ix.S.procs.(h).S.sp_index in
                    if q <> p then mark_target (Linker.Resolve.Tproc q)
              | _ -> ())
            ix.S.procs.(pi).S.body
    | `Obj o -> (
        match world.Linker.Resolve.objs.(o).Linker.Resolve.o_placement with
        | Linker.Resolve.In_section { s_module; section; _ } ->
            mark_sec s_module section
        | Linker.Resolve.Common -> ())
    | `Sec (m, s) ->
        (* data in a live section may hold addresses of anything *)
        List.iter
          (fun (r : Objfile.Reloc.t) ->
            if Objfile.Section.equal r.Objfile.Reloc.section s then
              match r.Objfile.Reloc.kind with
              | Objfile.Reloc.Refquad { symbol; _ }
              | Objfile.Reloc.Gprel16 { symbol; _ } ->
                  mark_target (Linker.Resolve.resolve_exn world m symbol)
              | _ -> ())
          world.Linker.Resolve.modules.(m).Objfile.Cunit.relocs
  done;
  (* prune dead procedures from the program *)
  let before = program.S.procs and insns = S.static_insn_count program in
  program.S.procs <-
    Array.of_seq
      (Seq.filter
         (fun (proc : S.proc) -> live_proc.(proc.S.sp_index))
         (Array.to_seq before));
  (* tally the data the layout will not place *)
  let data_bytes_deleted = ref 0 in
  Array.iteri
    (fun m (u : Objfile.Cunit.t) ->
      let dead i size = if not live_sec.(m).(i) then
          data_bytes_deleted := !data_bytes_deleted + size
      in
      dead 0 (Bytes.length u.Objfile.Cunit.data);
      dead 1 (Bytes.length u.Objfile.Cunit.sdata);
      dead 2 u.Objfile.Cunit.sbss_size;
      dead 3 u.Objfile.Cunit.bss_size)
    world.Linker.Resolve.modules;
  Array.iteri
    (fun i (o : Linker.Resolve.obj_rec) ->
      match o.Linker.Resolve.o_placement with
      | Linker.Resolve.Common when not live_obj.(i) ->
          data_bytes_deleted := !data_bytes_deleted + o.Linker.Resolve.o_size
      | _ -> ())
    world.Linker.Resolve.objs;
  { live_proc;
    live_obj;
    live_sec;
    procs_deleted = Array.length before - Array.length program.S.procs;
    insns_deleted = insns - S.static_insn_count program;
    data_bytes_deleted = !data_bytes_deleted }
