module S = Symbolic
module I = Isa.Insn
module R = Isa.Reg
module L = Linker.Layout

type options = { align_branch_targets : bool }

let default_options = { align_branch_targets = false }

exception Lower_error of string

let fail fmt = Format.kasprintf (fun m -> raise (Lower_error m)) fmt

(* A placement: every node gets an offset; padding no-ops are recorded
   separately as offsets where a nop must be emitted. *)
type placement = {
  node_off : int array;               (* nid -> text offset, or -1 *)
  proc_off : int array;               (* world proc -> text offset, or -1 *)
  proc_end : int array;
  pad_offsets : int list;
  text_size : int;
}

(* [aligned] is indexed by label: whether the label's node starts a
   quadword when [align] is set. *)
let assign_offsets (program : S.program) ~align ~(aligned : bool array) =
  let node_off = Array.make program.S.next_node (-1) in
  let nprocs = Array.length program.S.world.Linker.Resolve.procs in
  let proc_off = Array.make nprocs (-1) in
  let proc_end = Array.make nprocs (-1) in
  let pads = ref [] in
  let off = ref 0 in
  Array.iter
    (fun (proc : S.proc) ->
      let start = !off in
      Array.iter
        (fun (n : S.node) ->
          if
            align
            && List.exists (fun l -> aligned.(l)) n.S.labels
            && !off land 7 <> 0
          then begin
            pads := !off :: !pads;
            off := !off + 4
          end;
          node_off.(n.S.nid) <- !off;
          off := !off + (4 * S.insn_of_width n.S.insn))
        proc.S.body;
      (* a pad before the first instruction belongs to the gap before the
         procedure, not to the procedure *)
      let body = proc.S.body in
      proc_off.(proc.S.sp_index) <-
        (if Array.length body = 0 then start else node_off.(body.(0).S.nid));
      proc_end.(proc.S.sp_index) <- !off)
    program.S.procs;
  { node_off;
    proc_off;
    proc_end;
    pad_offsets = List.rev !pads;
    text_size = !off }

let rec set_offsets offs o = function
  | [] -> ()
  | l :: rest ->
      offs.(l) <- o;
      set_offsets offs o rest

let label_offsets (program : S.program) placement =
  let offs = Array.make program.S.next_label (-1) in
  S.iter_nodes program (fun _proc n ->
      set_offsets offs placement.node_off.(n.S.nid) n.S.labels);
  offs

(* Full placement, shared with {!Relax}: labels that are targets of
   backward branches (tentative placement without padding decides
   direction) get quadword-aligned when the options ask for it. *)
let place ?(options = default_options) (program : S.program) =
  if not options.align_branch_targets then
    assign_offsets program ~align:false ~aligned:[||]
  else begin
    let aligned = Array.make program.S.next_label false in
    let tentative = assign_offsets program ~align:false ~aligned in
    let t_labels = label_offsets program tentative in
    S.iter_nodes program (fun _proc n ->
        match n.S.insn with
        | S.Branch { target; _ } ->
            let to_ = t_labels.(target) in
            if to_ >= 0 && to_ <= tentative.node_off.(n.S.nid) then
              aligned.(target) <- true
        | _ -> ());
    (* never pad at a GPDISP anchor: the anchor must stay exactly at the
       call's return point *)
    S.iter_nodes program (fun _proc n ->
        match n.S.insn with
        | S.Gpsetup_hi { anchor = S.Alocal l; _ } -> aligned.(l) <- false
        | _ -> ());
    assign_offsets program ~align:true ~aligned
  end

(* GAT slot allocation: first-reference order over the whole program, per
   group. Deterministic, so {!Relax} can precompute the very addresses
   [run] will patch in. *)
type gat_alloc = {
  ga_tables : (S.pool_key, int) Hashtbl.t array;  (* per group: key -> slot *)
  ga_counts : int array;
}

let alloc_gat_exn (program : S.program) (plan : Datalayout.plan) =
  let tables =
    Array.init plan.Datalayout.ngroups (fun _ -> Hashtbl.create 32)
  in
  let counts = Array.make plan.Datalayout.ngroups 0 in
  Array.iter
    (fun (proc : S.proc) ->
      let group = plan.Datalayout.group_of_module.(proc.S.sp_module) in
      Array.iter
        (fun (n : S.node) ->
          match n.S.insn with
          | S.Gatload { key; _ } | S.Gatload_wide { key; _ } ->
              let tbl = tables.(group) in
              if not (Hashtbl.mem tbl key) then begin
                let s = counts.(group) in
                if (s + 1) * 8 > plan.Datalayout.group_gat_bytes.(group) then
                  fail "GAT group %d overflows its reservation (%d bytes)"
                    group
                    plan.Datalayout.group_gat_bytes.(group);
                counts.(group) <- s + 1;
                Hashtbl.replace tbl key s
              end
          | _ -> ())
        proc.S.body)
    program.S.procs;
  { ga_tables = tables; ga_counts = counts }

let alloc_gat program plan =
  match alloc_gat_exn program plan with
  | ga -> Ok ga
  | exception Lower_error m -> Error m

let gat_slot_addr (plan : Datalayout.plan) ga ~group key =
  match Hashtbl.find_opt ga.ga_tables.(group) key with
  | Some s -> L.data_base + plan.Datalayout.group_gat_off.(group) + (8 * s)
  | None -> fail "GAT key was never allocated a slot"

let invert_cond = function
  | I.Beq -> I.Bne | I.Bne -> I.Beq
  | I.Blt -> I.Bge | I.Bge -> I.Blt
  | I.Ble -> I.Bgt | I.Bgt -> I.Ble
  | I.Blbc -> I.Blbs | I.Blbs -> I.Blbc

let run ?(options = default_options) (program : S.program)
    (plan : Datalayout.plan) =
  try
    let world = program.S.world in
    let placement = place ~options program in
    let label_addr =
      let offs = label_offsets program placement in
      fun l ->
        if l < 0 || l >= Array.length offs || offs.(l) < 0 then
          fail "undefined label L%d" l
        else L.text_base + offs.(l)
    in
    let proc_addr p = L.text_base + placement.proc_off.(p) in
    let address_of_target = function
      | Linker.Resolve.Tproc p -> proc_addr p
      | Linker.Resolve.Tobj _ as t -> Datalayout.address_of world plan t
    in
    let ga = alloc_gat_exn program plan in
    let slot_addr ~group key = gat_slot_addr plan ga ~group key in
    let split32 what rel =
      match I.split32_opt rel with
      | Some pair -> pair
      | None -> fail "%s: displacement %d exceeds the 32-bit split" what rel
    in
    (* encode text *)
    let text = Bytes.make placement.text_size '\000' in
    let emit off insn =
      Bytes.set_int32_le text off (Int32.of_int (Isa.Encode.insn insn))
    in
    List.iter (fun off -> emit off I.nop) placement.pad_offsets;
    let lo_values : (int, int) Hashtbl.t = Hashtbl.create 64 in
    Array.iter
      (fun (proc : S.proc) ->
        let group = plan.Datalayout.group_of_module.(proc.S.sp_module) in
        let gp = plan.Datalayout.gp_of_group.(group) in
        Array.iter
          (fun (n : S.node) ->
            let off = placement.node_off.(n.S.nid) in
            let addr = L.text_base + off in
            match n.S.insn with
            | S.Raw i -> emit off i
            | S.Use { insn; _ } -> emit off insn
            | S.Gatload { ra; key } ->
                let sa = slot_addr ~group key in
                let disp = sa - gp in
                if not (I.fits_disp16 disp) then
                  fail "%s: GAT slot out of GP range (disp %d)" proc.S.sp_name
                    disp;
                emit off (I.Ldq { ra; rb = R.gp; disp })
            | S.Gatload_wide { ra; key } ->
                let sa = slot_addr ~group key in
                let hi, lo = split32 proc.S.sp_name (sa - gp) in
                emit off (I.Ldah { ra; rb = R.gp; disp = hi });
                emit (off + 4) (I.Ldq { ra; rb = ra; disp = lo })
            | S.Gpsetup_hi { base; anchor; lo_id } ->
                let anchor_addr =
                  match anchor with
                  | S.Aentry -> proc_addr proc.S.sp_index
                  | S.Alocal l -> label_addr l
                in
                let hi, lo = split32 proc.S.sp_name (gp - anchor_addr) in
                Hashtbl.replace lo_values lo_id lo;
                emit off (I.Ldah { ra = R.gp; rb = base; disp = hi })
            | S.Gpsetup_lo ->
                let lo =
                  match Hashtbl.find_opt lo_values n.S.nid with
                  | Some v -> v
                  | None ->
                      fail "%s: orphan GP-setup low half (n%d)" proc.S.sp_name
                        n.S.nid
                in
                emit off (I.Lda { ra = R.gp; rb = R.gp; disp = lo })
            | S.Branch { insn; target } ->
                let disp = (label_addr target - (addr + 4)) asr 2 in
                if not (I.fits_disp21 disp) then
                  fail "%s: branch displacement %d out of range" proc.S.sp_name
                    disp;
                emit off (I.with_branch_disp insn disp)
            | S.Gprel { insn; target; addend; part } -> (
                let rel = address_of_target target + addend - gp in
                let rebuild disp =
                  match insn with
                  | I.Ldq { ra; _ } -> I.Ldq { ra; rb = R.gp; disp }
                  | I.Stq { ra; _ } -> I.Stq { ra; rb = R.gp; disp }
                  | I.Lda { ra; _ } -> I.Lda { ra; rb = R.gp; disp }
                  | I.Ldah { ra; _ } -> I.Ldah { ra; rb = R.gp; disp }
                  | _ -> fail "%s: bad gp-relative template" proc.S.sp_name
                in
                let keep_base disp =
                  match insn with
                  | I.Ldq { ra; rb; _ } -> I.Ldq { ra; rb; disp }
                  | I.Stq { ra; rb; _ } -> I.Stq { ra; rb; disp }
                  | I.Lda { ra; rb; _ } -> I.Lda { ra; rb; disp }
                  | _ -> fail "%s: bad low-half template" proc.S.sp_name
                in
                match part with
                | S.Pfull ->
                    if not (I.fits_disp16 rel) then
                      fail "%s: gp-relative displacement %d does not fit"
                        proc.S.sp_name rel;
                    emit off (rebuild rel)
                | S.Phi ->
                    let hi, _ = split32 proc.S.sp_name rel in
                    emit off (rebuild hi)
                | S.Plo extra ->
                    let _, lo = split32 proc.S.sp_name rel in
                    if not (I.fits_disp16 (lo + extra)) then
                      fail "%s: low half %d does not fit" proc.S.sp_name
                        (lo + extra);
                    emit off (keep_base (lo + extra)))
            | S.Lea_wide { ra; target; addend } ->
                let rel = address_of_target target + addend - gp in
                let hi, lo = split32 proc.S.sp_name rel in
                emit off (I.Ldah { ra; rb = R.gp; disp = hi });
                emit (off + 4) (I.Lda { ra; rb = ra; disp = lo })
            (* far branch forms: the scratch register picks up its own
               address ([br scratch, 0] writes PC+4 and falls through),
               then an ldah/lda pair turns it into the absolute target —
               reaching anywhere within +-2GB of the site with no GP
               dependence. A call keeps the callee address in [pv], which
               is exactly what the callee's entry GP setup requires. *)
            | S.Bsr_far { ra; target } ->
                let anchor = addr + 4 in
                let hi, lo =
                  split32 proc.S.sp_name (label_addr target - anchor)
                in
                emit off (I.Br { ra = R.pv; disp = 0 });
                emit (off + 4) (I.Ldah { ra = R.pv; rb = R.pv; disp = hi });
                emit (off + 8) (I.Lda { ra = R.pv; rb = R.pv; disp = lo });
                emit (off + 12)
                  (I.Jump { kind = I.Jsr; ra; rb = R.pv; hint = 0 })
            | S.Br_far { ra; target } ->
                let anchor = addr + 4 in
                let hi, lo =
                  split32 proc.S.sp_name (label_addr target - anchor)
                in
                emit off (I.Br { ra = R.at; disp = 0 });
                emit (off + 4) (I.Ldah { ra = R.at; rb = R.at; disp = hi });
                emit (off + 8) (I.Lda { ra = R.at; rb = R.at; disp = lo });
                emit (off + 12)
                  (I.Jump { kind = I.Jmp; ra; rb = R.at; hint = 0 })
            | S.Bcond_far { cond; ra; target } ->
                let anchor = addr + 8 in
                let hi, lo =
                  split32 proc.S.sp_name (label_addr target - anchor)
                in
                emit off (I.Bcond { cond = invert_cond cond; ra; disp = 4 });
                emit (off + 4) (I.Br { ra = R.at; disp = 0 });
                emit (off + 8) (I.Ldah { ra = R.at; rb = R.at; disp = hi });
                emit (off + 12) (I.Lda { ra = R.at; rb = R.at; disp = lo });
                emit (off + 16)
                  (I.Jump { kind = I.Jmp; ra = R.zero; rb = R.at; hint = 0 })
            | S.Elided _ -> ())
          proc.S.body)
      program.S.procs;
    (* data region; sections om-gc found dead were given no space and
       must not be blitted over their live successors *)
    let live = plan.Datalayout.live in
    let data = Bytes.make plan.Datalayout.data_total '\000' in
    Array.iteri
      (fun m (u : Objfile.Cunit.t) ->
        if live.Datalayout.live_section m Objfile.Section.Data then
          Bytes.blit u.data 0 data plan.Datalayout.data_off.(m)
            (Bytes.length u.data);
        if live.Datalayout.live_section m Objfile.Section.Sdata then
          Bytes.blit u.sdata 0 data plan.Datalayout.sdata_off.(m)
            (Bytes.length u.sdata))
      world.Linker.Resolve.modules;
    (* pool contents *)
    Array.iteri
      (fun g tbl ->
        Hashtbl.iter
          (fun key slot ->
            let v =
              match key with
              | S.Paddr (t, a) -> Int64.of_int (address_of_target t + a)
              | S.Pconst c -> c
            in
            Bytes.set_int64_le data
              (plan.Datalayout.group_gat_off.(g) + (8 * slot))
              v)
          tbl)
      ga.ga_tables;
    (* refquads; ones homed in dead sections go with their section (their
       targets may be deleted procedures or dropped commons) *)
    Array.iteri
      (fun m (u : Objfile.Cunit.t) ->
        List.iter
          (fun (r : Objfile.Reloc.t) ->
            match r.kind with
            | Objfile.Reloc.Refquad { symbol; addend }
              when live.Datalayout.live_section m r.section ->
                let addr =
                  address_of_target (Linker.Resolve.resolve_exn world m symbol)
                  + addend
                in
                let sec_off =
                  match r.section with
                  | Objfile.Section.Data -> plan.Datalayout.data_off.(m)
                  | Objfile.Section.Sdata -> plan.Datalayout.sdata_off.(m)
                  | s ->
                      fail
                        "refquad for symbol %s (module %s, offset %d) in \
                         unsupported section %s"
                        symbol u.Objfile.Cunit.name r.offset
                        (Objfile.Section.name s)
                in
                Bytes.set_int64_le data (sec_off + r.offset) (Int64.of_int addr)
            | _ -> ())
          u.Objfile.Cunit.relocs)
      world.Linker.Resolve.modules;
    (* metadata *)
    let procs_meta =
      Array.map
        (fun (proc : S.proc) ->
          let p = proc.S.sp_index in
          let w = world.Linker.Resolve.procs.(p) in
          let group = plan.Datalayout.group_of_module.(proc.S.sp_module) in
          let uses_gp =
            Array.exists
              (fun (n : S.node) ->
                match n.S.insn with
                | S.Gatload _ | S.Gatload_wide _ | S.Gpsetup_hi _
                | S.Gpsetup_lo | S.Gprel _ | S.Lea_wide _ -> true
                | _ -> false)
              proc.S.body
          in
          { Linker.Image.name = proc.S.sp_name;
            entry = proc_addr p;
            size = placement.proc_end.(p) - placement.proc_off.(p);
            gp_value = plan.Datalayout.gp_of_group.(group);
            module_name =
              world.Linker.Resolve.modules.(proc.S.sp_module).Objfile.Cunit.name;
            exported = w.p_exported;
            uses_gp;
            gp_setup_at_entry =
              Option.is_some (Transform.setup_at_entry proc) })
        program.S.procs
    in
    (* GC'd targets get no symbol: a deleted procedure has no address and
       a dropped common no storage *)
    let symbols =
      Hashtbl.fold
        (fun name tgt acc ->
          if not (live.Datalayout.live_target tgt) then acc
          else
            match tgt with
            | Linker.Resolve.Tproc p -> (name, proc_addr p) :: acc
            | Linker.Resolve.Tobj _ as t -> (name, address_of_target t) :: acc)
        world.Linker.Resolve.globals []
      |> List.sort compare
    in
    let entry_idx = world.Linker.Resolve.entry_proc in
    let gat_used =
      Array.fold_left (fun acc n -> acc + (8 * n)) 0 ga.ga_counts
    in
    let image =
      { Linker.Image.text_base = L.text_base;
        text;
        data_base = L.data_base;
        data;
        entry = proc_addr entry_idx;
        procs = procs_meta;
        symbols;
        heap_base = L.align (L.data_base + plan.Datalayout.data_total) 4096;
        gat_base = L.data_base + plan.Datalayout.group_gat_off.(0);
        gat_bytes =
          (let last = plan.Datalayout.ngroups - 1 in
           plan.Datalayout.group_gat_off.(last)
           + plan.Datalayout.group_gat_bytes.(last)
           - plan.Datalayout.group_gat_off.(0));
        ngroups = plan.Datalayout.ngroups }
    in
    Ok (image, gat_used)
  with Lower_error m -> Error m
