module S = Symbolic
module I = Isa.Insn
module R = Isa.Reg

type level = Simple | Full

type options = {
  opt_calls : bool;
  opt_addr : bool;
  opt_setup_motion : bool;
  opt_setup_deletion : bool;
}

let default_options =
  { opt_calls = true;
    opt_addr = true;
    opt_setup_motion = true;
    opt_setup_deletion = true }

type deletions = { index : S.index; dead : Bytes.t (* by node id *) }

let deletions ix =
  { index = ix; dead = Bytes.make (Array.length ix.S.home) '\000' }

let nop = S.Raw I.nop

let is_dead d (n : S.node) = Bytes.get d.dead n.S.nid <> '\000'

let delete_node d (n : S.node) =
  let ix = d.index in
  let body = ix.S.procs.(ix.S.home.(n.S.nid)).S.body in
  if ix.S.pos.(n.S.nid) = Array.length body - 1 then
    n.S.insn <- nop (* the final node stays to carry its labels *)
  else Bytes.set d.dead n.S.nid '\001'

let compact d =
  let dead = is_dead d in
  Array.iter
    (fun (proc : S.proc) ->
      let body = proc.S.body in
      let live =
        Array.fold_left (fun c n -> if dead n then c else c + 1) 0 body
      in
      if live < Array.length body then begin
        let out = Array.make live body.(0) and k = ref 0 and pending = ref [] in
        Array.iter
          (fun (n : S.node) ->
            if dead n then pending := !pending @ n.S.labels
            else begin
              n.S.labels <- !pending @ n.S.labels;
              pending := [];
              out.(!k) <- n;
              incr k
            end)
          body;
        proc.S.body <- out
      end)
    d.index.S.procs

(* The first position at or after [i] whose node is not [dead]. *)
let rec next_live ~dead (body : S.node array) i =
  if i < Array.length body && dead body.(i) then next_live ~dead body (i + 1)
  else i

(* The position of the entry GP setup's low half when the setup's halves
   are the first two nodes of [body] that are not [dead], else -1. *)
let entry_setup_lo ~dead (body : S.node array) =
  let i = next_live ~dead body 0 in
  let j = next_live ~dead body (i + 1) in
  if j >= Array.length body then -1
  else
    match (body.(i).S.insn, body.(j).S.insn) with
    | S.Gpsetup_hi { anchor = S.Aentry; lo_id; _ }, S.Gpsetup_lo
      when body.(j).S.nid = lo_id -> j
    | _ -> -1

let setup_at_entry (proc : S.proc) =
  let body = proc.S.body in
  if entry_setup_lo ~dead:(fun _ -> false) body < 0 then None
  else Some (body.(0), body.(1))

let move_setups_to_entry (program : S.program) =
  let ix = S.index program in
  Array.iteri
    (fun pi (proc : S.proc) ->
      let body = proc.S.body in
      if Option.is_none (setup_at_entry proc) then
        let hi_lo =
          Array.find_map
            (fun (n : S.node) ->
              match n.S.insn with
              | S.Gpsetup_hi { anchor = S.Aentry; lo_id; _ } ->
                  Option.map (fun lo -> (n, lo)) (S.node_in ix pi lo_id)
              | _ -> None)
            body
        in
        match hi_lo with
        | Some (hi, lo)
          when lo.S.labels = [] && (hi.S.labels = [] || body.(0) == hi) ->
            let moved = Array.make (Array.length body) hi and k = ref 2 in
            moved.(1) <- lo;
            Array.iter
              (fun n -> if n != hi && n != lo then (moved.(!k) <- n; incr k))
              body;
            (* the entry label must stay at offset 0 *)
            let f = body.(0) and entry = proc.S.entry_label in
            if f != hi && List.mem entry f.S.labels then begin
              f.S.labels <- List.filter (fun l -> l <> entry) f.S.labels;
              hi.S.labels <- entry :: hi.S.labels
            end;
            proc.S.body <- moved
        | _ -> ())
    program.S.procs

let run ?(options = default_options) level (program : S.program)
    (plan : Datalayout.plan) (stats : Stats.t) =
  if level = Full && options.opt_setup_motion then move_setups_to_entry program;
  let ix = S.index program in
  let als =
    Analysis.run ~local_only:(level = Simple)
      ~section_live:plan.Datalayout.live.Datalayout.live_section program ix
  in
  Stats.measure_before program als stats;
  let world = program.S.world in
  let d = deletions ix in
  let dead = is_dead d in
  let group_of (proc : S.proc) = plan.Datalayout.group_of_module.(proc.S.sp_module) in
  let nullify (n : S.node) =
    match level with
    | Simple ->
        n.S.insn <- nop;
        stats.Stats.nops_added <- stats.Stats.nops_added + 1
    | Full ->
        delete_node d n;
        stats.Stats.insns_deleted <- stats.Stats.insns_deleted + 1
  in
  (* skip labels: branch target just past a callee's entry GP setup. The
     node there may be dead already; compaction then hands the label on
     to the next live node. *)
  let skip_labels = Hashtbl.create 16 in
  let skip_label (callee : S.proc) =
    match Hashtbl.find_opt skip_labels callee.S.sp_index with
    | Some l -> l
    | None ->
        let body = callee.S.body in
        let k = entry_setup_lo ~dead body + 1 in
        if k = 0 || k >= Array.length body then callee.S.entry_label
        else begin
          let l = S.fresh_label program in
          body.(k).S.labels <- l :: body.(k).S.labels;
          Hashtbl.replace skip_labels callee.S.sp_index l;
          l
        end
  in
  (* --- call sites --- *)
  let nprocs = Array.length world.Linker.Resolve.procs in
  let entered_at_entry = Array.make nprocs false in
  let handled_loads = Hashtbl.create 64 in
  List.iter
    (fun (cs : Analysis.callsite) ->
      let caller = program.S.procs.(cs.cs_proc) in
      let keep_reset () =
        match cs.cs_reset with
        | Some _ ->
            stats.Stats.calls_reset_after <- stats.Stats.calls_reset_after + 1
        | None -> ()
      in
      let handle_reset ~same_group ~callee_no_gp =
        match cs.cs_reset with
        | None -> ()
        | Some (hi, lo) ->
            (* distances in the body as the index saw it, before the
               transform *)
            let local_enough =
              level = Full
              ||
              let dist (n : S.node) =
                ix.S.pos.(n.S.nid) - ix.S.pos.(cs.cs_node.S.nid)
              in
              dist hi <= 4 && dist lo <= 4
            in
            if (same_group || callee_no_gp) && local_enough then begin
              nullify hi;
              nullify lo
            end
            else
              stats.Stats.calls_reset_after <- stats.Stats.calls_reset_after + 1
      in
      (* the site keeps its jsr and PV load *)
      let keep_jsr () =
        stats.Stats.calls_pv_after <- stats.Stats.calls_pv_after + 1;
        stats.Stats.jsr_after <- stats.Stats.jsr_after + 1
      in
      if not options.opt_calls then begin
        (* ablated: count everything as untouched *)
        (match cs.cs_kind with
        | Analysis.Direct { via = `Jsr _; callee } ->
            keep_jsr ();
            entered_at_entry.(callee) <- true
        | Analysis.Indirect -> keep_jsr ()
        | Analysis.Direct { via = `Bsr; callee } ->
            entered_at_entry.(callee) <- true);
        keep_reset ()
      end
      else
      match cs.cs_kind with
      | Analysis.Indirect ->
          keep_jsr ();
          keep_reset ()
      | Analysis.Direct { callee; via = `Bsr } ->
          (* compiled as an optimized local call already; it enters at the
             entry when its target labels the first live node *)
          (match cs.cs_node.S.insn with
          | S.Branch { target; _ }
            when world.Linker.Resolve.procs.(callee).p_uses_gp ->
              let tpi = S.label_home ix target in
              if tpi >= 0 then
                let tbody = program.S.procs.(tpi).S.body in
                let first = next_live ~dead tbody 0 in
                if
                  first < Array.length tbody
                  && tbody.(first).S.nid = ix.S.carrier.(target)
                then entered_at_entry.(callee) <- true
          | _ -> ());
          keep_reset ()
      | Analysis.Direct { callee; via = `Jsr load } -> (
          match ix.S.sym_proc.(callee) with
          | -1 ->
              (* callee not lifted: leave the site untouched *)
              keep_jsr ();
              entered_at_entry.(callee) <- true;
              keep_reset ()
          | ci ->
              let callee_sym = program.S.procs.(ci) in
              let callee_w = world.Linker.Resolve.procs.(callee) in
              let same_group = group_of caller = group_of callee_sym in
              let target, pv_removable =
                if not callee_w.p_uses_gp then (callee_sym.S.entry_label, true)
                else if
                  same_group && entry_setup_lo ~dead callee_sym.S.body >= 0
                then (skip_label callee_sym, true)
                else (callee_sym.S.entry_label, false)
              in
              let pv_clean =
                match Hashtbl.find_opt als.Analysis.gatload_status load.S.nid with
                | Some (Analysis.All_marked us) ->
                    us <> [] && List.for_all (fun u -> u == cs.cs_node) us
                | _ -> false
              in
              (* the jsr becomes a bsr in either case *)
              cs.cs_node.S.insn <-
                S.Branch { insn = I.Bsr { ra = R.ra; disp = 0 }; target };
              Hashtbl.replace handled_loads load.S.nid ();
              if pv_removable && pv_clean then begin
                nullify load;
                stats.Stats.addr_nullified <- stats.Stats.addr_nullified + 1;
                stats.Stats.pvs_devirtualized <-
                  stats.Stats.pvs_devirtualized + 1
              end
              else begin
                stats.Stats.calls_pv_after <- stats.Stats.calls_pv_after + 1;
                if target = callee_sym.S.entry_label && callee_w.p_uses_gp then
                  entered_at_entry.(callee) <- true
              end;
              handle_reset ~same_group ~callee_no_gp:(not callee_w.p_uses_gp)))
    als.Analysis.callsites;
  (* --- address loads --- *)
  if options.opt_addr then
  Array.iter
    (fun (proc : S.proc) ->
      let gp = Datalayout.gp_of_proc plan ~sp_module:proc.S.sp_module in
      Array.iter
        (fun (load : S.node) ->
          match load.S.insn with
          | S.Gatload { ra; key = S.Paddr ((Linker.Resolve.Tobj _ as target), key_addend) }
            when not (dead load || Hashtbl.mem handled_loads load.S.nid) -> (
              let addr = Datalayout.address_of world plan target + key_addend in
              let status =
                Hashtbl.find_opt als.Analysis.gatload_status load.S.nid
              in
              (* a use is foldable when its base really is the loaded value
                 and the resulting displacement fits *)
              let use_disp (u : S.node) =
                match u.S.insn with
                | S.Use { insn = I.Ldq { rb; disp; _ }; _ }
                  when R.equal rb ra -> Some disp
                | S.Use { insn = I.Stq { ra = src; rb; disp }; _ }
                  when R.equal rb ra && not (R.equal src ra) -> Some disp
                | _ -> None
              in
              let all_fit ok =
                List.for_all (fun u ->
                    match use_disp u with Some d -> ok d | None -> false)
              in
              let fold_ok d = I.fits_disp16 (addr + d - gp) in
              let lo_ok d =
                I.fits_disp32 (addr - gp)
                &&
                let _, lo = I.split32 (addr - gp) in
                I.fits_disp16 (lo + d)
              in
              match status with
              | Some (Analysis.All_marked uses) when all_fit fold_ok uses ->
                  (* every consumer reaches its datum GP-relative: fold
                     each use (its own displacement goes into the addend)
                     and nullify the address load *)
                  List.iter
                    (fun (u : S.node) ->
                      match (u.S.insn, use_disp u) with
                      | S.Use { insn; _ }, Some d ->
                          u.S.insn <-
                            S.Gprel
                              { insn;
                                target;
                                addend = key_addend + d;
                                part = S.Pfull }
                      | _ -> assert false)
                    uses;
                  nullify load;
                  stats.Stats.addr_nullified <- stats.Stats.addr_nullified + 1
              | _ when I.fits_disp16 (addr - gp) ->
                  load.S.insn <-
                    S.Gprel
                      { insn = I.Lda { ra; rb = R.gp; disp = 0 };
                        target;
                        addend = key_addend;
                        part = S.Pfull };
                  stats.Stats.addr_converted <- stats.Stats.addr_converted + 1
              | Some (Analysis.All_marked uses)
                when uses <> [] && all_fit lo_ok uses ->
                  (* the LDAH trick: same instruction count *)
                  load.S.insn <-
                    S.Gprel
                      { insn = I.Ldah { ra; rb = R.gp; disp = 0 };
                        target;
                        addend = key_addend;
                        part = S.Phi };
                  List.iter
                    (fun (u : S.node) ->
                      match (u.S.insn, use_disp u) with
                      | S.Use { insn; _ }, Some d ->
                          u.S.insn <-
                            S.Gprel
                              { insn; target; addend = key_addend; part = S.Plo d }
                      | _ -> assert false)
                    uses;
                  stats.Stats.addr_converted <- stats.Stats.addr_converted + 1
              | _ when level = Full ->
                  load.S.insn <- S.Lea_wide { ra; target; addend = key_addend };
                  stats.Stats.addr_converted <- stats.Stats.addr_converted + 1
              | _ -> (* OM-simple keeps the GAT load *) ())
          | _ -> ())
        proc.S.body)
    program.S.procs;
  (* --- prologue GP-setup deletion (Full) --- *)
  if level = Full && options.opt_setup_deletion then
    Array.iter
      (fun (proc : S.proc) ->
        let p = proc.S.sp_index in
        if
          (not als.Analysis.address_taken.(p))
          && p <> world.Linker.Resolve.entry_proc
          && not entered_at_entry.(p)
        then
          let body = proc.S.body in
          let lo = entry_setup_lo ~dead body in
          if lo >= 0 then begin
            delete_node d body.(next_live ~dead body 0);
            delete_node d body.(lo);
            stats.Stats.insns_deleted <- stats.Stats.insns_deleted + 2;
            stats.Stats.gp_setups_deleted <- stats.Stats.gp_setups_deleted + 1
          end)
      program.S.procs;
  compact d;
  stats.Stats.insns_after <- S.static_insn_count program;
  als
