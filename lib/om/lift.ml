module I = Isa.Insn
module S = Symbolic

exception Lift_error of string

let fail fmt = Format.kasprintf (fun m -> raise (Lift_error m)) fmt

(* One walk per world module, in world order, builds that module's nodes
   and procedures: decode the text into one node per instruction, check
   that the procedures cover it, then make branches label-relative and
   fold the relocations into the nodes' instructions in place.

   Numbering is program-wide and fixed by the walk. Node [k] of a module
   whose first node id is [first_nid] has id [first_nid + k], so LITUSE
   and GPDISP links to later instructions need no second pass. A module's
   labels are allocated in first-use order — each procedure's branch
   targets and then its entry, procedure by procedure in text order,
   then the GPDISP anchors in relocation order — and land on their nodes
   in allocation order. *)

let lift_module (program : S.program) proc_idx m (u : Objfile.Cunit.t) =
  let world = program.S.world in
  let text = u.Objfile.Cunit.text in
  let text_len = Bytes.length text in
  if text_len land 3 <> 0 then
    fail "%s: %d trailing text bytes" u.Objfile.Cunit.name (text_len land 3);
  let n = text_len / 4 in
  let first_nid = program.S.next_node in
  let nodes =
    Array.init n (fun k ->
        let word = Int32.to_int (Bytes.get_int32_le text (4 * k)) in
        match Isa.Decode.decode word with
        | Ok i -> S.make_node program (S.Raw i)
        | Error e ->
            fail "%s+%#x: undecodable text: %a" u.Objfile.Cunit.name (4 * k)
              Isa.Decode.pp_error e)
  in
  (* labels by text offset; [placed] lists (label, offset) newest first *)
  let label_of_off : (int, S.label) Hashtbl.t = Hashtbl.create 64 in
  let placed = ref [] in
  let label_at off =
    match Hashtbl.find_opt label_of_off off with
    | Some l -> l
    | None ->
        let l = S.fresh_label program in
        Hashtbl.replace label_of_off off l;
        placed := (l, off) :: !placed;
        l
  in
  (* procedures from the unit's own symbol table, in text order *)
  let module_procs =
    List.filter_map
      (fun (s : Objfile.Symbol.t) ->
        match s.Objfile.Symbol.def with
        | Objfile.Symbol.Proc d -> Some (s.Objfile.Symbol.name, d)
        | _ -> None)
      u.Objfile.Cunit.symbols
    |> List.sort
         (fun (_, (a : Objfile.Symbol.proc_desc)) (_, b) ->
           compare a.Objfile.Symbol.offset b.Objfile.Symbol.offset)
  in
  (* coverage check *)
  let covered =
    List.fold_left
      (fun cursor (name, (d : Objfile.Symbol.proc_desc)) ->
        if d.Objfile.Symbol.offset <> cursor then
          fail "%s: text gap before %s (at %#x, expected %#x)"
            u.Objfile.Cunit.name name d.Objfile.Symbol.offset cursor;
        cursor + d.Objfile.Symbol.size)
      0 module_procs
  in
  if covered <> text_len then
    fail "%s: procedures cover %d of %d text bytes" u.Objfile.Cunit.name
      covered text_len;
  (* branches become label-relative, procedure by procedure; each
     procedure's entry label follows its branch targets *)
  let entry_labels =
    List.map
      (fun (_, (d : Objfile.Symbol.proc_desc)) ->
        let first = d.Objfile.Symbol.offset / 4 in
        for j = 0 to (d.Objfile.Symbol.size / 4) - 1 do
          let off = d.Objfile.Symbol.offset + (4 * j) in
          match nodes.(first + j).S.insn with
          | S.Raw
              ((I.Br { disp; _ } | I.Bsr { disp; _ } | I.Bcond { disp; _ }) as
               insn) ->
              let target_off = off + 4 + (4 * disp) in
              if target_off < 0 || target_off > text_len then
                fail "%s+%#x: branch target %#x outside module text"
                  u.Objfile.Cunit.name off target_off;
              nodes.(first + j).S.insn <-
                S.Branch { insn; target = label_at target_off }
          | _ -> ()
        done;
        label_at d.Objfile.Symbol.offset)
      module_procs
  in
  let is_proc_entry_of off anchor =
    List.exists
      (fun (_, (d : Objfile.Symbol.proc_desc)) ->
        d.Objfile.Symbol.offset = anchor
        && anchor <= off
        && off < anchor + (4 * (d.Objfile.Symbol.size / 4)))
      module_procs
  in
  let index_of what off =
    if off < 0 || off mod 4 <> 0 || off / 4 >= n then
      fail "%s+%#x: %s" u.Objfile.Cunit.name off what
    else off / 4
  in
  let resolve symbol = Linker.Resolve.resolve_exn world m symbol in
  (* fold relocations into the instructions *)
  List.iter
    (fun (r : Objfile.Reloc.t) ->
      if Objfile.Section.equal r.section Objfile.Section.Text then begin
        let at =
          if r.offset < 0 || r.offset mod 4 <> 0 || r.offset / 4 >= n then
            fail "%s: relocation at %#x hits no instruction"
              u.Objfile.Cunit.name r.offset
          else r.offset / 4
        in
        match r.kind with
        | Objfile.Reloc.Literal { gat_index } -> (
            let entry = u.Objfile.Cunit.gat.(gat_index) in
            match nodes.(at).S.insn with
            | S.Raw (I.Ldq { ra; _ }) ->
                let key =
                  match entry with
                  | Objfile.Gat_entry.Addr { symbol; addend } ->
                      S.Paddr (resolve symbol, addend)
                  | Objfile.Gat_entry.Const c -> S.Pconst c
                in
                nodes.(at).S.insn <- S.Gatload { ra; key }
            | _ ->
                fail "%s+%#x: LITERAL not on an address load"
                  u.Objfile.Cunit.name r.offset)
        | Objfile.Reloc.Lituse_base { load_offset }
        | Objfile.Reloc.Lituse_jsr { load_offset } -> (
            let jsr =
              match r.kind with
              | Objfile.Reloc.Lituse_jsr _ -> true
              | _ -> false
            in
            let load = index_of "dangling LITUSE" load_offset in
            match nodes.(at).S.insn with
            | S.Raw insn ->
                nodes.(at).S.insn <-
                  S.Use { insn; load_id = first_nid + load; jsr }
            | _ ->
                fail "%s+%#x: LITUSE on a non-plain instruction"
                  u.Objfile.Cunit.name r.offset)
        | Objfile.Reloc.Gpdisp { anchor; pair } -> (
            let lo = index_of "dangling GPDISP pair" pair in
            (* anchored on this instruction's enclosing procedure entry? *)
            let anchor =
              if is_proc_entry_of r.offset anchor then S.Aentry
              else S.Alocal (label_at anchor)
            in
            match (nodes.(at).S.insn, nodes.(lo).S.insn) with
            | S.Raw (I.Ldah { rb; _ }), S.Raw (I.Lda _) ->
                nodes.(at).S.insn <-
                  S.Gpsetup_hi { base = rb; anchor; lo_id = first_nid + lo };
                nodes.(lo).S.insn <- S.Gpsetup_lo
            | _ ->
                fail "%s+%#x: GPDISP not on an ldah/lda pair"
                  u.Objfile.Cunit.name r.offset)
        | Objfile.Reloc.Refquad _ ->
            fail "%s+%#x: REFQUAD in text" u.Objfile.Cunit.name r.offset
        | Objfile.Reloc.Gprel16 { symbol; addend } -> (
            (* optimistically-compiled direct GP-relative access *)
            match nodes.(at).S.insn with
            | S.Raw
                ((I.Lda { rb; _ } | I.Ldq { rb; _ } | I.Stq { rb; _ }) as insn)
              when Isa.Reg.equal rb Isa.Reg.gp ->
                nodes.(at).S.insn <-
                  S.Gprel
                    { insn; target = resolve symbol; addend; part = S.Pfull }
            | _ ->
                fail "%s+%#x: GPREL16 not on a gp-based memory op"
                  u.Objfile.Cunit.name r.offset)
      end)
    u.Objfile.Cunit.relocs;
  (* every label lands on an instruction, in allocation order *)
  List.iter
    (fun (l, off) ->
      if off < 0 || off mod 4 <> 0 || off / 4 >= n then
        fail "label target %#x in module %s hits no instruction" off
          u.Objfile.Cunit.name;
      let nd = nodes.(off / 4) in
      nd.S.labels <- l :: nd.S.labels)
    (List.rev !placed);
  List.map2
    (fun (name, (d : Objfile.Symbol.proc_desc)) entry_label ->
      let sp_index =
        match Hashtbl.find_opt proc_idx (m, d.Objfile.Symbol.offset) with
        | Some i -> i
        | None ->
            fail "procedure %s of %s unknown to the world" name
              u.Objfile.Cunit.name
      in
      let first = d.Objfile.Symbol.offset / 4 in
      { S.sp_index;
        sp_name = name;
        sp_module = m;
        entry_label;
        body = Array.sub nodes first (d.Objfile.Symbol.size / 4);
        sp_gp_group = 0 })
    module_procs entry_labels

let run (world : Linker.Resolve.t) =
  try
    let program =
      { S.world;
        procs = [||];
        next_label = 0;
        next_node = 0;
        entry_name =
          world.Linker.Resolve.procs.(world.Linker.Resolve.entry_proc).p_name }
    in
    (* world procedure index by (module, entry offset) *)
    let proc_idx : (int * int, int) Hashtbl.t =
      Hashtbl.create (Array.length world.Linker.Resolve.procs)
    in
    Array.iteri
      (fun i (p : Linker.Resolve.proc_rec) ->
        Hashtbl.replace proc_idx (p.p_module, p.p_offset) i)
      world.Linker.Resolve.procs;
    let procs = ref [] in
    Array.iteri
      (fun m u ->
        procs := List.rev_append (lift_module program proc_idx m u) !procs)
      world.Linker.Resolve.modules;
    program.S.procs <- Array.of_list (List.rev !procs);
    Ok program
  with Lift_error m | Invalid_argument m -> Error m
