module I = Isa.Insn
module S = Symbolic

exception Lift_error of string

let fail fmt = Format.kasprintf (fun m -> raise (Lift_error m)) fmt

(* One walk per world module, in world order, builds that module's nodes
   and procedures: decode the text into one node per instruction, check
   that the procedures cover it, then make branches label-relative and
   fold the relocations into the nodes' instructions in place. A module's
   procedures are its slice [first, last) of the world's table, which
   lists them in text order, so each keeps its world index.

   Numbering is program-wide and fixed by the walk. Node [k] of a module
   whose first node id is [first_nid] has id [first_nid + k], so LITUSE
   and GPDISP links to later instructions need no second pass. A module's
   labels are allocated in first-use order — each procedure's branch
   targets and then its entry, procedure by procedure in text order,
   then the GPDISP anchors in relocation order — and land on their nodes
   in allocation order. *)

let lift_module (program : S.program) m (u : Objfile.Cunit.t) ~first ~last =
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
  let nprocs = last - first in
  let proc k = world.Linker.Resolve.procs.(first + k) in
  (* coverage check *)
  let rec covered k cursor =
    if k = nprocs then cursor
    else
      let p = proc k in
      if p.p_offset <> cursor then
        fail "%s: text gap before %s (at %#x, expected %#x)"
          u.Objfile.Cunit.name p.p_name p.p_offset cursor;
      covered (k + 1) (cursor + p.p_size)
  in
  let covered = covered 0 0 in
  if covered <> text_len then
    fail "%s: procedures cover %d of %d text bytes" u.Objfile.Cunit.name
      covered text_len;
  (* branches become label-relative, procedure by procedure; each
     procedure's entry label follows its branch targets *)
  let entry_labels =
    Array.init nprocs (fun k ->
        let p = proc k in
        let start = p.p_offset / 4 in
        for j = 0 to (p.p_size / 4) - 1 do
          let off = p.p_offset + (4 * j) in
          match nodes.(start + j).S.insn with
          | S.Raw
              ((I.Br { disp; _ } | I.Bsr { disp; _ } | I.Bcond { disp; _ }) as
               insn) ->
              let target_off = off + 4 + (4 * disp) in
              if target_off < 0 || target_off > text_len then
                fail "%s+%#x: branch target %#x outside module text"
                  u.Objfile.Cunit.name off target_off;
              nodes.(start + j).S.insn <-
                S.Branch { insn; target = label_at target_off }
          | _ -> ()
        done;
        label_at p.p_offset)
  in
  let is_proc_entry_of off anchor =
    let rec from k =
      k < nprocs
      &&
      let p = proc k in
      (p.p_offset = anchor && anchor <= off
      && off < anchor + (4 * (p.p_size / 4)))
      || from (k + 1)
    in
    from 0
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
  Array.init nprocs (fun k ->
      let p = proc k in
      { S.sp_index = first + k;
        sp_name = p.p_name;
        sp_module = m;
        entry_label = entry_labels.(k);
        body = Array.sub nodes (p.p_offset / 4) (p.p_size / 4);
        sp_gp_group = 0 })

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
    let procs = world.Linker.Resolve.procs in
    let last = ref 0 in
    program.S.procs <-
      Array.concat
        (List.init (Array.length world.Linker.Resolve.modules) (fun m ->
             let first = !last in
             while !last < Array.length procs && procs.(!last).p_module = m do
               incr last
             done;
             lift_module program m world.Linker.Resolve.modules.(m) ~first
               ~last:!last));
    Ok program
  with Lift_error m | Invalid_argument m -> Error m
