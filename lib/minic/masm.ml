type label = int
type id = int

type item =
  | Label of label
  | Insn of Isa.Insn.t
  | Branch of { insn : Isa.Insn.t; target : label }
  | Gatload of { id : id; ra : Isa.Reg.t; entry : Objfile.Gat_entry.t }
  | Lituse of { insn : Isa.Insn.t; load : id; jsr : bool }
  | Gpsetup_hi of { base : Isa.Reg.t; anchor : label; lo : id }
  | Gpsetup_lo of { id : id }
  | Gpref of { insn : Isa.Insn.t; symbol : string; addend : int }

type proc = { pname : string; pstatic : bool; pexported : bool; items : item list }

type gobj = {
  gname : string;
  gstatic : bool;
  gsection : [ `Data | `Sdata | `Bss | `Sbss ];
  gsize : int;
  ginit : int64 array option;
  grefquads : (int * string * int) list;
}

type dsection = [ `Data | `Sdata | `Bss | `Sbss ]

type t = {
  name : string;
  mutable labels : int;
  mutable ids : int;
  mutable procs : proc list;    (* reversed *)
  mutable globals : gobj list;  (* reversed *)
  mutable commons : (string * int) list;  (* reversed *)
}

let create name =
  { name; labels = 0; ids = 0; procs = []; globals = []; commons = [] }

let fresh_label t =
  let l = t.labels in
  t.labels <- l + 1;
  l

let fresh_id t =
  let i = t.ids in
  t.ids <- i + 1;
  i

let add_proc t ~name ?(static = false) ?(exported = not static) items =
  t.procs <- { pname = name; pstatic = static; pexported = exported; items }
              :: t.procs

let add_global t ~name ?(static = false) ~section ~size_bytes ?init ?(refquads = [])
    () =
  (match (init, section) with
  | Some _, (`Bss | `Sbss) ->
      invalid_arg "Masm.add_global: initializer in a zero section"
  | _ -> ());
  t.globals <-
    { gname = name;
      gstatic = static;
      gsection = section;
      gsize = size_bytes;
      ginit = init;
      grefquads = refquads }
    :: t.globals

let add_common t ~name ~size_bytes =
  t.commons <- (name, (size_bytes + 7) land lnot 7) :: t.commons

(* --- assembly --- *)

let bug fmt = Format.kasprintf invalid_arg fmt

let item_width = function Label _ -> 0 | _ -> 4

let assemble t =
  let procs = List.rev t.procs in
  let globals = List.rev t.globals in
  (* pass 1: offsets, by label and by item id (both dense: drawn from
     [fresh_label] and [fresh_id]); -1 until placed *)
  let label_off = Array.make t.labels (-1) in
  let id_off = Array.make t.ids (-1) in
  let place off item =
    (match item with
    | Label l ->
        if l < 0 || l >= t.labels then bug "label %d is not from this module" l;
        if label_off.(l) >= 0 then bug "duplicate label %d" l;
        label_off.(l) <- off
    | Gatload { id; _ } | Gpsetup_lo { id } ->
        if id < 0 || id >= t.ids then bug "item id %d is not from this module" id;
        id_off.(id) <- off
    | _ -> ());
    off + item_width item
  in
  ignore (List.fold_left (fun off p -> List.fold_left place off p.items) 0 procs);
  (* GAT: deduplicated literal pool *)
  let gat_index = Hashtbl.create 32 in
  let gat_entries = ref [] in
  let ngat = ref 0 in
  let intern entry =
    match Hashtbl.find_opt gat_index entry with
    | Some i -> i
    | None ->
        let i = !ngat in
        incr ngat;
        Hashtbl.replace gat_index entry i;
        gat_entries := entry :: !gat_entries;
        i
  in
  (* pass 2: emit *)
  let insns = ref [] in
  let relocs = ref [] in
  let symbols = ref [] in
  let get_label l =
    if l >= 0 && l < Array.length label_off && label_off.(l) >= 0 then
      label_off.(l)
    else bug "undefined label %d" l
  in
  let get_id i =
    if i >= 0 && i < Array.length id_off && id_off.(i) >= 0 then id_off.(i)
    else bug "undefined item id %d" i
  in
  let emit_proc off p =
    let start = off in
    let uses_gp = ref false in
    let off =
      List.fold_left
        (fun off item ->
          let reloc kind =
            relocs :=
              Objfile.Reloc.v ~section:Objfile.Section.Text ~offset:off kind
              :: !relocs
          in
          (match item with
          | Label _ -> ()
          | Insn i -> insns := i :: !insns
          | Branch { insn; target } ->
              let dst = get_label target in
              let disp = (dst - (off + 4)) / 4 in
              if not (Isa.Insn.fits_disp21 disp) then
                bug "branch displacement %d out of range in %s" disp p.pname;
              insns := Isa.Insn.with_branch_disp insn disp :: !insns
          | Gatload { ra; entry; _ } ->
              uses_gp := true;
              let idx = intern entry in
              if 8 * idx > 32767 then
                bug "module GAT overflow in %s (%d entries)" t.name idx;
              insns :=
                Isa.Insn.Ldq { ra; rb = Isa.Reg.gp; disp = 8 * idx } :: !insns;
              reloc (Objfile.Reloc.Literal { gat_index = idx })
          | Lituse { insn; load; jsr } ->
              let load_offset = get_id load in
              insns := insn :: !insns;
              reloc
                (if jsr then Objfile.Reloc.Lituse_jsr { load_offset }
                 else Objfile.Reloc.Lituse_base { load_offset })
          | Gpsetup_hi { base; anchor; lo } ->
              uses_gp := true;
              insns :=
                Isa.Insn.Ldah { ra = Isa.Reg.gp; rb = base; disp = 0 }
                :: !insns;
              reloc
                (Objfile.Reloc.Gpdisp
                   { anchor = get_label anchor; pair = get_id lo })
          | Gpsetup_lo _ ->
              insns :=
                Isa.Insn.Lda { ra = Isa.Reg.gp; rb = Isa.Reg.gp; disp = 0 }
                :: !insns
          | Gpref { insn; symbol; addend } ->
              uses_gp := true;
              insns := insn :: !insns;
              reloc (Objfile.Reloc.Gprel16 { symbol; addend }));
          off + item_width item)
        off p.items
    in
    let rec skip_labels = function Label _ :: rest -> skip_labels rest | l -> l in
    let gp_setup_at_entry =
      match skip_labels p.items with
      | Gpsetup_hi { lo; _ } :: rest -> (
          match skip_labels rest with
          | Gpsetup_lo { id } :: _ -> lo = id
          | _ -> false)
      | _ -> false
    in
    symbols :=
      Objfile.Symbol.proc
        ~binding:(if p.pstatic then Objfile.Symbol.Local else Objfile.Symbol.Global)
        ~exported:p.pexported ~uses_gp:!uses_gp ~gp_setup_at_entry
        ~name:p.pname ~offset:start ~size:(off - start) ()
      :: !symbols;
    off
  in
  let _end = List.fold_left emit_proc 0 procs in
  (* data sections *)
  let data = Buffer.create 256 and sdata = Buffer.create 256 in
  let bss = ref 0 and sbss = ref 0 in
  List.iter
    (fun g ->
      let aligned_size = (g.gsize + 7) land lnot 7 in
      let sec, offset =
        match g.gsection with
        | `Data ->
            let o = Buffer.length data in
            (Objfile.Section.Data, o)
        | `Sdata ->
            let o = Buffer.length sdata in
            (Objfile.Section.Sdata, o)
        | `Bss ->
            let o = !bss in
            bss := o + aligned_size;
            (Objfile.Section.Bss, o)
        | `Sbss ->
            let o = !sbss in
            sbss := o + aligned_size;
            (Objfile.Section.Sbss, o)
      in
      (match (g.gsection, g.ginit) with
      | (`Data | `Sdata), init ->
          let buf = match g.gsection with `Data -> data | _ -> sdata in
          let words = aligned_size / 8 in
          let init = Option.value init ~default:[||] in
          if Array.length init > words then
            bug "initializer too long for %s" g.gname;
          for w = 0 to words - 1 do
            let v = if w < Array.length init then init.(w) else 0L in
            Buffer.add_int64_le buf v
          done
      | _ -> ());
      List.iter
        (fun (word, symbol, addend) ->
          if word * 8 >= aligned_size then
            bug "refquad index %d outside %s" word g.gname;
          relocs :=
            Objfile.Reloc.v ~section:sec ~offset:(offset + (8 * word))
              (Objfile.Reloc.Refquad { symbol; addend })
            :: !relocs)
        g.grefquads;
      symbols :=
        Objfile.Symbol.obj
          ~binding:(if g.gstatic then Objfile.Symbol.Local else Objfile.Symbol.Global)
          ~name:g.gname ~section:sec ~offset ~size:aligned_size ()
        :: !symbols)
    globals;
  List.iter
    (fun (name, size) ->
      symbols := Objfile.Symbol.common ~name ~size :: !symbols)
    (List.rev t.commons);
  let unit =
    Objfile.Cunit.make ~name:t.name
      ~data:(Buffer.to_bytes data)
      ~sdata:(Buffer.to_bytes sdata)
      ~bss_size:!bss ~sbss_size:!sbss
      ~gat:(Array.of_list (List.rev !gat_entries))
      ~symbols:(List.rev !symbols)
      ~relocs:(List.rev !relocs)
      (List.rev !insns)
  in
  (match Objfile.Cunit.validate unit with
  | Ok () -> ()
  | Error m -> bug "assembled module fails validation: %s" m);
  unit

(* --- scheduling support --- *)

let node_of_item = function
  | Label _ -> bug "node_of_item: Label in straight-line run"
  | Insn i -> Isa.Schedule.node_of_insn i
  | Branch { insn; _ } -> Isa.Schedule.node_of_insn insn
  | Gatload { ra; _ } ->
      Isa.Schedule.node_of_insn
        (Isa.Insn.Ldq { ra; rb = Isa.Reg.gp; disp = 0 })
  | Lituse { insn; _ } -> Isa.Schedule.node_of_insn insn
  | Gpsetup_hi { base; _ } ->
      Isa.Schedule.node_of_insn
        (Isa.Insn.Ldah { ra = Isa.Reg.gp; rb = base; disp = 0 })
  | Gpsetup_lo _ ->
      Isa.Schedule.node_of_insn
        (Isa.Insn.Lda { ra = Isa.Reg.gp; rb = Isa.Reg.gp; disp = 0 })
  | Gpref { insn; _ } -> Isa.Schedule.node_of_insn insn

let schedule_items items =
  match items with
  | [] | [ _ ] -> items
  | _ ->
      let arr = Array.of_list items in
      let nodes = Array.map node_of_item arr in
      let perm = Isa.Schedule.order nodes in
      assert (Isa.Schedule.is_valid_order nodes perm);
      Array.to_list (Array.map (fun i -> arr.(i)) perm)
