type t = {
  name : string;
  text : Bytes.t;
  data : Bytes.t;
  sdata : Bytes.t;
  bss_size : int;
  sbss_size : int;
  gat : Gat_entry.t array;
  symbols : Symbol.t list;
  relocs : Reloc.t list;
}

let make ~name ?(data = Bytes.empty) ?(sdata = Bytes.empty) ?(bss_size = 0)
    ?(sbss_size = 0) ?(gat = [||]) ?(symbols = []) ?(relocs = []) body =
  { name;
    text = Isa.Encode.to_bytes body;
    data;
    sdata;
    bss_size;
    sbss_size;
    gat;
    symbols;
    relocs }

let insn_count t = Bytes.length t.text / 4

let find_symbol t name =
  List.find_opt (fun (s : Symbol.t) -> String.equal s.name name) t.symbols

let defined_symbols t =
  List.filter_map
    (fun (s : Symbol.t) ->
      match s.binding with Global -> Some s.name | Local -> None)
    t.symbols

let referenced_symbols t =
  let names = Hashtbl.create 16 in
  let add n = if not (Hashtbl.mem names n) then Hashtbl.add names n () in
  Array.iter
    (function Gat_entry.Addr { symbol; _ } -> add symbol | Const _ -> ())
    t.gat;
  List.iter
    (fun (r : Reloc.t) ->
      match r.kind with
      | Refquad { symbol; _ } | Gprel16 { symbol; _ } -> add symbol
      | _ -> ())
    t.relocs;
  Hashtbl.fold (fun n () acc -> n :: acc) names []

let undefined_symbols t =
  List.filter (fun n -> Option.is_none (find_symbol t n))
    (referenced_symbols t)

(* --- validation --- *)

let section_size t = function
  | Section.Text -> Bytes.length t.text
  | Section.Data -> Bytes.length t.data
  | Section.Sdata -> Bytes.length t.sdata
  | Section.Bss -> t.bss_size
  | Section.Sbss -> t.sbss_size
  | Section.Gat -> 8 * Array.length t.gat

let word_at t offset =
  Int32.to_int (Bytes.get_int32_le t.text offset) land 0xffffffff

let text_insn t offset =
  if offset < 0 || offset mod 4 <> 0 || offset + 4 > Bytes.length t.text then
    None
  else Result.to_option (Isa.Decode.decode (word_at t offset))

let validate t =
  let ( let* ) = Result.bind in
  let fail fmt = Format.kasprintf (fun m -> Error (t.name ^ ": " ^ m)) fmt in
  let* () =
    if Bytes.length t.text mod 4 <> 0 then
      fail "text length %d not a multiple of 4" (Bytes.length t.text)
    else Ok ()
  in
  let* () =
    match Isa.Decode.validate t.text with
    | Ok () -> Ok ()
    | Error (_, e) -> fail "undecodable text: %a" Isa.Decode.pp_error e
  in
  (* the text offsets carrying a LITERAL, for the LITUSE back-link check *)
  let literals = Hashtbl.create 16 in
  List.iter
    (fun (r : Reloc.t) ->
      match r.kind with
      | Reloc.Literal _ when Section.equal r.section Section.Text ->
          Hashtbl.replace literals r.offset ()
      | _ -> ())
    t.relocs;
  let check_reloc (r : Reloc.t) acc =
    let* () = acc in
    let size = section_size t r.section in
    let* () =
      if r.offset < 0 || r.offset >= size then
        fail "reloc %a out of section bounds (size %d)" Reloc.pp r size
      else Ok ()
    in
    match r.kind with
    | Literal { gat_index } -> (
        if gat_index < 0 || gat_index >= Array.length t.gat then
          fail "reloc %a: GAT index out of range (%d entries)" Reloc.pp r
            (Array.length t.gat)
        else
          match text_insn t r.offset with
          | Some (Isa.Insn.Ldq { rb; _ }) when Isa.Reg.equal rb Isa.Reg.gp ->
              Ok ()
          | _ -> fail "reloc %a: not on an ldq rX, d(gp)" Reloc.pp r)
    | Lituse_base { load_offset } | Lituse_jsr { load_offset } ->
        if Hashtbl.mem literals load_offset then Ok ()
        else fail "reloc %a: back-link has no LITERAL" Reloc.pp r
    | Gpdisp { anchor; pair } -> (
        let* () =
          if anchor < 0 || anchor > Bytes.length t.text || anchor mod 4 <> 0
          then fail "reloc %a: bad anchor" Reloc.pp r
          else Ok ()
        in
        match (text_insn t r.offset, text_insn t pair) with
        | Some (Isa.Insn.Ldah { ra = r1; _ }), Some (Isa.Insn.Lda { ra = r2; rb; _ })
          when Isa.Reg.equal r1 Isa.Reg.gp && Isa.Reg.equal r2 Isa.Reg.gp
               && Isa.Reg.equal rb Isa.Reg.gp ->
            Ok ()
        | _ -> fail "reloc %a: not on an ldah gp/lda gp pair" Reloc.pp r)
    | Refquad _ ->
        if r.offset mod 8 <> 0 then
          fail "reloc %a: refquad not 8-aligned" Reloc.pp r
        else if Section.equal r.section Section.Text then
          fail "reloc %a: refquad in text" Reloc.pp r
        else Ok ()
    | Gprel16 _ -> (
        match text_insn t r.offset with
        | Some
            ( Isa.Insn.Lda { rb; _ } | Isa.Insn.Ldq { rb; _ }
            | Isa.Insn.Stq { rb; _ } )
          when Isa.Reg.equal rb Isa.Reg.gp -> Ok ()
        | _ -> fail "reloc %a: not on a gp-based memory op" Reloc.pp r)
  in
  let* () = List.fold_right check_reloc t.relocs (Ok ()) in
  let check_symbol (s : Symbol.t) acc =
    let* () = acc in
    match s.def with
    | Symbol.Proc p ->
        let tsz = Bytes.length t.text in
        if p.offset < 0 || p.offset mod 4 <> 0 || p.offset + p.size > tsz
           || p.size < 0 || p.size mod 4 <> 0
        then fail "symbol %s: bad procedure extent" s.name
        else Ok ()
    | Symbol.Object o ->
        if o.offset < 0 || o.size < 0
           || o.offset + o.size > section_size t o.section
        then fail "symbol %s: object outside %s" s.name (Section.name o.section)
        else Ok ()
    | Symbol.Common c ->
        if c.size <= 0 then fail "symbol %s: empty common" s.name else Ok ()
  in
  List.fold_right check_symbol t.symbols (Ok ())

(* --- printing --- *)

let pp ppf t =
  Format.fprintf ppf "@[<v>module %s@," t.name;
  let reloc_at off =
    List.filter
      (fun (r : Reloc.t) ->
        Section.equal r.section Section.Text && r.offset = off)
      t.relocs
  in
  let sym_at off =
    List.find_opt
      (fun (s : Symbol.t) ->
        match s.def with Symbol.Proc p -> p.offset = off | _ -> false)
      t.symbols
  in
  Format.fprintf ppf ".text (%d insns)@," (insn_count t);
  for i = 0 to insn_count t - 1 do
    let off = 4 * i in
    (match sym_at off with
    | Some s -> Format.fprintf ppf "%s:@," s.name
    | None -> ());
    Format.fprintf ppf "  %4x:  %a" off Isa.Decode.pp_word (word_at t off);
    List.iter (fun r -> Format.fprintf ppf "   ! %a" Reloc.pp r)
      (reloc_at off);
    Format.fprintf ppf "@,"
  done;
  if Array.length t.gat > 0 then begin
    Format.fprintf ppf ".lita (%d entries)@," (Array.length t.gat);
    Array.iteri
      (fun i e -> Format.fprintf ppf "  [%3d] %a@," i Gat_entry.pp e)
      t.gat
  end;
  Format.fprintf ppf "symbols:@,";
  List.iter (fun s -> Format.fprintf ppf "  %a@," Symbol.pp s) t.symbols;
  Format.fprintf ppf "@]"
