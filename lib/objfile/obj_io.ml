let magic_unit = "WOF1"
let magic_archive = "WAR1"

(* --- the wire primitives ---

   Little-endian fields; a string or byte block is a 32-bit length and
   its bytes. The reader checks the bytes left before every read, and
   before a length or count can size an allocation. Linked images use
   the same primitives ([Linker.Image]). *)

module Wire = struct
  let w8 b n = Buffer.add_uint8 b (n land 0xff)
  let w32 b n = Buffer.add_int32_le b (Int32.of_int n)
  let w64 b n = Buffer.add_int64_le b n

  let wstr b s =
    w32 b (String.length s);
    Buffer.add_string b s

  let wbytes b s =
    w32 b (Bytes.length s);
    Buffer.add_bytes b s

  exception Malformed of string

  let malformed m = raise (Malformed m)

  type reader = { buf : Bytes.t; mutable pos : int }

  let left r = Bytes.length r.buf - r.pos

  let need r n =
    if n > left r then malformed (Printf.sprintf "truncated at offset %d" r.pos)

  let r8 r = need r 1; let v = Bytes.get_uint8 r.buf r.pos in r.pos <- r.pos + 1; v

  let r32 r =
    need r 4;
    let v = Int32.to_int (Bytes.get_int32_le r.buf r.pos) in
    r.pos <- r.pos + 4;
    v

  let r64 r =
    need r 8;
    let v = Bytes.get_int64_le r.buf r.pos in
    r.pos <- r.pos + 8;
    v

  let rlength r what =
    let n = r32 r in
    if n < 0 then malformed ("negative " ^ what ^ " length");
    need r n;
    n

  let rstr r =
    let n = rlength r "string" in
    let s = Bytes.sub_string r.buf r.pos n in
    r.pos <- r.pos + n;
    s

  let rbytes r =
    let n = rlength r "byte" in
    let s = Bytes.sub r.buf r.pos n in
    r.pos <- r.pos + n;
    s

  (* every entry takes at least one byte, so a count beyond the bytes
     left is a lie — and must not size an array *)
  let rcount r what =
    let n = r32 r in
    if n < 0 || n > left r then
      malformed (Printf.sprintf "implausible %s count %d" what n);
    n

  let read ~magic f buf =
    let r = { buf; pos = 0 } in
    match
      need r 4;
      let m = Bytes.sub_string r.buf 0 4 in
      if not (String.equal m magic) then
        malformed (Printf.sprintf "bad magic %S (want %S)" m magic);
      r.pos <- 4;
      f r
    with
    | v -> if r.pos <> Bytes.length buf then Error "trailing garbage" else Ok v
    | exception Malformed m -> Error m
end

open Wire

(* --- writing --- *)

let section_tag = function
  | Section.Text -> 0 | Section.Data -> 1 | Section.Sdata -> 2
  | Section.Bss -> 3 | Section.Sbss -> 4 | Section.Gat -> 5

let section_of_tag = function
  | 0 -> Some Section.Text | 1 -> Some Section.Data | 2 -> Some Section.Sdata
  | 3 -> Some Section.Bss | 4 -> Some Section.Sbss | 5 -> Some Section.Gat
  | _ -> None

let write_gat_entry b = function
  | Gat_entry.Addr { symbol; addend } ->
      w8 b 0; wstr b symbol; w32 b addend
  | Gat_entry.Const c -> w8 b 1; w64 b c

let write_symbol b (s : Symbol.t) =
  wstr b s.name;
  w8 b (match s.binding with Symbol.Local -> 0 | Symbol.Global -> 1);
  match s.def with
  | Symbol.Proc p ->
      w8 b 0;
      w32 b p.offset;
      w32 b p.size;
      w8 b (Bool.to_int p.exported);
      w8 b (Bool.to_int p.uses_gp);
      w8 b (Bool.to_int p.gp_setup_at_entry)
  | Symbol.Object o ->
      w8 b 1;
      w8 b (section_tag o.section);
      w32 b o.offset;
      w32 b o.size
  | Symbol.Common c ->
      w8 b 2;
      w32 b c.size

let write_reloc b (r : Reloc.t) =
  w8 b (section_tag r.section);
  w32 b r.offset;
  match r.kind with
  | Reloc.Literal { gat_index } -> w8 b 0; w32 b gat_index
  | Reloc.Lituse_base { load_offset } -> w8 b 1; w32 b load_offset
  | Reloc.Lituse_jsr { load_offset } -> w8 b 2; w32 b load_offset
  | Reloc.Gpdisp { anchor; pair } -> w8 b 3; w32 b anchor; w32 b pair
  | Reloc.Refquad { symbol; addend } -> w8 b 4; wstr b symbol; w32 b addend
  | Reloc.Gprel16 { symbol; addend } -> w8 b 5; wstr b symbol; w32 b addend

let write_unit_body b (u : Cunit.t) =
  wstr b u.name;
  wbytes b u.text;
  wbytes b u.data;
  wbytes b u.sdata;
  w32 b u.bss_size;
  w32 b u.sbss_size;
  w32 b (Array.length u.gat);
  Array.iter (write_gat_entry b) u.gat;
  w32 b (List.length u.symbols);
  List.iter (write_symbol b) u.symbols;
  w32 b (List.length u.relocs);
  List.iter (write_reloc b) u.relocs

let write u =
  let b = Buffer.create 1024 in
  Buffer.add_string b magic_unit;
  write_unit_body b u;
  Buffer.to_bytes b

let write_archive (a : Archive.t) =
  let b = Buffer.create 4096 in
  Buffer.add_string b magic_archive;
  wstr b a.name;
  w32 b (List.length a.members);
  List.iter (write_unit_body b) a.members;
  Buffer.to_bytes b

(* --- reading --- *)

let rsection r =
  match section_of_tag (r8 r) with
  | Some s -> s
  | None -> malformed "bad section tag"

let read_gat_entry r =
  match r8 r with
  | 0 ->
      let symbol = rstr r in
      let addend = r32 r in
      Gat_entry.Addr { symbol; addend }
  | 1 -> Gat_entry.Const (r64 r)
  | _ -> malformed "bad GAT entry tag"

let read_symbol r : Symbol.t =
  let name = rstr r in
  let binding =
    match r8 r with
    | 0 -> Symbol.Local
    | 1 -> Symbol.Global
    | _ -> malformed "bad binding tag"
  in
  let def =
    match r8 r with
    | 0 ->
        let offset = r32 r in
        let size = r32 r in
        let exported = r8 r <> 0 in
        let uses_gp = r8 r <> 0 in
        let gp_setup_at_entry = r8 r <> 0 in
        Symbol.Proc { offset; size; exported; uses_gp; gp_setup_at_entry }
    | 1 ->
        let section = rsection r in
        let offset = r32 r in
        let size = r32 r in
        Symbol.Object { section; offset; size }
    | 2 -> Symbol.Common { size = r32 r }
    | _ -> malformed "bad symbol definition tag"
  in
  { name; binding; def }

let read_reloc r : Reloc.t =
  let section = rsection r in
  let offset = r32 r in
  let kind =
    match r8 r with
    | 0 -> Reloc.Literal { gat_index = r32 r }
    | 1 -> Reloc.Lituse_base { load_offset = r32 r }
    | 2 -> Reloc.Lituse_jsr { load_offset = r32 r }
    | 3 ->
        let anchor = r32 r in
        let pair = r32 r in
        Reloc.Gpdisp { anchor; pair }
    | 4 ->
        let symbol = rstr r in
        let addend = r32 r in
        Reloc.Refquad { symbol; addend }
    | 5 ->
        let symbol = rstr r in
        let addend = r32 r in
        Reloc.Gprel16 { symbol; addend }
    | _ -> malformed "bad relocation tag"
  in
  { section; offset; kind }

let read_list r what f =
  List.init (rcount r what) (fun _ -> f r)

let read_unit_body r : Cunit.t =
  let name = rstr r in
  let text = rbytes r in
  let data = rbytes r in
  let sdata = rbytes r in
  let bss_size = r32 r in
  let sbss_size = r32 r in
  let gat = Array.init (rcount r "gat") (fun _ -> read_gat_entry r) in
  let symbols = read_list r "symbol" read_symbol in
  let relocs = read_list r "reloc" read_reloc in
  { name; text; data; sdata; bss_size; sbss_size; gat; symbols; relocs }

let read = Wire.read ~magic:magic_unit read_unit_body

let read_archive =
  Wire.read ~magic:magic_archive (fun r ->
      let name = rstr r in
      let members = read_list r "member" read_unit_body in
      Archive.make ~name members)

let save path u =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_bytes oc (write u)

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    really_input_string ic (in_channel_length ic)
  with
  | s -> read (Bytes.of_string s)
  | exception Sys_error m -> Error m
