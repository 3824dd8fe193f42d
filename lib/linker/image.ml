type proc_info = {
  name : string;
  entry : int;
  size : int;
  gp_value : int;
  module_name : string;
  exported : bool;
  uses_gp : bool;
  gp_setup_at_entry : bool;
}

type t = {
  text_base : int;
  text : Bytes.t;
  data_base : int;
  data : Bytes.t;
  entry : int;
  procs : proc_info array;
  symbols : (string * int) list;
  heap_base : int;
  gat_base : int;
  gat_bytes : int;
  ngroups : int;
}

let find_proc t name =
  Array.find_opt (fun (p : proc_info) -> String.equal p.name name) t.procs

let proc_containing t addr =
  (* binary search for [n], the number of procedures entered at or
     below [addr]; the last of them is the only one that can hold it *)
  let rec count lo hi =
    if lo = hi then lo
    else
      let mid = (lo + hi) / 2 in
      if t.procs.(mid).entry <= addr then count (mid + 1) hi else count lo mid
  in
  let n = count 0 (Array.length t.procs) in
  if n > 0 && addr < t.procs.(n - 1).entry + t.procs.(n - 1).size then
    Some t.procs.(n - 1)
  else None

let symbol_address t name =
  Option.map snd (List.find_opt (fun (n, _) -> String.equal n name) t.symbols)

let insn_count t = Bytes.length t.text / 4

let pp_disassembly ppf t =
  let next = ref 0 in  (* the first procedure not entered below [addr] *)
  Format.fprintf ppf "@[<v>";
  for i = 0 to insn_count t - 1 do
    let addr = t.text_base + (4 * i) in
    while !next < Array.length t.procs && t.procs.(!next).entry < addr do
      incr next
    done;
    (if !next < Array.length t.procs && t.procs.(!next).entry = addr then
       let p = t.procs.(!next) in
       Format.fprintf ppf "%s:  (gp=%#x)@," p.name p.gp_value);
    Format.fprintf ppf "  %x:  %a@," addr Isa.Decode.pp_word
      (Isa.Decode.word t.text i)
  done;
  Format.fprintf ppf "@]"

(* --- the decoded text and the structural check --- *)

type decoded = { image : t; insns : Isa.Insn.t array }

let decode_text image =
  match Isa.Decode.of_bytes_loc image.text with
  | Ok insns -> Ok { image; insns }
  | Error (off, e) -> Error (image.text_base + off, e)

type issue = { at : int; what : string }

let issues t =
  let found = ref [] in
  let issue at fmt =
    Format.kasprintf (fun what -> found := { at; what } :: !found) fmt
  in
  let text_end = t.text_base + Bytes.length t.text in
  Array.iteri
    (fun i (p : proc_info) ->
      (if i > 0 then
         let q = t.procs.(i - 1) in
         if p.entry < q.entry then
           issue p.entry "%s out of entry order after %s" p.name q.name
         else if p.entry < q.entry + q.size then
           issue p.entry "%s overlaps %s [%#x, %#x)" p.name q.name q.entry
             (q.entry + q.size));
      if p.entry < t.text_base || p.size < 0 || p.entry + p.size > text_end then
        issue p.entry "%s: [%#x, %#x) outside text" p.name p.entry
          (p.entry + p.size))
    t.procs;
  (match proc_containing t t.entry with
  | Some p when p.entry = t.entry -> ()
  | _ -> issue t.entry "entry point %#x is not a procedure entry" t.entry);
  let data_end = t.data_base + Bytes.length t.data in
  if t.gat_bytes > 0
     && (t.gat_base < t.data_base || t.gat_base + t.gat_bytes > data_end)
  then
    issue t.gat_base "GAT [%#x, %#x) outside data" t.gat_base
      (t.gat_base + t.gat_bytes);
  List.rev !found

let validate t =
  match Isa.Decode.validate t.text with
  | Error (_, e) ->
      Error (Format.asprintf "undecodable text: %a" Isa.Decode.pp_error e)
  | Ok () -> ( match issues t with [] -> Ok () | i :: _ -> Error i.what)

(* --- the binary format ---

   The magic, then the record's fields in declaration order: addresses
   as 64-bit words, sizes and counts as 32-bit ones, strings and byte
   blocks length-prefixed, flags one byte each (0 or 1). Written and read
   with [Obj_io]'s primitives, whose reader bounds every length and count
   by the bytes left. *)

let magic = "WIM1"

let encode t =
  let open Objfile.Obj_io.Wire in
  let addr b a = w64 b (Int64.of_int a) in
  let flag b f = w8 b (Bool.to_int f) in
  let b =
    Buffer.create
      (Bytes.length t.text + Bytes.length t.data
      + (64 * (Array.length t.procs + List.length t.symbols))
      + 64)
  in
  Buffer.add_string b magic;
  addr b t.text_base;
  wbytes b t.text;
  addr b t.data_base;
  wbytes b t.data;
  addr b t.entry;
  w32 b (Array.length t.procs);
  Array.iter
    (fun p ->
      wstr b p.name;
      addr b p.entry;
      w32 b p.size;
      addr b p.gp_value;
      wstr b p.module_name;
      flag b p.exported;
      flag b p.uses_gp;
      flag b p.gp_setup_at_entry)
    t.procs;
  w32 b (List.length t.symbols);
  List.iter
    (fun (name, a) ->
      wstr b name;
      addr b a)
    t.symbols;
  addr b t.heap_base;
  addr b t.gat_base;
  w32 b t.gat_bytes;
  w32 b t.ngroups;
  Buffer.contents b

let decode s =
  let open Objfile.Obj_io.Wire in
  let addr r = Int64.to_int (r64 r) in
  let flag r =
    match r8 r with
    | 0 -> false
    | 1 -> true
    | n -> malformed (Printf.sprintf "bad flag byte %d" n)
  in
  (* a record's fields evaluate in no fixed order: bind each in turn *)
  let proc r =
    let name = rstr r in
    let entry = addr r in
    let size = r32 r in
    let gp_value = addr r in
    let module_name = rstr r in
    let exported = flag r in
    let uses_gp = flag r in
    let gp_setup_at_entry = flag r in
    { name; entry; size; gp_value; module_name; exported; uses_gp;
      gp_setup_at_entry }
  in
  let symbol r =
    let name = rstr r in
    (name, addr r)
  in
  read ~magic
    (fun r ->
      let text_base = addr r in
      let text = rbytes r in
      let data_base = addr r in
      let data = rbytes r in
      let entry = addr r in
      let procs = Array.init (rcount r "procedure") (fun _ -> proc r) in
      let symbols = List.init (rcount r "symbol") (fun _ -> symbol r) in
      let heap_base = addr r in
      let gat_base = addr r in
      let gat_bytes = r32 r in
      let ngroups = r32 r in
      { text_base; text; data_base; data; entry; procs; symbols; heap_base;
        gat_base; gat_bytes; ngroups })
    (Bytes.unsafe_of_string s)
