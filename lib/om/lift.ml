module I = Isa.Insn
module S = Symbolic

exception Lift_error of string

let fail fmt = Format.kasprintf (fun m -> raise (Lift_error m)) fmt

(* --- the module-local symbolic form ---

   Lifting splits in two so the expensive half can be cached across
   links (the artifact store keys it by the module's content digest):

   - [lift_module] sees ONE compilation unit and nothing else: it
     decodes the text, checks procedure coverage and folds the
     relocations into per-instruction symbolic operations. Symbols stay
     by name and labels are module-local, so the result is independent
     of whatever other modules end up in the program.
   - [instantiate] stitches cached module lifts into a program against a
     resolved world: names resolve to targets, module-local labels and
     instruction indices become program-wide labels and node ids.

   Everything in [module_sym] is plain immutable data (no closures, no
   world references), so [Marshal] round-trips it for the store. *)

type mkey =
  | Maddr of { symbol : string; addend : int }
  | Mconst of int64

type manchor = Mentry | Mlabel of int

type minsn =
  | Mraw of I.t
  | Mgatload of { ra : Isa.Reg.t; key : mkey }
  | Muse of { insn : I.t; load : int; jsr : bool }  (* instruction index *)
  | Mgpsetup_hi of { base : Isa.Reg.t; anchor : manchor; lo : int }
  | Mgpsetup_lo
  | Mbranch of { insn : I.t; target : int }         (* module-local label *)
  | Mgprel of { insn : I.t; symbol : string; addend : int }

type mproc = {
  mp_name : string;
  mp_offset : int;        (* byte offset of the entry in module text *)
  mp_first : int;         (* first instruction index *)
  mp_count : int;
  mp_entry_label : int;
}

type module_sym = {
  ms_module : string;
  ms_insns : minsn array;       (* one per text instruction, in order *)
  ms_nlabels : int;
  ms_label_insn : int array;    (* label id -> instruction index *)
  ms_procs : mproc array;       (* in text order *)
}

(* --- phase 1: per-module lift --- *)

let lift_module (u : Objfile.Cunit.t) =
  try
    let insns = Objfile.Cunit.insns u in
    let n = Array.length insns in
    let text_len = Bytes.length u.Objfile.Cunit.text in
    (* labels are addressed by text offset, allocated in first-use order *)
    let label_table : (int, int) Hashtbl.t = Hashtbl.create 64 in
    let label_offsets = ref [] in
    let nlabels = ref 0 in
    let label_at off =
      match Hashtbl.find_opt label_table off with
      | Some l -> l
      | None ->
          let l = !nlabels in
          incr nlabels;
          Hashtbl.replace label_table off l;
          label_offsets := off :: !label_offsets;
          l
    in
    let minsns = Array.map (fun i -> Mraw i) insns in
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
    (* branches become label-relative, in text order (per procedure, as
       the procedures are contiguous) *)
    let procs =
      List.map
        (fun (name, (d : Objfile.Symbol.proc_desc)) ->
          let first = d.Objfile.Symbol.offset / 4 in
          let count = d.Objfile.Symbol.size / 4 in
          for k = 0 to count - 1 do
            let off = d.Objfile.Symbol.offset + (4 * k) in
            match insns.(first + k) with
            | (I.Br { disp; _ } | I.Bsr { disp; _ } | I.Bcond { disp; _ }) as
              insn ->
                let target_off = off + 4 + (4 * disp) in
                if target_off < 0 || target_off > text_len then
                  fail "%s+%#x: branch target %#x outside module text"
                    u.Objfile.Cunit.name off target_off;
                minsns.(first + k) <-
                  Mbranch { insn; target = label_at target_off }
            | _ -> ()
          done;
          { mp_name = name;
            mp_offset = d.Objfile.Symbol.offset;
            mp_first = first;
            mp_count = count;
            mp_entry_label = label_at d.Objfile.Symbol.offset })
        module_procs
    in
    let proc_containing off =
      List.find_opt
        (fun p -> p.mp_offset <= off && off < p.mp_offset + (4 * p.mp_count))
        procs
    in
    let index_of what off =
      if off < 0 || off mod 4 <> 0 || off / 4 >= n then
        fail "%s+%#x: %s" u.Objfile.Cunit.name off what
      else off / 4
    in
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
              let key =
                match entry with
                | Objfile.Gat_entry.Addr { symbol; addend } ->
                    Maddr { symbol; addend }
                | Objfile.Gat_entry.Const c -> Mconst c
              in
              match minsns.(at) with
              | Mraw (I.Ldq { ra; _ }) -> minsns.(at) <- Mgatload { ra; key }
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
              match minsns.(at) with
              | Mraw insn -> minsns.(at) <- Muse { insn; load; jsr }
              | _ ->
                  fail "%s+%#x: LITUSE on a non-plain instruction"
                    u.Objfile.Cunit.name r.offset)
          | Objfile.Reloc.Gpdisp { anchor; pair } -> (
              let lo = index_of "dangling GPDISP pair" pair in
              (* is the anchor this instruction's enclosing procedure
                 entry? *)
              let is_entry =
                match proc_containing r.offset with
                | Some p -> p.mp_offset = anchor
                | None -> false
              in
              let a = if is_entry then Mentry else Mlabel (label_at anchor) in
              match (minsns.(at), minsns.(lo)) with
              | Mraw (I.Ldah { rb; _ }), Mraw (I.Lda _) ->
                  minsns.(at) <- Mgpsetup_hi { base = rb; anchor = a; lo };
                  minsns.(lo) <- Mgpsetup_lo
              | _ ->
                  fail "%s+%#x: GPDISP not on an ldah/lda pair"
                    u.Objfile.Cunit.name r.offset)
          | Objfile.Reloc.Refquad _ ->
              fail "%s+%#x: REFQUAD in text" u.Objfile.Cunit.name r.offset
          | Objfile.Reloc.Gprel16 { symbol; addend } -> (
              (* optimistically-compiled direct GP-relative access *)
              match minsns.(at) with
              | Mraw
                  (( I.Lda { rb; _ } | I.Ldq { rb; _ } | I.Stq { rb; _ } ) as
                   insn)
                when Isa.Reg.equal rb Isa.Reg.gp ->
                  minsns.(at) <- Mgprel { insn; symbol; addend }
              | _ ->
                  fail "%s+%#x: GPREL16 not on a gp-based memory op"
                    u.Objfile.Cunit.name r.offset)
        end)
      u.Objfile.Cunit.relocs;
    (* every label must land on an instruction *)
    let label_insn = Array.make !nlabels 0 in
    List.iter
      (fun off ->
        let l = Hashtbl.find label_table off in
        if off < 0 || off mod 4 <> 0 || off / 4 >= n then
          fail "label target %#x in module %s hits no instruction" off
            u.Objfile.Cunit.name
        else label_insn.(l) <- off / 4)
      !label_offsets;
    Ok
      { ms_module = u.Objfile.Cunit.name;
        ms_insns = minsns;
        ms_nlabels = !nlabels;
        ms_label_insn = label_insn;
        ms_procs = Array.of_list procs }
  with
  | Lift_error m -> Error m
  | Invalid_argument m -> Error m

(* --- phase 2: instantiation against a resolved world --- *)

(* [msyms] holds one lift per world module, in order ([run] builds it). *)
let instantiate (world : Linker.Resolve.t) (msyms : module_sym array) =
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
    let all_procs = ref [] in
    Array.iteri
      (fun m ms ->
        let u = world.Linker.Resolve.modules.(m) in
        let n = Array.length ms.ms_insns in
        if
          (not (String.equal ms.ms_module u.Objfile.Cunit.name))
          || n * 4 <> Bytes.length u.Objfile.Cunit.text
        then
          fail "instantiate: lifted module %s does not match world module %s"
            ms.ms_module u.Objfile.Cunit.name;
        let glabel = Array.make (max 1 ms.ms_nlabels) 0 in
        for l = 0 to ms.ms_nlabels - 1 do
          glabel.(l) <- S.fresh_label program
        done;
        let key_of = function
          | Maddr { symbol; addend } ->
              S.Paddr (Linker.Resolve.resolve_exn world m symbol, addend)
          | Mconst c -> S.Pconst c
        in
        (* nodes are created in text order, so the node id of instruction
           [k] is [first_nid + k] and intra-module back-links need no
           second pass *)
        let first_nid = program.S.next_node in
        let nodes = Array.make n None in
        for k = 0 to n - 1 do
          let sinsn =
            match ms.ms_insns.(k) with
            | Mraw insn -> S.Raw insn
            | Mgatload { ra; key } -> S.Gatload { ra; key = key_of key }
            | Muse { insn; load; jsr } ->
                S.Use { insn; load_id = first_nid + load; jsr }
            | Mgpsetup_hi { base; anchor; lo } ->
                let anchor =
                  match anchor with
                  | Mentry -> S.Aentry
                  | Mlabel l -> S.Alocal glabel.(l)
                in
                S.Gpsetup_hi { base; anchor; lo_id = first_nid + lo }
            | Mgpsetup_lo -> S.Gpsetup_lo
            | Mbranch { insn; target } ->
                S.Branch { insn; target = glabel.(target) }
            | Mgprel { insn; symbol; addend } ->
                S.Gprel
                  { insn;
                    target = Linker.Resolve.resolve_exn world m symbol;
                    addend;
                    part = S.Pfull }
          in
          nodes.(k) <- Some (S.make_node program sinsn)
        done;
        let node k = Option.get nodes.(k) in
        for l = 0 to ms.ms_nlabels - 1 do
          let nd = node ms.ms_label_insn.(l) in
          nd.S.labels <- glabel.(l) :: nd.S.labels
        done;
        Array.iter
          (fun mp ->
            let sp_index =
              match Hashtbl.find_opt proc_idx (m, mp.mp_offset) with
              | Some i -> i
              | None ->
                  fail "instantiate: procedure %s of %s unknown to the world"
                    mp.mp_name u.Objfile.Cunit.name
            in
            let body =
              List.init mp.mp_count (fun k -> node (mp.mp_first + k))
            in
            all_procs :=
              { S.sp_index;
                sp_name = mp.mp_name;
                sp_module = m;
                entry_label = glabel.(mp.mp_entry_label);
                body;
                sp_gp_group = 0 }
              :: !all_procs)
          ms.ms_procs)
      msyms;
    program.S.procs <- Array.of_list (List.rev !all_procs);
    Ok program
  with
  | Lift_error m -> Error m
  | Invalid_argument m -> Error m

(* --- the whole program --- *)

let run ?(lift = lift_module) (world : Linker.Resolve.t) =
  let modules = world.Linker.Resolve.modules in
  let rec go m acc =
    if m = Array.length modules then Ok (Array.of_list (List.rev acc))
    else
      match lift modules.(m) with
      | Ok ms -> go (m + 1) (ms :: acc)
      | Error e -> Error e
  in
  match go 0 [] with
  | Error e -> Error e
  | Ok msyms ->
      Obs.Trace.span "instantiate" (fun () -> instantiate world msyms)
