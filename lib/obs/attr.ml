module I = Isa.Insn
module R = Isa.Reg

type category = Addr_load | Gp_setup | Pv_load | Other

let all_categories = [ Addr_load; Gp_setup; Pv_load; Other ]

let category_name = function
  | Addr_load -> "addr_load"
  | Gp_setup -> "gp_setup"
  | Pv_load -> "pv_load"
  | Other -> "other"

let category_index = function
  | Addr_load -> 0
  | Gp_setup -> 1
  | Pv_load -> 2
  | Other -> 3

let ncategories = 4

(* --- PC -> procedure --- *)

type pcmap = Linker.Image.proc_info array  (* sorted by entry *)

let pcmap (image : Linker.Image.t) =
  let a = Array.copy image.Linker.Image.procs in
  Array.sort
    (fun (x : Linker.Image.proc_info) y -> compare x.entry y.entry)
    a;
  a

let find_proc (map : pcmap) pc =
  let rec bs lo hi =
    if lo > hi then None
    else
      let mid = (lo + hi) / 2 in
      let p = map.(mid) in
      if pc < p.Linker.Image.entry then bs lo (mid - 1)
      else if pc >= p.Linker.Image.entry + p.Linker.Image.size then
        bs (mid + 1) hi
      else Some p
  in
  bs 0 (Array.length map - 1)

(* --- classification --- *)

let classify ~gat_base ~gat_bytes ~gp_value insn =
  if List.exists (R.equal R.gp) (I.defs insn) then Gp_setup
  else
    match insn with
    | I.Ldq { ra; _ } when R.equal ra R.pv -> Pv_load
    | I.Ldq { rb; disp; _ } when R.equal rb R.gp -> (
        match gp_value with
        | Some gp ->
            let target = gp + disp in
            if target >= gat_base && target < gat_base + gat_bytes then
              Addr_load
            else Other  (* GP-relative data access: already optimized *)
        | None -> Addr_load)
    | _ -> Other

(* --- profiles --- *)

type bucket = { mutable b_insns : int; mutable b_cycles : int }

type proc_profile = {
  pname : string;
  mutable p_insns : int;
  mutable p_cycles : int;
  mutable p_imiss : int;
  mutable p_dmiss : int;
  p_buckets : bucket array;
}

type t = {
  procs : proc_profile list;
  totals : proc_profile;
  cpu : Machine.Cpu.stats;
  output : string;
  exit_code : int64;
}

let fresh_profile pname =
  { pname;
    p_insns = 0;
    p_cycles = 0;
    p_imiss = 0;
    p_dmiss = 0;
    p_buckets = Array.init ncategories (fun _ -> { b_insns = 0; b_cycles = 0 }) }

let bucket p cat = p.p_buckets.(category_index cat)
let proc t name = List.find_opt (fun p -> String.equal p.pname name) t.procs

(* One profiled fused run, then each executed instruction is classified
   once and its counters land on its procedure and category. *)
let run_decoded ?config (d : Machine.Decoded.t) =
  let prof = Machine.Blocks.profile d in
  match Machine.Cpu.run_decoded ?config ~profile:prof d with
  | Error e -> Error e
  | Ok o ->
      let image = Machine.Decoded.image d in
      let map = pcmap image in
      let gat_base = image.Linker.Image.gat_base in
      let gat_bytes = image.Linker.Image.gat_bytes in
      let by_name : (string, proc_profile) Hashtbl.t = Hashtbl.create 64 in
      let get name =
        match Hashtbl.find_opt by_name name with
        | Some p -> p
        | None ->
            let p = fresh_profile name in
            Hashtbl.add by_name name p;
            p
      in
      let totals = fresh_profile "TOTAL" in
      let add p cat ~insns ~cycles ~imiss ~dmiss =
        p.p_insns <- p.p_insns + insns;
        p.p_cycles <- p.p_cycles + cycles;
        p.p_imiss <- p.p_imiss + imiss;
        p.p_dmiss <- p.p_dmiss + dmiss;
        let b = bucket p cat in
        b.b_insns <- b.b_insns + insns;
        b.b_cycles <- b.b_cycles + cycles
      in
      Array.iteri
        (fun i insns ->
          if insns > 0 then begin
            let info = find_proc map (image.Linker.Image.text_base + (4 * i)) in
            let gp_value =
              Option.map (fun (p : Linker.Image.proc_info) -> p.gp_value) info
            in
            let cat =
              classify ~gat_base ~gat_bytes ~gp_value d.Machine.Decoded.insns.(i)
            in
            let p =
              get (match info with Some p -> p.Linker.Image.name | None -> "?")
            in
            let cycles = prof.Machine.Blocks.cycles.(i)
            and imiss = prof.Machine.Blocks.imisses.(i)
            and dmiss = prof.Machine.Blocks.dmisses.(i) in
            add p cat ~insns ~cycles ~imiss ~dmiss;
            add totals cat ~insns ~cycles ~imiss ~dmiss
          end)
        prof.Machine.Blocks.retired;
      let procs =
        Hashtbl.fold (fun _ p acc -> p :: acc) by_name []
        |> List.sort (fun a b -> compare (b.p_cycles, b.pname) (a.p_cycles, a.pname))
      in
      Ok
        { procs;
          totals;
          cpu = o.Machine.Cpu.stats;
          output = o.Machine.Cpu.output;
          exit_code = o.Machine.Cpu.exit_code }

let run ?config (image : Linker.Image.t) =
  match Machine.Cpu.decode image with
  | Error e -> Error e
  | Ok d -> run_decoded ?config d

let pp ?(top = 12) ppf t =
  let row ppf p =
    Format.fprintf ppf "%-16s %12d %11d %9d %9d %9d %9d %7d %7d" p.pname
      p.p_cycles p.p_insns
      (bucket p Addr_load).b_cycles (bucket p Gp_setup).b_cycles
      (bucket p Pv_load).b_cycles (bucket p Other).b_cycles p.p_imiss
      p.p_dmiss
  in
  Format.fprintf ppf "@[<v>%-16s %12s %11s %9s %9s %9s %9s %7s %7s@,"
    "procedure" "cycles" "insns" "addr" "gp-setup" "pv-load" "other"
    "i$miss" "d$miss";
  List.iteri
    (fun i p -> if i < top then Format.fprintf ppf "%a@," row p)
    t.procs;
  if List.length t.procs > top then
    Format.fprintf ppf "  (%d more procedures)@," (List.length t.procs - top);
  Format.fprintf ppf "%a@]" row t.totals

let profile_json p =
  Json.Obj
    [ ("name", Json.String p.pname);
      ("insns", Json.Int p.p_insns);
      ("cycles", Json.Int p.p_cycles);
      ("icache_misses", Json.Int p.p_imiss);
      ("dcache_misses", Json.Int p.p_dmiss);
      ( "categories",
        Json.Obj
          (List.map
             (fun c ->
               let b = bucket p c in
               ( category_name c,
                 Json.Obj
                   [ ("insns", Json.Int b.b_insns);
                     ("cycles", Json.Int b.b_cycles) ] ))
             all_categories) ) ]

let to_json t =
  Json.Obj
    [ ("total", profile_json t.totals);
      ("procs", Json.List (List.map profile_json t.procs)) ]
