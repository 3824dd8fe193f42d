type proc_rec = {
  p_module : int;
  p_name : string;
  p_offset : int;
  p_size : int;
  p_exported : bool;
  p_uses_gp : bool;
  p_gp_at_entry : bool;
}

type placement =
  | In_section of { s_module : int; section : Objfile.Section.t; offset : int }
  | Common

type obj_rec = { o_name : string; o_placement : placement; o_size : int }

type target = Tproc of int | Tobj of int

type t = {
  modules : Objfile.Cunit.t array;
  procs : proc_rec array;
  objs : obj_rec array;
  entry_proc : int;
  locals : (string, target) Hashtbl.t array;  (* per-module local scopes *)
  globals : (string, target) Hashtbl.t;
}

let build_scopes (world : t) =
  let locals =
    Array.map (fun _ -> Hashtbl.create 8) world.modules
  in
  let globals = Hashtbl.create 64 in
  let add m (binding : Objfile.Symbol.binding) name tgt =
    match binding with
    | Objfile.Symbol.Local -> Hashtbl.replace locals.(m) name tgt
    | Objfile.Symbol.Global -> Hashtbl.replace globals name tgt
  in
  Array.iteri
    (fun i (p : proc_rec) ->
      let sym =
        Option.get (Objfile.Cunit.find_symbol world.modules.(p.p_module) p.p_name)
      in
      add p.p_module sym.Objfile.Symbol.binding p.p_name (Tproc i))
    world.procs;
  Array.iteri
    (fun i (o : obj_rec) ->
      match o.o_placement with
      | Common -> Hashtbl.replace globals o.o_name (Tobj i)
      | In_section { s_module; _ } ->
          let sym =
            Option.get (Objfile.Cunit.find_symbol world.modules.(s_module) o.o_name)
          in
          add s_module sym.Objfile.Symbol.binding o.o_name (Tobj i))
    world.objs;
  (locals, globals)

let resolve world m name =
  match Hashtbl.find_opt world.locals.(m) name with
  | Some t -> Some t
  | None -> Hashtbl.find_opt world.globals name

let resolve_exn world m name =
  match resolve world m name with
  | Some t -> t
  | None ->
      invalid_arg
        (Printf.sprintf "Resolve: unresolved symbol %s in %s" name
           world.modules.(m).Objfile.Cunit.name)

let target_name world = function
  | Tproc i -> world.procs.(i).p_name
  | Tobj i -> world.objs.(i).o_name

let proc_index_by_name world name =
  match Hashtbl.find_opt world.globals name with
  | Some (Tproc i) -> Some i
  | _ -> None

let run ?(entry = "__start") units ~archives =
  let ( let* ) = Result.bind in
  let fail fmt = Format.kasprintf (fun m -> Error m) fmt in
  (* archive selection *)
  let defined = Hashtbl.create 64 in
  List.iter
    (fun u ->
      List.iter (fun d -> Hashtbl.replace defined d ())
        (Objfile.Cunit.defined_symbols u))
    units;
  let undefined u =
    List.filter (fun n -> not (Hashtbl.mem defined n))
      (Objfile.Cunit.undefined_symbols u)
  in
  let modules =
    List.fold_left
      (fun mods archive ->
        let wanted = List.concat_map undefined mods in
        let wanted = if Hashtbl.mem defined entry then wanted else entry :: wanted in
        let pulled = Objfile.Archive.select archive ~undefined:wanted in
        List.iter
          (fun u ->
            List.iter (fun d -> Hashtbl.replace defined d ())
              (Objfile.Cunit.defined_symbols u))
          pulled;
        mods @ pulled)
      units archives
  in
  let modules = Array.of_list modules in
  (* module names must be distinct for diagnostics *)
  let* () =
    let seen = Hashtbl.create 16 in
    Array.fold_left
      (fun acc (u : Objfile.Cunit.t) ->
        let* () = acc in
        if Hashtbl.mem seen u.name then fail "duplicate module name %s" u.name
        else (Hashtbl.replace seen u.name (); Ok ()))
      (Ok ()) modules
  in
  (* collect procedures and objects; commons merge by max size *)
  let procs = ref [] and nprocs = ref 0 in
  let objs = ref [] and nobjs = ref 0 in
  let commons : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let common_order = ref [] in
  let strong : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let* () =
    Array.to_seqi modules
    |> Seq.fold_left
         (fun acc (m, (u : Objfile.Cunit.t)) ->
           let* () = acc in
           List.fold_left
             (fun acc (s : Objfile.Symbol.t) ->
               let* () = acc in
               let claim_strong () =
                 match s.binding with
                 | Objfile.Symbol.Local -> Ok ()
                 | Objfile.Symbol.Global -> (
                     match Hashtbl.find_opt strong s.name with
                     | Some prev ->
                         fail "duplicate definition of %s (in %s and %s)"
                           s.name prev u.name
                     | None ->
                         Hashtbl.replace strong s.name u.name;
                         Ok ())
               in
               match s.def with
               | Objfile.Symbol.Proc p ->
                   let* () = claim_strong () in
                   procs :=
                     { p_module = m;
                       p_name = s.name;
                       p_offset = p.offset;
                       p_size = p.size;
                       p_exported = p.exported;
                       p_uses_gp = p.uses_gp;
                       p_gp_at_entry = p.gp_setup_at_entry }
                     :: !procs;
                   incr nprocs;
                   Ok ()
               | Objfile.Symbol.Object o ->
                   let* () = claim_strong () in
                   objs :=
                     { o_name = s.name;
                       o_placement =
                         In_section
                           { s_module = m; section = o.section; offset = o.offset };
                       o_size = o.size }
                     :: !objs;
                   incr nobjs;
                   Ok ()
               | Objfile.Symbol.Common c ->
                   (match Hashtbl.find_opt commons s.name with
                   | None ->
                       common_order := s.name :: !common_order;
                       Hashtbl.replace commons s.name c.size
                   | Some prev ->
                       Hashtbl.replace commons s.name (max prev c.size));
                   Ok ())
             (Ok ()) u.symbols)
         (Ok ())
  in
  (* a common is only a real object if no strong definition exists;
     first-appearance order keeps layout deterministic *)
  List.iter
    (fun name ->
      if not (Hashtbl.mem strong name) then begin
        objs :=
          { o_name = name;
            o_placement = Common;
            o_size = Hashtbl.find commons name }
          :: !objs;
        incr nobjs
      end)
    (List.rev !common_order);
  let world =
    let base =
      { modules;
        (* text order: the compiler lists a module's procedures by
           offset, but an object need not *)
        procs =
          Array.of_list
            (List.stable_sort
               (fun (a : proc_rec) b ->
                 match Int.compare a.p_module b.p_module with
                 | 0 -> Int.compare a.p_offset b.p_offset
                 | c -> c)
               (List.rev !procs));
        objs = Array.of_list (List.rev !objs);
        entry_proc = 0;
        locals = [||];
        globals = Hashtbl.create 0 }
    in
    let locals, globals = build_scopes base in
    { base with locals; globals }
  in
  (* verify every reference resolves *)
  let* () =
    Array.to_seqi modules
    |> Seq.fold_left
         (fun acc (m, (u : Objfile.Cunit.t)) ->
           let* () = acc in
           List.fold_left
             (fun acc name ->
               let* () = acc in
               match resolve world m name with
               | Some _ -> Ok ()
               | None -> fail "undefined symbol %s (referenced from %s)" name u.name)
             (Ok ())
             (Objfile.Cunit.referenced_symbols u))
         (Ok ())
  in
  match proc_index_by_name world entry with
  | Some e -> Ok { world with entry_proc = e }
  | None -> fail "entry procedure %s is not defined" entry
