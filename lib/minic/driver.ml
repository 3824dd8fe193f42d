type opt_level = O0 | O2

exception Error of string

let fail fmt = Format.kasprintf (fun m -> raise (Error m)) fmt

let parse_and_check ?(prelude = []) source =
  let prog =
    match Parser.parse_result source with
    | Ok p -> prelude @ p
    | Error m -> fail "parse error: %s" m
  in
  match Check.run prog with
  | Ok env -> (prog, env)
  | Error errs ->
      fail "%s"
        (String.concat "; "
           (List.map (fun e -> Format.asprintf "%a" Check.pp_error e) errs))

(* Size threshold below which an initialized global goes to .sdata. *)
let sdata_threshold = 64

let emit_globals masm (env : Check.env) (strings : (string * string) list) =
  List.iter
    (fun (g : Check.global) ->
      if g.Check.gextern then ()
      else
      let size_bytes =
        match g.gkind with
        | Check.Gscalar -> 8
        | Check.Garray n -> 8 * n
      in
      let init =
        match g.ginit with
        | None -> None
        | Some (Ast.Scalar_init v) -> Some [| v |]
        | Some (Ast.Array_init vs) -> Some (Array.of_list vs)
      in
      match init with
      | Some init ->
          let section = if size_bytes <= sdata_threshold then `Sdata else `Data in
          Masm.add_global masm ~name:g.gname ~static:g.gstatic ~section
            ~size_bytes ~init ()
      | None ->
          if g.gstatic then
            let section = if size_bytes <= sdata_threshold then `Sbss else `Bss in
            Masm.add_global masm ~name:g.gname ~static:true ~section
              ~size_bytes ()
          else
            (* uninitialized externally-visible data: a common block, whose
               placement is up to the linker (or the optimizer) *)
            Masm.add_common masm ~name:g.gname ~size_bytes)
    env.Check.globals;
  List.iter
    (fun (sym, contents) ->
      let n = String.length contents in
      let init =
        Array.init (n + 1) (fun i ->
            if i < n then Int64.of_int (Char.code contents.[i]) else 0L)
      in
      Masm.add_global masm ~name:sym ~static:true ~section:`Data
        ~size_bytes:(8 * (n + 1)) ~init ())
    strings

let compile_funcs ~opt ~optimistic ~name ~local_callee_names
    (modir : Irgen.modir) =
  let masm = Masm.create name in
  let local_callees = Hashtbl.create 8 in
  List.iter
    (fun fname ->
      Hashtbl.replace local_callees fname
        { Codegen.lc_postgp = Masm.fresh_label masm })
    local_callee_names;
  let optimistic_pred =
    if not optimistic then fun _ -> false
    else
      (* the -G bet applies to scalar globals, including extern scalars *)
      fun sym ->
        match Check.find_global modir.Irgen.env sym with
        | Some { gkind = Check.Gscalar; _ } -> true
        | _ -> false
  in
  let ctx =
    { Codegen.masm;
      o2 = (opt = O2);
      local_callees;
      optimistic = optimistic_pred }
  in
  List.iter
    (fun (fn : Ir.func) ->
      (match opt with O2 -> Opt.run fn | O0 -> Opt.lower_div_only fn);
      (match Ir.validate fn with
      | Ok () -> ()
      | Error m -> fail "internal: invalid IR after optimization: %s" m);
      let alloc = Regalloc.allocate fn in
      Codegen.gen_func ctx fn alloc)
    modir.Irgen.funcs;
  emit_globals masm modir.Irgen.env modir.Irgen.strings;
  Masm.assemble masm

(* Procedures eligible for compile-time call optimization in a unit:
   [static] procedures (unexported by construction), plus — in merged
   whole-program mode — every defined procedure except [main]. *)
let local_callee_names ~merged (modir : Irgen.modir) =
  List.filter_map
    (fun (fn : Ir.func) ->
      if fn.Ir.fstatic then Some fn.Ir.fname
      else if merged && not (String.equal fn.Ir.fname "main") then
        Some fn.Ir.fname
      else None)
    modir.Irgen.funcs

let compile_module ?(opt = O2) ?(optimistic = false) ?prelude ~name source =
  let prog, env = parse_and_check ?prelude source in
  let modir = Irgen.lower env prog in
  compile_funcs ~opt ~optimistic ~name
    ~local_callee_names:(local_callee_names ~merged:false modir)
    modir

let compile_merged ?(opt = O2) ?(optimistic = false) ?(inline = true) ?prelude
    ~name sources =
  let source = String.concat "\n" (List.map snd sources) in
  let prog, env = parse_and_check ?prelude source in
  let modir = Irgen.lower env prog in
  if inline && opt = O2 then Inline.run modir.Irgen.funcs;
  compile_funcs ~opt ~optimistic ~name
    ~local_callee_names:(local_callee_names ~merged:true modir)
    modir
