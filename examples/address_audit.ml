(* Address audit: use the optimizer's symbolic form as a *library* to
   inspect how a program computes global addresses — every GAT load, its
   LITUSE consumers, every call site and its bookkeeping code. This is the
   kind of whole-program visibility the paper argues only the linker has.

     dune exec examples/address_audit.exe *)

module S = Om.Symbolic

let src = {|
var small = 3;
var table[2000];          // too big for the sdata threshold
var fptr = 0;

func work(x) { return x * small; }

func main() {
  fptr = &work;
  var i = 0;
  while (i < 10) {
    table[i] = fptr(i) + work(i);
    i = i + 1;
  }
  io_putint(table[9]);
  return 0;
}
|}

let () =
  let unit =
    Minic.Driver.compile_module ~prelude:Runtime.prelude ~name:"audit.o" src
  in
  let world =
    Result.get_ok (Linker.Resolve.run [ unit ] ~archives:[ Runtime.libstd () ])
  in
  let program = Result.get_ok (Om.Lift.run world) in
  let als = Om.Analysis.run program (S.index program) in

  print_endline "== address loads, per procedure ==";
  Array.iter
    (fun (proc : S.proc) ->
      let loads =
        List.filter_map
          (fun (n : S.node) ->
            match n.S.insn with
            | S.Gatload { key; _ } -> Some (n, key)
            | _ -> None)
          (Array.to_list proc.S.body)
      in
      if loads <> [] then begin
        Printf.printf "%s (%d instructions):\n" proc.S.sp_name
          (Array.length proc.S.body);
        List.iter
          (fun ((n : S.node), key) ->
            let target =
              match key with
              | S.Paddr (t, 0) -> "&" ^ Linker.Resolve.target_name world t
              | S.Paddr (t, a) ->
                  Printf.sprintf "&%s+%d" (Linker.Resolve.target_name world t) a
              | S.Pconst c -> Printf.sprintf "constant %#Lx" c
            in
            let status =
              match Hashtbl.find_opt als.Om.Analysis.gatload_status n.S.nid with
              | Some (Om.Analysis.All_marked us) ->
                  Printf.sprintf "%d linked use(s), foldable" (List.length us)
              | Some Om.Analysis.Escapes -> "value escapes (convert only)"
              | None -> "not analyzed"
            in
            Printf.printf "  n%-4d load %-22s %s\n" n.S.nid target status)
          loads
      end)
    program.S.procs;

  print_endline "\n== call sites ==";
  List.iter
    (fun (cs : Om.Analysis.callsite) ->
      let caller = program.S.procs.(cs.cs_proc).S.sp_name in
      let kind =
        match cs.cs_kind with
        | Om.Analysis.Direct { callee; via = `Jsr _ } ->
            Printf.sprintf "jsr via GAT -> %s"
              world.Linker.Resolve.procs.(callee).p_name
        | Om.Analysis.Direct { callee; via = `Bsr } ->
            Printf.sprintf "bsr (compile-time optimized) -> %s"
              world.Linker.Resolve.procs.(callee).p_name
        | Om.Analysis.Indirect -> "indirect (procedure variable)"
      in
      Printf.printf "  in %-12s %-42s gp-reset: %s\n" caller kind
        (if Option.is_some cs.cs_reset then "present" else "none"))
    als.Om.Analysis.callsites;

  print_endline "\n== address-taken procedures ==";
  Array.iteri
    (fun i taken ->
      if taken then
        Printf.printf "  %s\n" world.Linker.Resolve.procs.(i).p_name)
    als.Om.Analysis.address_taken;

  (* now watch what OM-full makes of it *)
  print_endline "\n== after OM-full ==";
  match Om.optimize_resolved Om.Full world with
  | Ok { Om.stats; _ } -> Format.printf "%a@." Om.Stats.pp stats
  | Error m -> print_endline ("failed: " ^ m)
