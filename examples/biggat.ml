(* Big-GAT demo: the reason the conventions exist at all.

   A program whose global address table overflows one GP window needs
   multiple GATs, and procedures in different GAT groups really do need
   the full calling convention: each procedure must establish its own GP,
   and callers must reset theirs after the call. This example builds such
   a program (by brute force: thousands of distinct globals spread over
   many modules), links it with a deliberately small group capacity, and
   shows that (a) it still runs correctly everywhere and (b) OM keeps the
   cross-group bookkeeping while still removing the same-group kind.

     dune exec examples/biggat.exe *)

let module_src m nglobals =
  let buf = Buffer.create 4096 in
  for g = 0 to nglobals - 1 do
    Buffer.add_string buf (Printf.sprintf "var g_%d_%d = %d;\n" m g ((m * 1000) + g))
  done;
  Buffer.add_string buf (Printf.sprintf "func sum_%d() {\n  var s = 0;\n" m);
  for g = 0 to nglobals - 1 do
    Buffer.add_string buf (Printf.sprintf "  s = s + g_%d_%d;\n" m g)
  done;
  Buffer.add_string buf "  return s;\n}\n";
  Buffer.contents buf

let nmodules = 6
let globals_per_module = 40

let main_src =
  let buf = Buffer.create 1024 in
  for m = 0 to nmodules - 1 do
    Buffer.add_string buf (Printf.sprintf "extern func sum_%d();\n" m)
  done;
  Buffer.add_string buf "func main() {\n  var total = 0;\n";
  for m = 0 to nmodules - 1 do
    Buffer.add_string buf (Printf.sprintf "  total = total + sum_%d();\n" m)
  done;
  Buffer.add_string buf "  io_put_labeled(\"total\", total);\n  return 0;\n}\n";
  Buffer.contents buf

let () =
  let units =
    List.init nmodules (fun m ->
        Minic.Driver.compile_module ~prelude:Runtime.prelude
          ~name:(Printf.sprintf "mod%d.o" m)
          (module_src m globals_per_module))
    @ [ Minic.Driver.compile_module ~prelude:Runtime.prelude ~name:"main.o"
          main_src ]
  in
  let archives = [ Runtime.libstd () ] in
  let world = Result.get_ok (Linker.Resolve.run units ~archives) in

  (* force tiny GAT groups so the program needs several GPs *)
  let capacity = 64 in
  let gat = Linker.Gat.merge ~capacity world in
  Printf.printf "modules: %d   merged GAT slots: %d   groups of <=%d: %d\n"
    (Array.length world.Linker.Resolve.modules)
    (Array.length gat.Linker.Gat.slots)
    capacity gat.Linker.Gat.ngroups;
  Array.iteri
    (fun m g ->
      if g > 0 && gat.Linker.Gat.group_of_module.(m - 1) <> g then
        Printf.printf "  group %d starts at module %s\n" g
          world.Linker.Resolve.modules.(m).Objfile.Cunit.name)
    gat.Linker.Gat.group_of_module;

  (* multi-group standard link runs fine *)
  (match Linker.Link.link_resolved ~gat_capacity:capacity world with
  | Ok image -> (
      Printf.printf "standard multi-GAT link: %d groups\n"
        image.Linker.Image.ngroups;
      match Machine.Cpu.run image with
      | Ok o -> Printf.printf "  runs: %s" o.Machine.Cpu.output
      | Error e -> Format.printf "  FAULT %a@." Machine.Cpu.pp_error e)
  | Error m -> Printf.printf "link failed: %s\n" m);

  (* under the default capacity everything merges into one GAT and OM-full
     erases nearly all of the bookkeeping *)
  match Om.optimize_resolved Om.Full world with
  | Ok { Om.image; stats; decoded } -> (
      Printf.printf
        "OM-full (default capacity): groups=%d, resets %d -> %d, GAT %d -> %d bytes\n"
        image.Linker.Image.ngroups stats.Om.Stats.calls_reset_before
        stats.Om.Stats.calls_reset_after stats.Om.Stats.gat_bytes_before
        stats.Om.Stats.gat_bytes_after;
      match Machine.Cpu.run_decoded decoded with
      | Ok o -> Printf.printf "  runs: %s" o.Machine.Cpu.output
      | Error e -> Format.printf "  FAULT %a@." Machine.Cpu.pp_error e)
  | Error m -> Printf.printf "om failed: %s\n" m
