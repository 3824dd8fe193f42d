(* ATOM-lite: link-time instrumentation through the symbolic form.

   The paper closes by noting that OM's machinery "opens the door to other
   link-time transformations, such as ... flexible program instrumentation
   tools" — the ATOM system, built on the same substrate. This example
   plays that card: it inserts a procedure-entry counter into every
   GP-using user procedure at link time, without recompiling anything.

   The injected sequence uses only the assembler temporary [at] and a
   GP-relative slot (the program donates a global named __prof), so no
   program register is disturbed:

       ldq  at, __prof(gp)
       addq at, 1, at
       stq  at, __prof(gp)

     dune exec examples/instrument.exe *)

module S = Om.Symbolic
module I = Isa.Insn
module R = Isa.Reg

let src = {|
var __prof = 0;

func fib(n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}

func main() {
  io_put_labeled("fib", fib(15));
  io_put_labeled("calls_counted", __prof);
  return 0;
}
|}

let instrument (program : S.program) (world : Linker.Resolve.t) =
  let prof =
    match Linker.Resolve.resolve world 0 "__prof" with
    | Some (Linker.Resolve.Tobj _ as t) -> t
    | _ -> failwith "program must define a scalar global __prof"
  in
  let counter part = S.Gprel { insn = part; target = prof; addend = 0; part = S.Pfull } in
  let instrumented = ref 0 in
  Array.iter
    (fun (proc : S.proc) ->
      (* only instrument user procedures that establish a GP *)
      match Om.Transform.setup_at_entry proc with
      | Some _ when proc.S.sp_name <> "__start" ->
          let seq =
            [| S.make_node program (counter (I.Ldq { ra = R.at; rb = R.gp; disp = 0 }));
               S.make_node program
                 (S.Raw (I.Op { op = I.Addq; ra = R.at; rb = I.Imm 1; rc = R.at }));
               S.make_node program (counter (I.Stq { ra = R.at; rb = R.gp; disp = 0 })) |]
          in
          (* splice right after the GP setup, the body's first two nodes *)
          let body = proc.S.body in
          proc.S.body <-
            Array.concat
              [ Array.sub body 0 2; seq;
                Array.sub body 2 (Array.length body - 2) ];
          incr instrumented
      | _ -> ())
    program.S.procs;
  !instrumented

let () =
  let unit =
    Minic.Driver.compile_module ~prelude:Runtime.prelude ~name:"fib.o" src
  in
  let world =
    Result.get_ok (Linker.Resolve.run [ unit ] ~archives:[ Runtime.libstd () ])
  in
  (* uninstrumented baseline *)
  (match Linker.Link.link_resolved world with
  | Ok image -> (
      match Machine.Cpu.run image with
      | Ok o -> Printf.printf "baseline:\n%s" o.Machine.Cpu.output
      | Error e -> Format.printf "FAULT %a@." Machine.Cpu.pp_error e)
  | Error m -> print_endline m);
  (* lift, move GP setups to entry (so the splice point exists), insert
     counters, lower — the OM pipeline with a custom transformation *)
  let program = Result.get_ok (Om.Lift.run world) in
  Om.Transform.move_setups_to_entry program;
  let n = instrument program world in
  Printf.printf "\ninstrumented %d procedure(s) at link time\n\n" n;
  let merged = Linker.Gat.merge world in
  let plan =
    Om.Datalayout.plan world
      ~group_of_module:merged.Linker.Gat.group_of_module
      ~ngroups:merged.Linker.Gat.ngroups
      ~group_gat_bytes:
        (Array.init merged.Linker.Gat.ngroups (fun g ->
             let first = merged.Linker.Gat.group_first_slot.(g) in
             let next =
               if g + 1 < merged.Linker.Gat.ngroups then
                 merged.Linker.Gat.group_first_slot.(g + 1)
               else Array.length merged.Linker.Gat.slots
             in
             8 * (next - first)))
  in
  match Om.Lower.run program plan with
  | Ok (image, _) -> (
      match Om.Verify.verified image with
      | Error m -> print_endline ("verify failed: " ^ m)
      | Ok decoded -> (
          match Machine.Cpu.run_decoded decoded with
          | Ok o -> Printf.printf "instrumented:\n%s" o.Machine.Cpu.output
          | Error e -> Format.printf "FAULT %a@." Machine.Cpu.pp_error e))
  | Error m -> print_endline ("lower failed: " ^ m)
