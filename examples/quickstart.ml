(* Quickstart: compile a two-module program, link it four ways, run each
   on the simulated machine, and watch the paper's effect appear.

     dune exec examples/quickstart.exe *)

let kernel_src = {|
// histogram.mc — a little COMMON-style kernel
extern var data[];
extern var hist[];

func histogram(n, nbins) {
  var i = 0;
  while (i < nbins) { hist[i] = 0; i = i + 1; }
  i = 0;
  while (i < n) {
    var b = data[i] % nbins;
    hist[b] = hist[b] + 1;
    i = i + 1;
  }
  return 0;
}
|}

let main_src = {|
// main.mc
extern func histogram(n, nbins);

var data[500];
var hist[16];

func main() {
  srand(2024);
  var i = 0;
  while (i < 500) { data[i] = rand_range(10000); i = i + 1; }
  histogram(500, 16);
  var mx = 0;
  i = 0;
  while (i < 16) { mx = imax(mx, hist[i]); i = i + 1; }
  io_put_labeled("bins", 16);
  io_put_labeled("max", mx);
  return 0;
}
|}

let () =
  print_endline "== quickstart: compile, link four ways, simulate ==";
  (* 1. compile each module separately, exactly like `cc -c` *)
  let units =
    [ Minic.Driver.compile_module ~prelude:Runtime.prelude ~name:"histogram.o"
        kernel_src;
      Minic.Driver.compile_module ~prelude:Runtime.prelude ~name:"main.o"
        main_src ]
  in
  let archives = [ Runtime.libstd () ] in
  (* 2. the baseline: a standard link *)
  let world = Result.get_ok (Linker.Resolve.run units ~archives) in
  let std = Result.get_ok (Linker.Link.link_resolved world) in
  (* an OM link hands on its verified decoded text: simulate that *)
  let run name image outcome =
    match outcome with
    | Ok o ->
        Printf.printf "%-14s text=%5d insns  cycles=%7d  output=%s\n" name
          (Linker.Image.insn_count image)
          o.Machine.Cpu.stats.Machine.Cpu.cycles
          (String.concat "; " (String.split_on_char '\n' (String.trim o.Machine.Cpu.output)));
        o.Machine.Cpu.stats.Machine.Cpu.cycles
    | Error e ->
        Format.printf "%s: FAULT %a@." name Machine.Cpu.pp_error e;
        max_int
  in
  let base = run "standard" std (Machine.Cpu.run std) in
  (* 3. OM at each level *)
  List.iter
    (fun level ->
      match Om.optimize_resolved level world with
      | Ok { Om.image; stats; decoded } ->
          let c =
            run (Om.level_name level) image (Machine.Cpu.run_decoded decoded)
          in
          Printf.printf "  improvement over standard link: %+.2f%%\n"
            (100. *. float_of_int (base - c) /. float_of_int base);
          if level = Om.Full then
            Format.printf "  what OM-full did: %a@." Om.Stats.pp stats
      | Error m -> Printf.printf "%s failed: %s\n" (Om.level_name level) m)
    Om.all_levels
