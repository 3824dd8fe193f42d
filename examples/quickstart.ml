(* Quickstart: compile a two-module program, link it six ways, run each
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
  print_endline "== quickstart: compile, link six ways, simulate ==";
  (* 1. compile each module separately, exactly like `cc -c` *)
  let units =
    [ Minic.Driver.compile_module ~prelude:Runtime.prelude ~name:"histogram.o"
        kernel_src;
      Minic.Driver.compile_module ~prelude:Runtime.prelude ~name:"main.o"
        main_src ]
  in
  let archives = [ Runtime.libstd () ] in
  (* 2. the baseline, a standard link, then OM at each level: every
     link hands on its verified decoded text, so simulate that *)
  let world = Result.get_ok (Linker.Resolve.run units ~archives) in
  let base = ref max_int in
  List.iter
    (fun target ->
      let name = Om.target_name target in
      match Om.link_at target world with
      | Error m -> Printf.printf "%s failed: %s\n" name m
      | Ok (decoded, stats) -> (
          match Machine.Cpu.run_decoded decoded with
          | Error e ->
              Format.printf "%s: FAULT %a@." name Machine.Cpu.pp_error e
          | Ok o ->
              let c = o.Machine.Cpu.stats.Machine.Cpu.cycles in
              Printf.printf "%-14s text=%5d insns  cycles=%7d  output=%s\n" name
                (Linker.Image.insn_count decoded.Linker.Image.image)
                c
                (String.concat "; "
                   (String.split_on_char '\n'
                      (String.trim o.Machine.Cpu.output)));
              match stats with
              | None -> base := c (* the standard link comes first *)
              | Some stats ->
                  Printf.printf "  improvement over standard link: %+.2f%%\n"
                    (100. *. float_of_int (!base - c) /. float_of_int !base);
                  if target = Om.Level Om.Full then
                    Format.printf "  what OM-full did: %a@." Om.Stats.pp stats))
    Om.targets
