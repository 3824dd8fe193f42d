(* Additional coverage: data layout, figure rendering, lexer details, and
   whole-pipeline invariants that no other suite pins down. *)

module I = Isa.Insn
module R = Isa.Reg

(* --- lexer details --- *)

let test_lexer_tokens () =
  let toks = Minic.Lexer.tokenize "x<<=>>=&&&|||" in
  let kinds = List.map (fun (t : Minic.Lexer.t) -> t.tok) toks in
  Alcotest.(check bool) "maximal munch" true
    (kinds
    = [ Minic.Lexer.IDENT "x"; Minic.Lexer.SHL; Minic.Lexer.EQ;
        Minic.Lexer.SHR; Minic.Lexer.EQ; Minic.Lexer.AMPAMP; Minic.Lexer.AMP;
        Minic.Lexer.PIPEPIPE; Minic.Lexer.PIPE; Minic.Lexer.EOF ])

let test_lexer_positions () =
  let toks = Minic.Lexer.tokenize "a\n  b" in
  match toks with
  | [ a; b; _eof ] ->
      Alcotest.(check int) "a line" 1 a.Minic.Lexer.pos.Minic.Ast.line;
      Alcotest.(check int) "b line" 2 b.Minic.Lexer.pos.Minic.Ast.line;
      Alcotest.(check int) "b col" 3 b.Minic.Lexer.pos.Minic.Ast.col
  | _ -> Alcotest.fail "unexpected token count"

let test_lexer_rejects () =
  Alcotest.(check bool) "bad char" true
    (match Minic.Lexer.tokenize "a $ b" with
    | exception Minic.Lexer.Error _ -> true
    | _ -> false);
  Alcotest.(check bool) "huge int" true
    (match Minic.Lexer.tokenize "99999999999999999999999" with
    | exception Minic.Lexer.Error _ -> true
    | _ -> false)

(* --- parser precedence details --- *)

let parse_one_expr src =
  match Minic.Parser.parse (Printf.sprintf "func main() { return %s; }" src) with
  | [ Minic.Ast.Func { body = [ { sdesc = Minic.Ast.Return (Some e); _ } ]; _ } ]
    -> e
  | _ -> Alcotest.fail "unexpected parse shape"

let rec expr_str (e : Minic.Ast.expr) =
  match e.desc with
  | Minic.Ast.Int n -> Int64.to_string n
  | Minic.Ast.Binary (op, a, b) ->
      Printf.sprintf "(%s%s%s)" (expr_str a)
        (Format.asprintf "%a" Minic.Ast.pp_binop op)
        (expr_str b)
  | _ -> "?"

let test_precedence () =
  Alcotest.(check string) "mul binds tighter" "(1+(2*3))"
    (expr_str (parse_one_expr "1 + 2 * 3"));
  Alcotest.(check string) "shift vs plus" "((1+2)<<3)"
    (expr_str (parse_one_expr "1 + 2 << 3"));
  Alcotest.(check string) "and-or" "((1&&2)||3)"
    (expr_str (parse_one_expr "1 && 2 || 3"));
  Alcotest.(check string) "left associativity" "((7-3)-2)"
    (expr_str (parse_one_expr "7 - 3 - 2"))

(* --- data layout --- *)

let world_of src =
  match
    Linker.Resolve.run [ Testutil.compile src ] ~archives:[ Runtime.libstd () ]
  with
  | Ok w -> w
  | Error m -> Alcotest.failf "resolve: %s" m

let test_datalayout_windows () =
  let world =
    world_of
      {|var near = 1;
        var far[9000];
        func main() { io_putint(near + far[0]); return 0; }|}
  in
  let merged = Linker.Gat.merge world in
  let sizes =
    Array.init merged.Linker.Gat.ngroups (fun g ->
        let first = merged.Linker.Gat.group_first_slot.(g) in
        let next =
          if g + 1 < merged.Linker.Gat.ngroups then
            merged.Linker.Gat.group_first_slot.(g + 1)
          else Array.length merged.Linker.Gat.slots
        in
        8 * (next - first))
  in
  let plan =
    Om.Datalayout.plan world ~group_of_module:merged.Linker.Gat.group_of_module
      ~ngroups:merged.Linker.Gat.ngroups ~group_gat_bytes:sizes
  in
  let addr_of name =
    match Hashtbl.find_opt world.Linker.Resolve.globals name with
    | Some (Linker.Resolve.Tobj _ as t) -> Om.Datalayout.address_of world plan t
    | _ -> Alcotest.failf "no global %s" name
  in
  (* the small scalar must be inside the GP window; the huge array cannot
     fit entirely *)
  Alcotest.(check bool) "near datum in window" true
    (Om.Datalayout.in_window plan ~group:0 (addr_of "near"));
  Alcotest.(check bool) "end of far array outside window" false
    (Om.Datalayout.in_window plan ~group:0 (addr_of "far" + (8 * 8999)));
  (* commons are sorted by size: 'near' (a common scalar) precedes 'far' *)
  Alcotest.(check bool) "smaller common placed first" true
    (addr_of "near" < addr_of "far")

let test_gp_heuristic () =
  let world = world_of {|var g = 1; func main() { return g; }|} in
  let merged = Linker.Gat.merge world in
  let plan =
    Om.Datalayout.plan world ~group_of_module:merged.Linker.Gat.group_of_module
      ~ngroups:1
      ~group_gat_bytes:[| 8 * Array.length merged.Linker.Gat.slots |]
  in
  let gp = plan.Om.Datalayout.gp_of_group.(0) in
  (* every reserved GAT slot must be reachable *)
  Array.iteri
    (fun i _ ->
      let slot =
        Linker.Layout.data_base + plan.Om.Datalayout.group_gat_off.(0) + (8 * i)
      in
      Alcotest.(check bool) "slot reachable" true
        (Isa.Insn.fits_disp16 (slot - gp)))
    merged.Linker.Gat.slots

(* --- figures rendering (smoke + mean arithmetic) --- *)

let test_figures_render () =
  let b = Option.get (Workloads.Programs.find "li") in
  let results =
    List.filter_map
      (fun build -> Result.to_option (Reports.Measure.run_benchmark build b))
      Workloads.Suite.all_builds
  in
  Alcotest.(check int) "both builds measured" 2 (List.length results);
  let render f = Format.asprintf "%a" f results in
  List.iter
    (fun (name, f) ->
      let s = render f in
      Alcotest.(check bool) (name ^ " mentions li") true
        (Testutil.contains ~affix:"li" s);
      Alcotest.(check bool) (name ^ " has a MEAN row") true
        (Testutil.contains ~affix:"MEAN" s))
    [ ("fig3", Reports.Figures.fig3);
      ("fig5", Reports.Figures.fig5);
      ("fig6", Reports.Figures.fig6);
      ("gat", Reports.Figures.gat_table) ]

(* --- whole-pipeline invariants --- *)

let test_om_idempotent_outputs () =
  (* running the optimizer twice from the same resolved world gives
     byte-identical images (the pipeline is deterministic) *)
  let world =
    world_of {|var g = 3; func main() { io_putint(g * 2); return 0; }|}
  in
  let once = Result.get_ok (Om.optimize_resolved Om.Full world) in
  let twice = Result.get_ok (Om.optimize_resolved Om.Full world) in
  Alcotest.(check bool) "text identical" true
    (Bytes.equal once.Om.image.Linker.Image.text twice.Om.image.Linker.Image.text);
  Alcotest.(check bool) "data identical" true
    (Bytes.equal once.Om.image.Linker.Image.data twice.Om.image.Linker.Image.data)

let test_gat_slots_disjoint_after_om () =
  (* every literal displacement in the optimized image addresses a slot
     that holds either a constant or a valid program address *)
  let world =
    world_of
      {|var fp = 0;
        func f(x) { return x + 0x123456789ABCDEF; }
        func main() { fp = &f; io_putint(fp(1)); return 0; }|}
  in
  let { Om.image; _ } = Result.get_ok (Om.optimize_resolved Om.Full world) in
  let insns = Testutil.text_insns image.Linker.Image.text in
  Array.iter
    (fun (p : Linker.Image.proc_info) ->
      let first = (p.entry - image.Linker.Image.text_base) / 4 in
      for k = first to first + (p.size / 4) - 1 do
        match insns.(k) with
        | I.Ldq { rb; disp; _ } when R.equal rb R.gp ->
            let a = p.gp_value + disp in
            if
              a >= image.Linker.Image.gat_base
              && a < image.Linker.Image.gat_base + image.Linker.Image.gat_bytes
            then begin
              let v =
                Bytes.get_int64_le image.Linker.Image.data
                  (a - image.Linker.Image.data_base)
              in
              let iv = Int64.to_int v in
              let is_text_addr =
                iv >= image.Linker.Image.text_base
                && iv < image.Linker.Image.text_base
                        + Bytes.length image.Linker.Image.text
              in
              Alcotest.(check bool) "slot holds constant or code address" true
                (is_text_addr || Int64.equal v 0x123456789ABCDEFL)
            end
        | _ -> ()
      done)
    image.Linker.Image.procs

let suite =
  ( "more",
    [ Alcotest.test_case "lexer maximal munch" `Quick test_lexer_tokens;
      Alcotest.test_case "lexer positions" `Quick test_lexer_positions;
      Alcotest.test_case "lexer rejections" `Quick test_lexer_rejects;
      Alcotest.test_case "operator precedence" `Quick test_precedence;
      Alcotest.test_case "data layout windows" `Quick test_datalayout_windows;
      Alcotest.test_case "GP heuristic reaches all slots" `Quick
        test_gp_heuristic;
      Alcotest.test_case "figure rendering" `Slow test_figures_render;
      Alcotest.test_case "optimizer determinism" `Quick
        test_om_idempotent_outputs;
      Alcotest.test_case "surviving GAT slots" `Quick
        test_gat_slots_disjoint_after_om ] )
