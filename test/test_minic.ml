(* Front-end, optimizer and code-generation tests. Most are end-to-end:
   compile a small program, link with libstd, run on the simulator, check
   the printed output — every instruction actually executes. *)

let t = Testutil.check_output

let semantics_tests =
  [ t "arithmetic and precedence" "23"
      {|func main() { io_putint(1 + 2 * 10 + 4 / 2); return 0; }|};
    t "parenthesized" "22"
      {|func main() { io_putint((1 + 10) * 2); return 0; }|};
    t "division truncates toward zero" "-2 2 -2"
      {|func main() {
          io_putint((0 - 7) / 3); io_putchar(32);
          io_putint(7 / 3); io_putchar(32);
          io_putint(7 / (0 - 3));
          return 0; }|};
    t "remainder has the dividend's sign" "-1 1"
      {|func main() {
          io_putint((0 - 7) % 3); io_putchar(32);
          io_putint(7 % (0 - 3));
          return 0; }|};
    t "division by zero is defined as zero" "0 7"
      {|func main() { io_putint(5 / 0); io_putchar(32); io_putint(7 % 0);
          return 0; }|};
    t "shifts" "48 -2 3"
      {|func main() {
          io_putint(3 << 4); io_putchar(32);
          io_putint((0 - 8) >> 2); io_putchar(32);
          io_putint(12 >> 2);
          return 0; }|};
    t "bitwise" "8 14 6"
      {|func main() {
          io_putint(12 & 10); io_putchar(32);
          io_putint(12 | 10); io_putchar(32);
          io_putint(12 ^ 10);
          return 0; }|};
    t "comparisons produce 0 or 1" "1 0 1 1 0 1"
      {|func main() {
          io_putint(1 < 2); io_putchar(32);
          io_putint(2 < 1); io_putchar(32);
          io_putint(2 <= 2); io_putchar(32);
          io_putint(3 > 2); io_putchar(32);
          io_putint(3 == 4); io_putchar(32);
          io_putint(3 != 4);
          return 0; }|};
    t "unary operators" "-5 1 0 -13"
      {|func main() {
          io_putint(-5); io_putchar(32);
          io_putint(!0); io_putchar(32);
          io_putint(!7); io_putchar(32);
          io_putint(~12);
          return 0; }|};
    t "short-circuit and" "0"
      {|var touched = 0;
        func poke() { touched = 1; return 1; }
        func main() {
          var r = 0 && poke();
          io_putint(touched + r);
          return 0; }|};
    t "short-circuit or" "1"
      {|var touched = 0;
        func poke() { touched = 1; return 1; }
        func main() {
          var r = 1 || poke();
          io_putint(touched + r);
          return 0; }|};
    t "while loop" "45"
      {|func main() {
          var s = 0; var i = 0;
          while (i < 10) { s = s + i; i = i + 1; }
          io_putint(s); return 0; }|};
    t "for loop" "45"
      {|func main() {
          var s = 0;
          for (var i = 0; i < 10; i = i + 1) { s = s + i; }
          io_putint(s); return 0; }|};
    t "nested if/else chains" "small"
      {|func classify(x) {
          if (x < 10) { io_puts("small"); }
          else if (x < 100) { io_puts("medium"); }
          else { io_puts("large"); }
          return 0; }
        func main() { classify(3); return 0; }|};
    t "global scalars and arrays" "7 99"
      {|var g = 7;
        var arr[10];
        func main() {
          arr[3] = 99;
          io_putint(g); io_putchar(32); io_putint(arr[3]);
          return 0; }|};
    t "global initializers" "1 2 3 60"
      {|var xs[5] = { 1, 2, 3 };
        var y = 60;
        func main() {
          io_putint(xs[0]); io_putchar(32);
          io_putint(xs[1]); io_putchar(32);
          io_putint(xs[2]); io_putchar(32);
          io_putint(y + xs[4]);
          return 0; }|};
    t "negative initializers" "-9"
      {|var z = -9;
        func main() { io_putint(z); return 0; }|};
    t "local stack arrays" "30"
      {|func main() {
          var a[8];
          a[0] = 10; a[7] = 20;
          io_putint(a[0] + a[7]);
          return 0; }|};
    t "array decay and pointer indexing" "5"
      {|var data[4];
        func get(p, i) { return p[i]; }
        func main() {
          data[2] = 5;
          io_putint(get(&data, 2));
          return 0; }|};
    t "recursion" "720"
      {|func fact(n) {
          if (n <= 1) { return 1; }
          return n * fact(n - 1); }
        func main() { io_putint(fact(6)); return 0; }|};
    t "mutual recursion" "1 0"
      {|func is_even(n) { if (n == 0) { return 1; } return is_odd(n - 1); }
        func is_odd(n) { if (n == 0) { return 0; } return is_even(n - 1); }
        func main() {
          io_putint(is_even(10)); io_putchar(32);
          io_putint(is_even(7));
          return 0; }|};
    t "static functions" "12"
      {|static func helper(x) { return x + 2; }
        func main() { io_putint(helper(10)); return 0; }|};
    t "procedure variables" "25"
      {|func sq(x) { return x * x; }
        var op = 0;
        func main() {
          op = &sq;
          io_putint(op(5));
          return 0; }|};
    t "procedure variable as parameter" "16"
      {|func twice(f, x) { return f(f(x)); }
        func dbl(x) { return x * 2; }
        func main() { io_putint(twice(&dbl, 4)); return 0; }|};
    t "six arguments" "21"
      {|func sum6(a, b, c, d, e, f) { return a + b + c + d + e + f; }
        func main() { io_putint(sum6(1, 2, 3, 4, 5, 6)); return 0; }|};
    t "64-bit literal pool constants" "81985529216486895"
      {|func main() { io_putint(0x123456789ABCDEF); return 0; }|};
    t "64-bit constant arithmetic survives" "-81985529216486895"
      {|func main() { io_putint(0 - 0x123456789ABCDEF); return 0; }|};
    t "32-bit constants via ldah/lda" "305419896"
      {|func main() { io_putint(0x12345678); return 0; }|};
    t "character literals and escapes" "65 10 92"
      {|func main() {
          io_putint('A'); io_putchar(32);
          io_putint('\n'); io_putchar(32);
          io_putint('\\');
          return 0; }|};
    t "string literals are interned" "1"
      {|func main() {
          // same contents must be the same object
          io_putint("abc" == "abc");
          return 0; }|};
    t "uninitialized locals are zero" "0"
      {|func main() { var x; io_putint(x); return 0; }|};
    t "implicit return value is zero" "0"
      {|func noret(x) { x = x + 1; }
        func main() { io_putint(noret(5)); return 0; }|};
    t "comments are skipped" "3"
      {|// line comment
        /* block
           comment */
        func main() { io_putint(3); /* inline */ return 0; }|};
    t "exit code is main's return" ""
      {|func main() { return 0; }|};
    t "shadowing in nested scopes" "1 2 1"
      {|func main() {
          var x = 1;
          io_putint(x); io_putchar(32);
          if (1) { var x = 2; io_putint(x); io_putchar(32); }
          io_putint(x);
          return 0; }|}
  ]

let exit_code_test =
  Alcotest.test_case "exit code propagates" `Quick (fun () ->
      Alcotest.(check int64) "main returns 42" 42L
        (Testutil.run_src_exit {|func main() { return 42; }|}))

(* --- front-end error reporting --- *)

let expect_error name src =
  Alcotest.test_case name `Quick (fun () ->
      match Minic.Driver.compile_module ~prelude:Runtime.prelude ~name:"e.o" src with
      | exception Minic.Driver.Error _ -> ()
      | _ -> Alcotest.fail "expected a compile error")

let error_tests =
  [ expect_error "undefined variable" {|func main() { return nope; }|};
    expect_error "undefined function" {|func main() { return nope(); }|};
    expect_error "arity mismatch" {|func f(a, b) { return a + b; }
                                    func main() { return f(1); }|};
    expect_error "redefinition" {|var x = 1; var x = 2;
                                  func main() { return 0; }|};
    expect_error "assign to array" {|var a[4];
                                     func main() { a = 3; return 0; }|};
    expect_error "assign to function" {|func f() { return 0; }
                                        func main() { f = 3; return 0; }|};
    expect_error "address of local" {|func main() { var x; return &x; }|};
    expect_error "call an array" {|var a[4];
                                   func main() { return a(); }|};
    expect_error "too many parameters"
      {|func f(a, b, c, d, e, g, h) { return 0; }
        func main() { return 0; }|};
    expect_error "syntax error" {|func main( { return 0; }|};
    expect_error "unterminated comment" {|func main() { return 0; } /* oops|};
    expect_error "local redeclaration in one scope"
      {|func main() { var x = 1; var x = 2; return x; }|};
    expect_error "conflicting extern arity"
      {|extern func io_putint(a, b);
        func main() { return 0; }|}
  ]

(* The prelude is parsed on its own, so positions count from the first
   line of the user's source. *)
let test_error_positions () =
  let message src =
    match
      Minic.Driver.compile_module ~prelude:Runtime.prelude ~name:"e.o" src
    with
    | exception Minic.Driver.Error m -> m
    | _ -> Alcotest.fail "expected a compile error"
  in
  Alcotest.(check string) "semantic error"
    "line 3, col 7: undefined name 'y'"
    (message "func main() {\n  var x;\n  x = y + 1;\n  return x;\n}\n");
  Alcotest.(check string) "syntax error"
    "parse error: line 3, col 1: expected ';', found '}'"
    (message "func main() {\n  return 0\n}\n");
  Alcotest.(check string) "lexical error"
    "parse error: line 2, col 12: unexpected character '@'"
    (message "func main() {\n  return 0 @ 1;\n}\n")

(* --- optimizer unit tests --- *)

let ir_of src =
  let prog, env = Minic.Driver.parse_and_check ~prelude:Runtime.prelude src in
  (Minic.Irgen.lower env prog).Minic.Irgen.funcs

let count_instrs (fn : Minic.Ir.func) =
  List.fold_left
    (fun acc (b : Minic.Ir.block) -> acc + List.length b.body)
    0 fn.Minic.Ir.blocks

let test_constant_folding () =
  let fns = ir_of {|func main() { return 2 * 3 + 4; }|} in
  let fn = List.hd fns in
  Minic.Opt.run fn;
  (* everything folds to a single Li *)
  let lis =
    List.concat_map
      (fun (b : Minic.Ir.block) ->
        List.filter_map
          (fun i -> match i with Minic.Ir.Li { value; _ } -> Some value | _ -> None)
          b.body)
      fn.Minic.Ir.blocks
  in
  Alcotest.(check bool) "folded to 10" true (List.mem 10L lis);
  Alcotest.(check bool) "no arithmetic remains" true
    (List.for_all
       (fun (b : Minic.Ir.block) ->
         List.for_all
           (fun i ->
             match i with Minic.Ir.Bin _ | Minic.Ir.Bini _ -> false | _ -> true)
           b.body)
       fn.Minic.Ir.blocks)

let test_dead_code () =
  let fns =
    ir_of {|func main() { var unused = 3 * 14; return 7; }|}
  in
  let fn = List.hd fns in
  let before = count_instrs fn in
  Minic.Opt.run fn;
  Alcotest.(check bool) "dead definitions removed" true
    (count_instrs fn < before)

let test_branch_folding () =
  let fns = ir_of {|func main() { if (0) { io_putint(1); } return 2; }|} in
  let fn = List.hd fns in
  Minic.Opt.run fn;
  let has_call =
    List.exists
      (fun (b : Minic.Ir.block) ->
        List.exists
          (fun i -> match i with Minic.Ir.Call _ -> true | _ -> false)
          b.body)
      fn.Minic.Ir.blocks
  in
  Alcotest.(check bool) "unreachable call removed" false has_call

let test_la_cse () =
  (* two accesses to the same global in one block share one address load *)
  let fns = ir_of {|var g = 0;
                    func main() { g = g + 1; return g; }|} in
  let fn = List.hd fns in
  Minic.Opt.run fn;
  let las =
    List.concat_map
      (fun (b : Minic.Ir.block) ->
        List.filter
          (fun i -> match i with Minic.Ir.La _ -> true | _ -> false)
          b.body)
      fn.Minic.Ir.blocks
  in
  Alcotest.(check int) "one address load per block" 1 (List.length las)

let test_div_lowering () =
  let fns = ir_of {|func main() { var a = 100; return a / 7; }|} in
  let fn = List.hd fns in
  Minic.Opt.run fn;
  let calls_divq =
    List.exists
      (fun (b : Minic.Ir.block) ->
        List.exists
          (fun i ->
            match i with
            | Minic.Ir.Call { callee = Minic.Ir.Cdirect "__divq"; _ } -> true
            | _ -> false)
          b.body)
      fn.Minic.Ir.blocks
  in
  Alcotest.(check bool) "division becomes a __divq call" true calls_divq

let test_mul_pow2_strength () =
  let fns = ir_of {|func f(x) { return x * 8; } func main() { return f(3); }|} in
  let fn = List.find (fun (f : Minic.Ir.func) -> f.fname = "f") fns in
  Minic.Opt.run fn;
  let has_shift =
    List.exists
      (fun (b : Minic.Ir.block) ->
        List.exists
          (fun i ->
            match i with
            | Minic.Ir.Bini { op = Minic.Ir.Shl; imm = 3; _ } -> true
            | _ -> false)
          b.body)
      fn.Minic.Ir.blocks
  in
  Alcotest.(check bool) "multiply by 8 becomes a shift" true has_shift

(* --- IR validation --- *)

let test_ir_validate () =
  let fns = ir_of {|func main() { var s = 0; var i = 0;
                     while (i < 5) { s = s + i; i = i + 1; }
                     return s; }|} in
  List.iter
    (fun fn ->
      Minic.Opt.run fn;
      match Minic.Ir.validate fn with
      | Ok () -> ()
      | Error m -> Alcotest.failf "invalid IR: %s" m)
    fns

(* --- register allocation --- *)

let test_regalloc_call_crossing () =
  (* regression: a value live across a call must not sit in a
     caller-saved register (this once broke indirect calls) *)
  let fns =
    ir_of {|func g(x) { return x + 1; }
            func f(a, b) { return g(a) + g(b) + a + b; }
            func main() { return f(1, 2); }|}
  in
  let fn = List.find (fun (f : Minic.Ir.func) -> f.fname = "f") fns in
  Minic.Opt.run fn;
  let alloc = Minic.Regalloc.allocate fn in
  (* both parameters are live across the first call *)
  List.iter
    (fun p ->
      match alloc.Minic.Regalloc.loc.(p) with
      | Minic.Regalloc.Preg r ->
          Alcotest.(check bool)
            (Printf.sprintf "param in callee-saved or spilled, got %s"
               (Isa.Reg.name r))
            true
            (List.exists (Isa.Reg.equal r) Minic.Regalloc.callee_pool)
      | Minic.Regalloc.Spill _ -> ())
    fn.Minic.Ir.params

let test_regalloc_spilling () =
  (* force more simultaneously-live values than there are registers *)
  let src = {|
func main() {
  var a = 1; var b = 2; var c = 3; var d = 4; var e = 5;
  var f = 6; var g = 7; var h = 8; var i = 9; var j = 10;
  var k = 11; var l = 12; var m = 13; var n = 14; var o = 15;
  var p = 16; var q = 17; var r = 18; var s = 19; var t = 20;
  var sum1 = a + b + c + d + e + f + g + h + i + j;
  var sum2 = k + l + m + n + o + p + q + r + s + t;
  io_putint(sum1 * 1000 + sum2 + a + k + t);
  return 0;
}
|} in
  Alcotest.(check string) "spilled program is correct" "55187"
    (Testutil.run_src src)

(* O0 and O2 agree *)
let test_opt_levels_agree () =
  let src = {|
var acc = 0;
static func mix(x) { acc = (acc * 31 + x) % 1000003; return acc; }
func main() {
  var i = 0;
  while (i < 50) { mix(i * i + 7); i = i + 1; }
  io_putint(acc);
  return 0;
}
|} in
  Alcotest.(check string) "O0 = O2"
    (Testutil.run_src ~opt:Minic.Driver.O0 src)
    (Testutil.run_src ~opt:Minic.Driver.O2 src)

(* --- inlining (compile-all) --- *)

let test_merged_compile () =
  let sources =
    [ ("a.mc", {|func helper(x) { return x * 3; }|});
      ("b.mc", {|extern func helper(x);
                 func main() { io_putint(helper(14)); return 0; }|}) ]
  in
  let merged =
    Minic.Driver.compile_merged ~prelude:Runtime.prelude ~name:"m.o" sources
  in
  let image = Testutil.link_std [ merged ] in
  Alcotest.(check string) "merged output" "42"
    (Testutil.run_image image).Machine.Cpu.output

let test_merged_equals_separate () =
  let sources =
    [ ("a.mc", {|var shared = 5;
                 func bump(x) { shared = shared + x; return shared; }|});
      ("b.mc", {|extern func bump(x);
                 extern var shared;
                 func main() {
                   bump(10);
                   bump(100);
                   io_putint(shared);
                   return 0; }|}) ]
  in
  let separate =
    List.map
      (fun (n, s) ->
        Minic.Driver.compile_module ~prelude:Runtime.prelude ~name:n s)
      sources
  in
  let merged =
    Minic.Driver.compile_merged ~prelude:Runtime.prelude ~name:"m.o" sources
  in
  let out_sep = (Testutil.run_image (Testutil.link_std separate)).Machine.Cpu.output in
  let out_mer = (Testutil.run_image (Testutil.link_std [ merged ])).Machine.Cpu.output in
  Alcotest.(check string) "same behavior" out_sep out_mer;
  Alcotest.(check string) "expected value" "115" out_mer

let test_inlining_happens () =
  let sources =
    [ ("a.mc", {|func tiny(x) { return x + 1; }
                 func main() { io_putint(tiny(41)); return 0; }|}) ]
  in
  let with_inline =
    Minic.Driver.compile_merged ~inline:true ~prelude:Runtime.prelude
      ~name:"m.o" sources
  in
  let without =
    Minic.Driver.compile_merged ~inline:false ~prelude:Runtime.prelude
      ~name:"m.o" sources
  in
  (* out of line there is a bsr to tiny from main; inlined there is none *)
  let count_bsr u =
    Array.fold_left
      (fun acc i -> match i with Isa.Insn.Bsr _ -> acc + 1 | _ -> acc)
      0 (Testutil.text_insns u.Objfile.Cunit.text)
  in
  Alcotest.(check bool) "inlining removes the call" true
    (count_bsr with_inline < count_bsr without);
  Alcotest.(check string) "inlined program still correct" "42"
    (Testutil.run_image (Testutil.link_std [ with_inline ])).Machine.Cpu.output

(* --- property: random expression evaluation matches OCaml --- *)

let gen_expr_value =
  (* build a random expression tree and its expected value, using only
     well-defined operations *)
  let open QCheck.Gen in
  let rec gen depth =
    if depth = 0 then
      let* n = int_range (-1000) 1000 in
      return (Printf.sprintf "(%d)" n, Int64.of_int n)
    else
      let* a, va = gen (depth - 1) in
      let* b, vb = gen (depth - 1) in
      oneofl
        [ (Printf.sprintf "(%s + %s)" a b, Int64.add va vb);
          (Printf.sprintf "(%s - %s)" a b, Int64.sub va vb);
          (Printf.sprintf "(%s * %s)" a b, Int64.mul va vb);
          (Printf.sprintf "(%s & %s)" a b, Int64.logand va vb);
          (Printf.sprintf "(%s | %s)" a b, Int64.logor va vb);
          (Printf.sprintf "(%s ^ %s)" a b, Int64.logxor va vb) ]
  in
  gen 3

let prop_expr_eval =
  QCheck.Test.make ~name:"random expressions evaluate like OCaml" ~count:60
    (QCheck.make ~print:fst gen_expr_value)
    (fun (expr, expected) ->
      let src =
        Printf.sprintf {|func main() { io_putint(%s); return 0; }|} expr
      in
      String.equal (Int64.to_string expected) (Testutil.run_src src))

let prop_divmod =
  QCheck.Test.make ~name:"div/rem match C semantics" ~count:40
    QCheck.(pair (int_range (-100000) 100000) (int_range (-500) 500))
    (fun (a, b) ->
      QCheck.assume (b <> 0);
      let src =
        Printf.sprintf
          {|func main() { io_putint((%d) / (%d)); io_putchar(32);
             io_putint((%d) %% (%d)); return 0; }|}
          a b a b
      in
      let expected =
        Printf.sprintf "%Ld %Ld"
          (Int64.div (Int64.of_int a) (Int64.of_int b))
          (Int64.rem (Int64.of_int a) (Int64.of_int b))
      in
      String.equal expected (Testutil.run_src src))

(* Round 1 only deletes the dead [t], which empties the if-body. Round 2
   threads the branch past the empty block, which leaves the comparison
   unused, and deletes it. *)
let test_opt_second_round () =
  let f =
    List.find
      (fun (fn : Minic.Ir.func) -> fn.Minic.Ir.fname = "f")
      (ir_of {|func f(a) { if (a < 5) { var t = a + a; } }
               func main() { return f(1); }|})
  in
  Minic.Opt.run f;
  Alcotest.(check bool) "no conditional branch left" false
    (List.exists
       (fun (b : Minic.Ir.block) ->
         match b.term with Minic.Ir.Cbr _ -> true | _ -> false)
       f.Minic.Ir.blocks);
  Alcotest.(check int) "only the return value is computed" 1
    (count_instrs f)

(* [Opt.run] stops at the first round that changes nothing. Every
   function of the suite and of the first 100 fuzz programs of seed 42,
   compiled each and merged, gets there inside the four-round cap, so
   running the optimizer again leaves it as it was. *)
let test_opt_fixpoint () =
  let check name ~merged src =
    let prog, env = Minic.Driver.parse_and_check ~prelude:Runtime.prelude src in
    let funcs = (Minic.Irgen.lower env prog).Minic.Irgen.funcs in
    if merged then Minic.Inline.run funcs;
    List.iter
      (fun (fn : Minic.Ir.func) ->
        Minic.Opt.run fn;
        let once = Format.asprintf "%a" Minic.Ir.pp_func fn in
        Minic.Opt.run fn;
        Alcotest.(check string)
          (name ^ ": " ^ fn.Minic.Ir.fname)
          once
          (Format.asprintf "%a" Minic.Ir.pp_func fn))
      funcs
  in
  List.iter
    (fun (name, sources) ->
      List.iter (fun (_, src) -> check name ~merged:false src) sources;
      check name ~merged:true (String.concat "\n" (List.map snd sources)))
    (List.map
       (fun (b : Workloads.Programs.benchmark) -> (b.name, b.sources))
       Workloads.Programs.all
    @ List.init 100 (fun i ->
          ( Printf.sprintf "fuzz %d" i,
            Fuzz.Prog.render
              (Fuzz.Gen.program (Fuzz.case_seed ~seed:42 ~index:i)) )))

let suite =
  ( "minic",
    semantics_tests @ error_tests
    @ [ exit_code_test;
        Alcotest.test_case "error positions count from the source" `Quick
          test_error_positions;
        Alcotest.test_case "optimizer reaches its fixpoint" `Quick
          test_opt_fixpoint;
        Alcotest.test_case "optimizer runs a second round" `Quick
          test_opt_second_round;
        Alcotest.test_case "constant folding" `Quick test_constant_folding;
        Alcotest.test_case "dead code elimination" `Quick test_dead_code;
        Alcotest.test_case "branch folding" `Quick test_branch_folding;
        Alcotest.test_case "address-load CSE" `Quick test_la_cse;
        Alcotest.test_case "division lowering" `Quick test_div_lowering;
        Alcotest.test_case "strength reduction" `Quick test_mul_pow2_strength;
        Alcotest.test_case "IR validates after opt" `Quick test_ir_validate;
        Alcotest.test_case "regalloc call-crossing" `Quick
          test_regalloc_call_crossing;
        Alcotest.test_case "regalloc spilling" `Quick test_regalloc_spilling;
        Alcotest.test_case "O0 and O2 agree" `Quick test_opt_levels_agree;
        Alcotest.test_case "merged compile" `Quick test_merged_compile;
        Alcotest.test_case "merged equals separate" `Quick
          test_merged_equals_separate;
        Alcotest.test_case "inlining" `Quick test_inlining_happens;
        Testutil.qtest prop_expr_eval;
        Testutil.qtest prop_divmod ] )

(* --- optimistic compilation (the paper's §6 / MIPS -G scheme) --- *)

let optimistic_src = {|
var a = 5;
var b = 7;
var big[100];
func main() {
  big[3] = a * b;
  io_putint(big[3] + a);
  return 0;
}
|}

let test_optimistic_works () =
  let plain =
    Minic.Driver.compile_module ~prelude:Runtime.prelude ~name:"p.o"
      optimistic_src
  in
  let optim =
    Minic.Driver.compile_module ~optimistic:true ~prelude:Runtime.prelude
      ~name:"g.o" optimistic_src
  in
  (* the optimistic unit needs fewer GAT entries and fewer instructions *)
  Alcotest.(check bool) "smaller GAT" true
    (Array.length optim.Objfile.Cunit.gat < Array.length plain.Objfile.Cunit.gat);
  (* same count per access (one lda replaces one ldq); never more *)
  Alcotest.(check bool) "no more instructions" true
    (Objfile.Cunit.insn_count optim <= Objfile.Cunit.insn_count plain);
  let out_plain =
    (Testutil.run_image (Testutil.link_std [ plain ])).Machine.Cpu.output
  in
  let out_optim =
    (Testutil.run_image (Testutil.link_std [ optim ])).Machine.Cpu.output
  in
  Alcotest.(check string) "same behavior" out_plain out_optim;
  Alcotest.(check string) "expected output" "40" out_optim

let test_optimistic_bet_can_fail () =
  (* a common scalar lands after a huge .bss: outside the GP window, so
     the optimistic link must fail with recompilation advice *)
  let src = {|
var huge1[30000];
var huge2[30000];
var unlucky;
func main() {
  unlucky = 1;
  huge1[0] = unlucky;
  io_putint(huge1[0]);
  return 0;
}
|} in
  let optim =
    Minic.Driver.compile_module ~optimistic:true ~prelude:Runtime.prelude
      ~name:"g.o" src
  in
  (match Linker.Link.link [ optim ] ~archives:[ Runtime.libstd () ] with
  | Error m ->
      Alcotest.(check bool) "error advises recompilation" true
        (let affix = "recompile" in
         let n = String.length affix and l = String.length m in
         let rec go i = i + n <= l && (String.sub m i n = affix || go (i + 1)) in
         go 0)
  | Ok _ -> Alcotest.fail "expected the optimistic link to fail");
  (* the conservative compile of the same program links fine *)
  let plain =
    Minic.Driver.compile_module ~prelude:Runtime.prelude ~name:"p.o" src
  in
  Alcotest.(check string) "conservative version runs" "1"
    (Testutil.run_image (Testutil.link_std [ plain ])).Machine.Cpu.output

let test_optimistic_through_om () =
  (* OM accepts optimistically-compiled objects: the GPREL16 reference
     lifts into the symbolic form and survives every level *)
  let optim =
    Minic.Driver.compile_module ~optimistic:true ~prelude:Runtime.prelude
      ~name:"g.o" optimistic_src
  in
  let world =
    match Linker.Resolve.run [ optim ] ~archives:[ Runtime.libstd () ] with
    | Ok w -> w
    | Error m -> Alcotest.failf "resolve: %s" m
  in
  List.iter
    (fun level ->
      match Om.optimize_resolved level world with
      | Ok { Om.image; _ } ->
          Alcotest.(check string)
            (Om.level_name level ^ " preserves optimistic code")
            "40"
            (Testutil.run_image image).Machine.Cpu.output
      | Error m -> Alcotest.failf "%s: %s" (Om.level_name level) m)
    Om.all_levels

let suite =
  let name, cases = suite in
  ( name,
    cases
    @ [ Alcotest.test_case "optimistic compilation works" `Quick
          test_optimistic_works;
        Alcotest.test_case "optimistic bet can fail at link time" `Quick
          test_optimistic_bet_can_fail;
        Alcotest.test_case "optimistic objects through OM" `Quick
          test_optimistic_through_om ] )
