exception Error of string * Ast.pos

type state = { mutable toks : Lexer.t list }

let peek st =
  match st.toks with
  | [] -> { Lexer.tok = Lexer.EOF; pos = Ast.no_pos }
  | t :: _ -> t

let advance st = match st.toks with [] -> () | _ :: rest -> st.toks <- rest

let next st =
  let t = peek st in
  advance st;
  t

let fail_at pos fmt = Format.kasprintf (fun m -> raise (Error (m, pos))) fmt

(* Is the next token [tok], a token without a payload? Such tokens are
   immediate values, so they compare physically. *)
let at st tok = (peek st).Lexer.tok == tok

let expect st tok =
  let t = peek st in
  if t.Lexer.tok == tok then advance st
  else
    fail_at t.pos "expected %s, found %s" (Lexer.token_name tok)
      (Lexer.token_name t.Lexer.tok)

let expect_ident st =
  match next st with
  | { Lexer.tok = Lexer.IDENT x; _ } -> x
  | t -> fail_at t.pos "expected identifier, found %s" (Lexer.token_name t.tok)

let expect_int st =
  match next st with
  | { Lexer.tok = Lexer.INT n; _ } -> n
  | { Lexer.tok = Lexer.MINUS; _ } -> (
      match next st with
      | { Lexer.tok = Lexer.INT n; _ } -> Int64.neg n
      | t -> fail_at t.pos "expected integer, found %s" (Lexer.token_name t.tok))
  | t -> fail_at t.pos "expected integer, found %s" (Lexer.token_name t.tok)

(* --- expressions: precedence climbing --- *)

let binop_of_token : Lexer.token -> (Ast.binop * int) option = function
  | Lexer.PIPEPIPE -> Some (Ast.Lor, 1)
  | Lexer.AMPAMP -> Some (Ast.Land, 2)
  | Lexer.PIPE -> Some (Ast.Bor, 3)
  | Lexer.CARET -> Some (Ast.Bxor, 4)
  | Lexer.AMP -> Some (Ast.Band, 5)
  | Lexer.EQEQ -> Some (Ast.Eq, 6)
  | Lexer.NE -> Some (Ast.Ne, 6)
  | Lexer.LT -> Some (Ast.Lt, 7)
  | Lexer.LE -> Some (Ast.Le, 7)
  | Lexer.GT -> Some (Ast.Gt, 7)
  | Lexer.GE -> Some (Ast.Ge, 7)
  | Lexer.SHL -> Some (Ast.Shl, 8)
  | Lexer.SHR -> Some (Ast.Shr, 8)
  | Lexer.PLUS -> Some (Ast.Add, 9)
  | Lexer.MINUS -> Some (Ast.Sub, 9)
  | Lexer.STAR -> Some (Ast.Mul, 10)
  | Lexer.SLASH -> Some (Ast.Div, 10)
  | Lexer.PERCENT -> Some (Ast.Rem, 10)
  | _ -> None

let rec parse_expr st = parse_binary st 0

and parse_binary st min_prec =
  let lhs = parse_unary st in
  let rec loop lhs =
    let t = peek st in
    match binop_of_token t.Lexer.tok with
    | Some (op, prec) when prec >= min_prec ->
        advance st;
        let rhs = parse_binary st (prec + 1) in
        loop (Ast.mk_expr ~pos:t.pos (Ast.Binary (op, lhs, rhs)))
    | _ -> lhs
  in
  loop lhs

and parse_unary st =
  let t = peek st in
  match t.Lexer.tok with
  | Lexer.MINUS ->
      advance st;
      Ast.mk_expr ~pos:t.pos (Ast.Unary (Ast.Neg, parse_unary st))
  | Lexer.BANG ->
      advance st;
      Ast.mk_expr ~pos:t.pos (Ast.Unary (Ast.Lnot, parse_unary st))
  | Lexer.TILDE ->
      advance st;
      Ast.mk_expr ~pos:t.pos (Ast.Unary (Ast.Bnot, parse_unary st))
  | Lexer.AMP ->
      advance st;
      let name = expect_ident st in
      parse_postfix st (Ast.mk_expr ~pos:t.pos (Ast.Addr_of name))
  | _ -> parse_primary st

and parse_postfix st e =
  match (peek st).Lexer.tok with
  | Lexer.LBRACKET ->
      advance st;
      let idx = parse_expr st in
      expect st Lexer.RBRACKET;
      parse_postfix st (Ast.mk_expr ~pos:e.Ast.pos (Ast.Index (e, idx)))
  | _ -> e

and parse_primary st =
  let t = next st in
  match t.Lexer.tok with
  | Lexer.INT n -> Ast.mk_expr ~pos:t.pos (Ast.Int n)
  | Lexer.STRING s -> parse_postfix st (Ast.mk_expr ~pos:t.pos (Ast.Str s))
  | Lexer.LPAREN ->
      let e = parse_expr st in
      expect st Lexer.RPAREN;
      parse_postfix st e
  | Lexer.IDENT x -> (
      match (peek st).Lexer.tok with
      | Lexer.LPAREN ->
          advance st;
          let args = parse_args st in
          parse_postfix st (Ast.mk_expr ~pos:t.pos (Ast.Call (x, args)))
      | _ -> parse_postfix st (Ast.mk_expr ~pos:t.pos (Ast.Ident x)))
  | tok -> fail_at t.pos "expected expression, found %s" (Lexer.token_name tok)

and parse_args st =
  if at st Lexer.RPAREN then (advance st; [])
  else
    let rec more acc =
      let e = parse_expr st in
      match (next st).Lexer.tok with
      | Lexer.COMMA -> more (e :: acc)
      | Lexer.RPAREN -> List.rev (e :: acc)
      | tok ->
          fail_at (peek st).pos "expected ',' or ')', found %s"
            (Lexer.token_name tok)
    in
    more []

(* --- statements --- *)

let rec parse_stmt st : Ast.stmt =
  let t = peek st in
  match t.Lexer.tok with
  | Lexer.KW_var ->
      advance st;
      let name = expect_ident st in
      let s =
        match (peek st).Lexer.tok with
        | Lexer.LBRACKET ->
            advance st;
            let n = expect_int st in
            expect st Lexer.RBRACKET;
            if n <= 0L || n > 65536L then
              fail_at t.pos "array size %Ld out of range" n;
            Ast.Decl_array (name, Int64.to_int n)
        | Lexer.EQ ->
            advance st;
            Ast.Decl (name, Some (parse_expr st))
        | _ -> Ast.Decl (name, None)
      in
      expect st Lexer.SEMI;
      Ast.mk_stmt ~pos:t.pos s
  | Lexer.KW_if ->
      advance st;
      expect st Lexer.LPAREN;
      let cond = parse_expr st in
      expect st Lexer.RPAREN;
      let then_ = parse_block st in
      let else_ =
        if at st Lexer.KW_else then begin
          advance st;
          if at st Lexer.KW_if then [ parse_stmt st ]
          else parse_block st
        end
        else []
      in
      Ast.mk_stmt ~pos:t.pos (Ast.If (cond, then_, else_))
  | Lexer.KW_while ->
      advance st;
      expect st Lexer.LPAREN;
      let cond = parse_expr st in
      expect st Lexer.RPAREN;
      Ast.mk_stmt ~pos:t.pos (Ast.While (cond, parse_block st))
  | Lexer.KW_for ->
      advance st;
      expect st Lexer.LPAREN;
      let init =
        if at st Lexer.SEMI then None
        else Some (parse_simple st)
      in
      expect st Lexer.SEMI;
      let cond =
        if at st Lexer.SEMI then None else Some (parse_expr st)
      in
      expect st Lexer.SEMI;
      let step =
        if at st Lexer.RPAREN then None
        else Some (parse_simple st)
      in
      expect st Lexer.RPAREN;
      Ast.mk_stmt ~pos:t.pos (Ast.For (init, cond, step, parse_block st))
  | Lexer.KW_return ->
      advance st;
      let e =
        if at st Lexer.SEMI then None else Some (parse_expr st)
      in
      expect st Lexer.SEMI;
      Ast.mk_stmt ~pos:t.pos (Ast.Return e)
  | _ ->
      let s = parse_simple st in
      expect st Lexer.SEMI;
      s

(* A "simple" statement: assignment or expression statement (no keyword). *)
and parse_simple st : Ast.stmt =
  let t = peek st in
  match t.Lexer.tok with
  | Lexer.KW_var ->
      (* allowed as for-init: var i = 0 *)
      advance st;
      let name = expect_ident st in
      expect st Lexer.EQ;
      Ast.mk_stmt ~pos:t.pos (Ast.Decl (name, Some (parse_expr st)))
  | _ -> (
      let e = parse_expr st in
      match (peek st).Lexer.tok with
      | Lexer.EQ -> (
          advance st;
          let rhs = parse_expr st in
          match e.Ast.desc with
          | Ast.Ident x ->
              Ast.mk_stmt ~pos:t.pos (Ast.Assign (Ast.Lident x, rhs))
          | Ast.Index (a, i) ->
              Ast.mk_stmt ~pos:t.pos (Ast.Assign (Ast.Lindex (a, i), rhs))
          | _ -> fail_at t.pos "left-hand side is not assignable")
      | _ -> Ast.mk_stmt ~pos:t.pos (Ast.Expr e))

and parse_block st =
  expect st Lexer.LBRACE;
  let rec go acc =
    if at st Lexer.RBRACE then (advance st; List.rev acc)
    else go (parse_stmt st :: acc)
  in
  go []

(* --- top level --- *)

let parse_params st =
  expect st Lexer.LPAREN;
  if at st Lexer.RPAREN then (advance st; [])
  else
    let rec more acc =
      let p = expect_ident st in
      match (next st).Lexer.tok with
      | Lexer.COMMA -> more (p :: acc)
      | Lexer.RPAREN -> List.rev (p :: acc)
      | tok ->
          fail_at (peek st).pos "expected ',' or ')', found %s"
            (Lexer.token_name tok)
    in
    more []

let parse_global_init st : Ast.global_init =
  if at st Lexer.LBRACE then begin
    advance st;
    let rec more acc =
      let v = expect_int st in
      match (next st).Lexer.tok with
      | Lexer.COMMA -> more (v :: acc)
      | Lexer.RBRACE -> List.rev (v :: acc)
      | tok ->
          fail_at (peek st).pos "expected ',' or '}', found %s"
            (Lexer.token_name tok)
    in
    Ast.Array_init (more [])
  end
  else Ast.Scalar_init (expect_int st)

let parse_top st : Ast.top =
  let t = peek st in
  let static =
    if at st Lexer.KW_static then (advance st; true) else false
  in
  let t' = next st in
  match t'.Lexer.tok with
  | Lexer.KW_extern -> (
      if static then fail_at t.pos "'static extern' makes no sense";
      match (next st).Lexer.tok with
      | Lexer.KW_func ->
          let name = expect_ident st in
          let params = parse_params st in
          expect st Lexer.SEMI;
          Ast.Extern { name; arity = List.length params; pos = t.pos }
      | Lexer.KW_var ->
          let name = expect_ident st in
          let array =
            if at st Lexer.LBRACKET then begin
              advance st;
              expect st Lexer.RBRACKET;
              true
            end
            else false
          in
          expect st Lexer.SEMI;
          Ast.Extern_var { name; array; pos = t.pos }
      | tok ->
          fail_at t.pos "expected 'func' or 'var' after 'extern', found %s"
            (Lexer.token_name tok))
  | Lexer.KW_const ->
      if static then fail_at t.pos "'static const' is not supported";
      let name = expect_ident st in
      expect st Lexer.EQ;
      let value = expect_int st in
      expect st Lexer.SEMI;
      Ast.Const { name; value; pos = t.pos }
  | Lexer.KW_var ->
      let name = expect_ident st in
      let size =
        if at st Lexer.LBRACKET then begin
          advance st;
          let n = expect_int st in
          expect st Lexer.RBRACKET;
          if n <= 0L || n > 4194304L then
            fail_at t.pos "array size %Ld out of range" n;
          Int64.to_int n
        end
        else 1
      in
      let init =
        if at st Lexer.EQ then begin
          advance st;
          Some (parse_global_init st)
        end
        else None
      in
      expect st Lexer.SEMI;
      Ast.Global { name; static; size; init; pos = t.pos }
  | Lexer.KW_func ->
      let name = expect_ident st in
      let params = parse_params st in
      let body = parse_block st in
      Ast.Func { name; static; params; body; pos = t.pos }
  | tok ->
      fail_at t'.pos "expected a top-level declaration, found %s"
        (Lexer.token_name tok)

let parse src =
  let st = { toks = Lexer.tokenize src } in
  let rec go acc =
    if at st Lexer.EOF then List.rev acc
    else go (parse_top st :: acc)
  in
  go []

let parse_result src =
  match parse src with
  | p -> Ok p
  | exception Error (m, pos) | exception Lexer.Error (m, pos) ->
      Error (Printf.sprintf "line %d, col %d: %s" pos.Ast.line pos.Ast.col m)
