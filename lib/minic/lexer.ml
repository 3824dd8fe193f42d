type token =
  | INT of int64
  | IDENT of string
  | STRING of string
  | KW_var | KW_func | KW_extern | KW_static | KW_const
  | KW_if | KW_else | KW_while | KW_for | KW_return
  | LPAREN | RPAREN | LBRACE | RBRACE | LBRACKET | RBRACKET
  | COMMA | SEMI
  | PLUS | MINUS | STAR | SLASH | PERCENT
  | SHL | SHR | AMP | PIPE | CARET | TILDE | BANG
  | AMPAMP | PIPEPIPE
  | EQ | EQEQ | NE | LT | LE | GT | GE
  | EOF

type t = { tok : token; pos : Ast.pos }

exception Error of string * Ast.pos

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_digit c = c >= '0' && c <= '9'
let is_ident_char c = is_ident_start c || is_digit c
let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

(* The ends of an identifier, a hex literal's digits and a decimal
   literal starting at [j]. *)
let rec ident_end src n j =
  if j < n && is_ident_char (String.unsafe_get src j) then ident_end src n (j + 1)
  else j

let rec hex_end src n j =
  if j < n && is_hex (String.unsafe_get src j) then hex_end src n (j + 1) else j

let rec digits_end src n j =
  if j < n && is_digit (String.unsafe_get src j) then digits_end src n (j + 1)
  else j

(* Does [src.[i] .. src.[i + len - 1]] spell [w]? *)
let rec same src i w k =
  k = String.length w || (src.[i + k] = w.[k] && same src i w (k + 1))

let spells src i len w = String.length w = len && same src i w 0

(* The keyword spelled at [i], read in place so that only an identifier
   allocates its name. *)
let keyword_at src i len =
  match src.[i] with
  | 'v' when spells src i len "var" -> Some KW_var
  | 'f' when spells src i len "func" -> Some KW_func
  | 'f' when spells src i len "for" -> Some KW_for
  | 'e' when spells src i len "extern" -> Some KW_extern
  | 'e' when spells src i len "else" -> Some KW_else
  | 's' when spells src i len "static" -> Some KW_static
  | 'c' when spells src i len "const" -> Some KW_const
  | 'i' when spells src i len "if" -> Some KW_if
  | 'w' when spells src i len "while" -> Some KW_while
  | 'r' when spells src i len "return" -> Some KW_return
  | _ -> None

let rec line_end src n j =
  if j < n && String.unsafe_get src j <> '\n' then line_end src n (j + 1) else j

(* The token list is built front to back as [go] returns, so it needs no
   reversal; [go] recurses once per token. *)
let tokenize src =
  let n = String.length src in
  let line = ref 1 and bol = ref 0 in
  let pos i = { Ast.line = !line; col = i - !bol + 1 } in
  let error i msg = raise (Error (msg, pos i)) in
  let token i tok = { tok; pos = pos i } in
  let newline i = incr line; bol := i + 1 in
  let rec skip_block_comment i start =
    if i + 1 >= n then error start "unterminated comment"
    else if src.[i] = '*' && src.[i + 1] = '/' then i + 2
    else begin
      if src.[i] = '\n' then newline i;
      skip_block_comment (i + 1) start
    end
  in
  let lex_escape i =
    (* [i] points after the backslash; returns (char value, next index). *)
    if i >= n then error (i - 1) "unterminated escape"
    else
      match src.[i] with
      | 'n' -> (10, i + 1)
      | 't' -> (9, i + 1)
      | '0' -> (0, i + 1)
      | '\\' -> (92, i + 1)
      | '\'' -> (39, i + 1)
      | '"' -> (34, i + 1)
      | c -> error i (Printf.sprintf "bad escape '\\%c'" c)
  in
  let rec go i =
    if i >= n then [ token i EOF ]
    else
      match src.[i] with
      | ' ' | '\t' | '\r' -> go (i + 1)
      | '\n' -> newline i; go (i + 1)
      | '/' when i + 1 < n && src.[i + 1] = '/' -> go (line_end src n (i + 1))
      | '/' when i + 1 < n && src.[i + 1] = '*' ->
          go (skip_block_comment (i + 2) i)
      | c when is_ident_start c ->
          let j = ident_end src n i in
          let t =
            token i
              (match keyword_at src i (j - i) with
              | Some k -> k
              | None -> IDENT (String.sub src i (j - i)))
          in
          t :: go j
      | '0' when i + 1 < n && (src.[i + 1] = 'x' || src.[i + 1] = 'X') ->
          let j = hex_end src n (i + 2) in
          if j = i + 2 then error i "empty hex literal";
          let t =
            match Int64.of_string_opt (String.sub src i (j - i)) with
            | Some v -> token i (INT v)
            | None -> error i "hex literal out of range"
          in
          t :: go j
      | c when is_digit c ->
          let j = digits_end src n i in
          let t =
            match Int64.of_string_opt (String.sub src i (j - i)) with
            | Some v -> token i (INT v)
            | None -> error i "integer literal out of range"
          in
          t :: go j
      | '\'' ->
          let value, j =
            if i + 1 >= n then error i "unterminated char literal"
            else if src.[i + 1] = '\\' then lex_escape (i + 2)
            else (Char.code src.[i + 1], i + 2)
          in
          if j >= n || src.[j] <> '\'' then error i "unterminated char literal";
          let t = token i (INT (Int64.of_int value)) in
          t :: go (j + 1)
      | '"' ->
          let buf = Buffer.create 16 in
          let rec str j =
            if j >= n then error i "unterminated string literal"
            else
              match src.[j] with
              | '"' -> j + 1
              | '\\' ->
                  let v, j' = lex_escape (j + 1) in
                  Buffer.add_char buf (Char.chr v);
                  str j'
              | '\n' -> error i "newline in string literal"
              | c -> Buffer.add_char buf c; str (j + 1)
          in
          let j = str (i + 1) in
          let t = token i (STRING (Buffer.contents buf)) in
          t :: go j
      | '(' -> one i LPAREN
      | ')' -> one i RPAREN
      | '{' -> one i LBRACE
      | '}' -> one i RBRACE
      | '[' -> one i LBRACKET
      | ']' -> one i RBRACKET
      | ',' -> one i COMMA
      | ';' -> one i SEMI
      | '+' -> one i PLUS
      | '-' -> one i MINUS
      | '*' -> one i STAR
      | '/' -> one i SLASH
      | '%' -> one i PERCENT
      | '~' -> one i TILDE
      | '^' -> one i CARET
      | '&' when i + 1 < n && src.[i + 1] = '&' -> two i AMPAMP
      | '&' -> one i AMP
      | '|' when i + 1 < n && src.[i + 1] = '|' -> two i PIPEPIPE
      | '|' -> one i PIPE
      | '=' when i + 1 < n && src.[i + 1] = '=' -> two i EQEQ
      | '=' -> one i EQ
      | '!' when i + 1 < n && src.[i + 1] = '=' -> two i NE
      | '!' -> one i BANG
      | '<' when i + 1 < n && src.[i + 1] = '<' -> two i SHL
      | '<' when i + 1 < n && src.[i + 1] = '=' -> two i LE
      | '<' -> one i LT
      | '>' when i + 1 < n && src.[i + 1] = '>' -> two i SHR
      | '>' when i + 1 < n && src.[i + 1] = '=' -> two i GE
      | '>' -> one i GT
      | c -> error i (Printf.sprintf "unexpected character %C" c)
  (* a one- or two-character token at [i], then the rest *)
  and one i tok =
    let t = token i tok in
    t :: go (i + 1)
  and two i tok =
    let t = token i tok in
    t :: go (i + 2)
  in
  go 0

let token_name = function
  | INT _ -> "integer"
  | IDENT _ -> "identifier"
  | STRING _ -> "string"
  | KW_var -> "'var'" | KW_func -> "'func'" | KW_extern -> "'extern'"
  | KW_static -> "'static'" | KW_const -> "'const'"
  | KW_if -> "'if'" | KW_else -> "'else'" | KW_while -> "'while'"
  | KW_for -> "'for'" | KW_return -> "'return'"
  | LPAREN -> "'('" | RPAREN -> "')'" | LBRACE -> "'{'" | RBRACE -> "'}'"
  | LBRACKET -> "'['" | RBRACKET -> "']'"
  | COMMA -> "','" | SEMI -> "';'"
  | PLUS -> "'+'" | MINUS -> "'-'" | STAR -> "'*'" | SLASH -> "'/'"
  | PERCENT -> "'%'"
  | SHL -> "'<<'" | SHR -> "'>>'" | AMP -> "'&'" | PIPE -> "'|'"
  | CARET -> "'^'" | TILDE -> "'~'" | BANG -> "'!'"
  | AMPAMP -> "'&&'" | PIPEPIPE -> "'||'"
  | EQ -> "'='" | EQEQ -> "'=='" | NE -> "'!='"
  | LT -> "'<'" | LE -> "'<='" | GT -> "'>'" | GE -> "'>='"
  | EOF -> "end of input"
