type pos = { line : int; col : int }

type binop =
  | Add | Sub | Mul | Div | Rem
  | Shl | Shr
  | Band | Bor | Bxor
  | Eq | Ne | Lt | Le | Gt | Ge
  | Land | Lor

type unop = Neg | Lnot | Bnot

type expr = { desc : expr_desc; pos : pos }

and expr_desc =
  | Int of int64
  | Ident of string
  | Str of string
  | Index of expr * expr
  | Addr_of of string
  | Unary of unop * expr
  | Binary of binop * expr * expr
  | Call of string * expr list

type lvalue =
  | Lident of string
  | Lindex of expr * expr

type stmt = { sdesc : stmt_desc; spos : pos }

and stmt_desc =
  | Decl of string * expr option
  | Decl_array of string * int
  | Assign of lvalue * expr
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | For of stmt option * expr option * stmt option * stmt list
  | Return of expr option
  | Expr of expr

type global_init = Scalar_init of int64 | Array_init of int64 list

type top =
  | Extern of { name : string; arity : int; pos : pos }
  | Extern_var of { name : string; array : bool; pos : pos }
  | Global of {
      name : string;
      static : bool;
      size : int;
      init : global_init option;
      pos : pos;
    }
  | Const of { name : string; value : int64; pos : pos }
  | Func of {
      name : string;
      static : bool;
      params : string list;
      body : stmt list;
      pos : pos;
    }

type program = top list

let no_pos = { line = 0; col = 0 }
let mk_expr ?(pos = no_pos) desc = { desc; pos }
let mk_stmt ?(pos = no_pos) sdesc = { sdesc; spos = pos }

let binop_name = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Rem -> "%"
  | Shl -> "<<" | Shr -> ">>"
  | Band -> "&" | Bor -> "|" | Bxor -> "^"
  | Eq -> "==" | Ne -> "!=" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="
  | Land -> "&&" | Lor -> "||"

let pp_binop ppf b = Format.pp_print_string ppf (binop_name b)
