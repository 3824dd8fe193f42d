(** Abstract syntax of minic, the small C-like language the benchmark suite
    is written in.

    Every value is a 64-bit integer. Globals are scalars or arrays of
    quadwords; string literals are arrays of one character per quadword.
    [&name] takes the address of a global or of a function (the latter is
    how procedure variables — and hence calls whose destination the
    optimizer cannot examine — arise). A call through a scalar variable is
    an indirect call. *)

type pos = { line : int; col : int }

type binop =
  | Add | Sub | Mul | Div | Rem
  | Shl | Shr                      (* arithmetic right shift *)
  | Band | Bor | Bxor
  | Eq | Ne | Lt | Le | Gt | Ge
  | Land | Lor                     (* short-circuit *)

type unop = Neg | Lnot | Bnot

type expr = { desc : expr_desc; pos : pos }

and expr_desc =
  | Int of int64
  | Ident of string               (* variable, or array decaying to address *)
  | Str of string                 (* string literal: address of a quad-per-char array *)
  | Index of expr * expr          (* e1[e2]: quadword load at e1 + 8*e2 *)
  | Addr_of of string             (* &global or &function *)
  | Unary of unop * expr
  | Binary of binop * expr * expr
  | Call of string * expr list    (* direct, or indirect via scalar var *)

type lvalue =
  | Lident of string
  | Lindex of expr * expr         (* e1[e2] = ... *)

type stmt = { sdesc : stmt_desc; spos : pos }

and stmt_desc =
  | Decl of string * expr option          (* var x; / var x = e; *)
  | Decl_array of string * int            (* var x[n]; (stack array) *)
  | Assign of lvalue * expr
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | For of stmt option * expr option * stmt option * stmt list
  | Return of expr option
  | Expr of expr                          (* expression statement *)

type global_init = Scalar_init of int64 | Array_init of int64 list

type top =
  | Extern of { name : string; arity : int; pos : pos }
  | Extern_var of { name : string; array : bool; pos : pos }
      (** declaration of a library routine defined elsewhere *)
  | Global of {
      name : string;
      static : bool;          (** [static] = local binding *)
      size : int;             (** element count; 1 for scalars *)
      init : global_init option;
      pos : pos;
    }
  | Const of { name : string; value : int64; pos : pos }
      (** compile-time integer constant *)
  | Func of {
      name : string;
      static : bool;
      params : string list;
      body : stmt list;
      pos : pos;
    }

type program = top list

val pp_binop : Format.formatter -> binop -> unit

val no_pos : pos
val mk_expr : ?pos:pos -> expr_desc -> expr
val mk_stmt : ?pos:pos -> stmt_desc -> stmt
