type t =
  | Addr of { symbol : string; addend : int }
  | Const of int64

let pp ppf = function
  | Addr { symbol; addend = 0 } -> Format.fprintf ppf ".quad %s" symbol
  | Addr { symbol; addend } -> Format.fprintf ppf ".quad %s%+d" symbol addend
  | Const c -> Format.fprintf ppf ".quad %#Lx" c

let addr ?(addend = 0) symbol = Addr { symbol; addend }
