type t = Text | Data | Sdata | Bss | Sbss | Gat

let equal = ( = )

let name = function
  | Text -> ".text"
  | Data -> ".data"
  | Sdata -> ".sdata"
  | Bss -> ".bss"
  | Sbss -> ".sbss"
  | Gat -> ".lita"

let pp ppf s = Format.pp_print_string ppf (name s)
