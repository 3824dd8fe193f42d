type kind =
  | Literal of { gat_index : int }
  | Lituse_base of { load_offset : int }
  | Lituse_jsr of { load_offset : int }
  | Gpdisp of { anchor : int; pair : int }
  | Refquad of { symbol : string; addend : int }
  | Gprel16 of { symbol : string; addend : int }

type t = { section : Section.t; offset : int; kind : kind }

let v ~section ~offset kind = { section; offset; kind }

let pp_kind ppf = function
  | Literal { gat_index } -> Format.fprintf ppf "LITERAL[%d]" gat_index
  | Lituse_base { load_offset } ->
      Format.fprintf ppf "LITUSE_BASE(load@%#x)" load_offset
  | Lituse_jsr { load_offset } ->
      Format.fprintf ppf "LITUSE_JSR(load@%#x)" load_offset
  | Gpdisp { anchor; pair } ->
      Format.fprintf ppf "GPDISP(anchor=%#x, pair=%#x)" anchor pair
  | Refquad { symbol; addend = 0 } -> Format.fprintf ppf "REFQUAD(%s)" symbol
  | Refquad { symbol; addend } ->
      Format.fprintf ppf "REFQUAD(%s%+d)" symbol addend
  | Gprel16 { symbol; addend = 0 } -> Format.fprintf ppf "GPREL16(%s)" symbol
  | Gprel16 { symbol; addend } ->
      Format.fprintf ppf "GPREL16(%s%+d)" symbol addend

let pp ppf r =
  Format.fprintf ppf "%a+%#x: %a" Section.pp r.section r.offset pp_kind r.kind
