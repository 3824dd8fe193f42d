type binding = Local | Global

type def =
  | Proc of proc_desc
  | Object of { section : Section.t; offset : int; size : int }
  | Common of { size : int }

and proc_desc = {
  offset : int;
  size : int;
  exported : bool;
  uses_gp : bool;
  gp_setup_at_entry : bool;
}

type t = { name : string; binding : binding; def : def }

let proc ?(binding = Global) ?(exported = true) ?(uses_gp = true)
    ?(gp_setup_at_entry = false) ~name ~offset ~size () =
  { name;
    binding;
    def = Proc { offset; size; exported; uses_gp; gp_setup_at_entry } }

let obj ?(binding = Global) ~name ~section ~offset ~size () =
  { name; binding; def = Object { section; offset; size } }

let common ~name ~size = { name; binding = Global; def = Common { size } }

let is_proc s = match s.def with Proc _ -> true | _ -> false

let pp ppf s =
  let b = match s.binding with Local -> "local" | Global -> "global" in
  match s.def with
  | Proc p ->
      Format.fprintf ppf "%s %s: proc .text+%#x size=%d%s%s" b s.name p.offset
        p.size
        (if p.exported then " exported" else "")
        (if p.gp_setup_at_entry then " gp@entry" else "")
  | Object o ->
      Format.fprintf ppf "%s %s: %a+%#x size=%d" b s.name Section.pp o.section
        o.offset o.size
  | Common c -> Format.fprintf ppf "%s %s: common size=%d" b s.name c.size
