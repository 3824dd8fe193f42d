module R = Isa.Reg
module I = Isa.Insn

type label = int

type pool_key =
  | Paddr of Linker.Resolve.target * int
  | Pconst of int64

type anchor = Aentry | Alocal of label

type sinsn =
  | Raw of I.t
  | Gatload of { ra : R.t; key : pool_key }
  | Use of { insn : I.t; load_id : int; jsr : bool }
  | Gpsetup_hi of { base : R.t; anchor : anchor; lo_id : int }
  | Gpsetup_lo
  | Branch of { insn : I.t; target : label }
  | Gprel of {
      insn : I.t;
      target : Linker.Resolve.target;
      addend : int;
      part : part;
    }
  | Lea_wide of { ra : R.t; target : Linker.Resolve.target; addend : int }
  | Gatload_wide of { ra : R.t; key : pool_key }
  | Bsr_far of { ra : R.t; target : label }
  | Br_far of { ra : R.t; target : label }
  | Bcond_far of { cond : I.cond; ra : R.t; target : label }
  | Elided of sinsn

and part = Pfull | Phi | Plo of int

type node = {
  nid : int;
  mutable labels : label list;
  mutable insn : sinsn;
}

type proc = {
  sp_index : int;
  sp_name : string;
  sp_module : int;
  entry_label : label;
  mutable body : node array;
  mutable sp_gp_group : int;
}

type program = {
  world : Linker.Resolve.t;
  mutable procs : proc array;
  mutable next_label : int;
  mutable next_node : int;
  entry_name : string;
}

let fresh_label p =
  let l = p.next_label in
  p.next_label <- l + 1;
  l

let make_node p insn =
  let nid = p.next_node in
  p.next_node <- nid + 1;
  { nid; labels = []; insn }

let insn_of_width = function
  | Lea_wide _ | Gatload_wide _ -> 2
  | Bsr_far _ | Br_far _ -> 4
  | Bcond_far _ -> 5
  | Elided _ -> 0
  | _ -> 1

type index = {
  procs : proc array;
  home : int array;
  pos : int array;
  carrier : int array;
  sym_proc : int array;
}

let rec carry carrier nid = function
  | [] -> ()
  | l :: ls -> carrier.(l) <- nid; carry carrier nid ls

let index (p : program) =
  let home = Array.make p.next_node (-1) in
  let pos = Array.make p.next_node 0 in
  let carrier = Array.make p.next_label (-1) in
  let sym_proc = Array.make (Array.length p.world.Linker.Resolve.procs) (-1) in
  Array.iteri
    (fun pi proc ->
      sym_proc.(proc.sp_index) <- pi;
      Array.iteri
        (fun i n ->
          home.(n.nid) <- pi;
          pos.(n.nid) <- i;
          carry carrier n.nid n.labels)
        proc.body)
    p.procs;
  { procs = p.procs; home; pos; carrier; sym_proc }

let node_in ix pi id =
  if id >= 0 && id < Array.length ix.home && ix.home.(id) = pi then
    Some ix.procs.(pi).body.(ix.pos.(id))
  else None

let label_home ix l =
  if l < 0 || l >= Array.length ix.carrier || ix.carrier.(l) < 0 then -1
  else ix.home.(ix.carrier.(l))

let iter_nodes (p : program) f =
  Array.iter (fun proc -> Array.iter (f proc) proc.body) p.procs

let defs_mask = function
  | Raw i | Use { insn = i; _ } | Branch { insn = i; _ } | Gprel { insn = i; _ }
    -> I.defs_mask i
  | Gatload { ra; _ } | Lea_wide { ra; _ } | Gatload_wide { ra; _ } -> R.bit ra
  | Gpsetup_hi _ | Gpsetup_lo -> R.bit R.gp
  | Bsr_far { ra; _ } -> R.bit ra lor R.bit R.pv
  | Br_far { ra; _ } -> R.bit ra lor R.bit R.at
  | Bcond_far _ -> R.bit R.at
  | Elided _ -> 0

let uses_mask = function
  | Raw i | Use { insn = i; _ } | Branch { insn = i; _ } -> I.uses_mask i
  | Gatload _ | Gpsetup_lo | Lea_wide _ | Gatload_wide _ -> R.bit R.gp
  | Gpsetup_hi { base; _ } -> R.bit base
  | Gprel { insn; part = Pfull | Phi; _ } -> (
      (* for the full/high parts the base register is replaced by gp at
         lowering, but a folded store still reads its data register *)
      R.bit R.gp lor (match insn with I.Stq { ra; _ } -> R.bit ra | _ -> 0))
  | Gprel { insn; part = Plo _; _ } -> I.uses_mask insn
  | Bsr_far _ | Br_far _ -> 0
  | Bcond_far { ra; _ } -> R.bit ra
  | Elided _ -> 0

let static_insn_count (p : program) =
  Array.fold_left
    (fun acc proc ->
      Array.fold_left (fun acc n -> acc + insn_of_width n.insn) acc proc.body)
    0 p.procs
