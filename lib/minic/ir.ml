type vreg = int
type label = int

type cmp = Ceq | Cne | Clt | Cle | Cgt | Cge

type binop =
  | Add | Sub | Mul | Div | Rem
  | And | Or | Xor | Shl | Shr
  | Cmp of cmp

type callee = Cdirect of string | Cindirect of vreg

type instr =
  | Li of { dst : vreg; value : int64 }
  | Bin of { dst : vreg; op : binop; a : vreg; b : vreg }
  | Bini of { dst : vreg; op : binop; a : vreg; imm : int }
  | Ld of { dst : vreg; base : vreg; off : int }
  | St of { src : vreg; base : vreg; off : int }
  | La of { dst : vreg; sym : string; off : int }
  | Laslot of { dst : vreg; slot : int }
  | Call of { dst : vreg option; callee : callee; args : vreg list }

type term =
  | Ret of vreg option
  | Jmp of label
  | Cbr of { cond : vreg; ifso : label; ifnot : label }

type block = { label : label; mutable body : instr list; mutable term : term }

type func = {
  fname : string;
  fstatic : bool;
  params : vreg list;
  mutable blocks : block list;
  mutable nvregs : int;
  mutable slots : int array;
}

(* The vregs an instruction writes and reads, and a terminator reads,
   each passed to [f] in operand order. *)
let iter_defs f = function
  | Li { dst; _ } | Bin { dst; _ } | Bini { dst; _ } | Ld { dst; _ }
  | La { dst; _ } | Laslot { dst; _ } | Call { dst = Some dst; _ } -> f dst
  | St _ | Call { dst = None; _ } -> ()

let iter_uses f = function
  | Li _ | La _ | Laslot _ -> ()
  | Bin { a; b; _ } -> f a; f b
  | Bini { a; _ } -> f a
  | Ld { base; _ } -> f base
  | St { src; base; _ } -> f src; f base
  | Call { callee; args; _ } ->
      (match callee with Cdirect _ -> () | Cindirect v -> f v);
      List.iter f args

let iter_term_uses f = function
  | Ret None | Jmp _ -> ()
  | Ret (Some v) | Cbr { cond = v; _ } -> f v

let label_bound fn =
  List.fold_left
    (fun n b ->
      let n = Int.max n (b.label + 1) in
      match b.term with
      | Ret _ -> n
      | Jmp l -> Int.max n (l + 1)
      | Cbr { ifso; ifnot; _ } -> Int.max n (Int.max ifso ifnot + 1))
    0 fn.blocks

let map_instr_regs f = function
  | Li { dst; value } -> Li { dst = f dst; value }
  | Bin { dst; op; a; b } -> Bin { dst = f dst; op; a = f a; b = f b }
  | Bini { dst; op; a; imm } -> Bini { dst = f dst; op; a = f a; imm }
  | Ld { dst; base; off } -> Ld { dst = f dst; base = f base; off }
  | St { src; base; off } -> St { src = f src; base = f base; off }
  | La { dst; sym; off } -> La { dst = f dst; sym; off }
  | Laslot { dst; slot } -> Laslot { dst = f dst; slot }
  | Call { dst; callee; args } ->
      let callee =
        match callee with
        | Cdirect _ as c -> c
        | Cindirect v -> Cindirect (f v)
      in
      Call { dst = Option.map f dst; callee; args = List.map f args }

let map_term_regs f = function
  | Ret v -> Ret (Option.map f v)
  | Jmp _ as t -> t
  | Cbr { cond; ifso; ifnot } -> Cbr { cond = f cond; ifso; ifnot }

let cmp_name = function
  | Ceq -> "eq" | Cne -> "ne" | Clt -> "lt" | Cle -> "le" | Cgt -> "gt"
  | Cge -> "ge"

let binop_name = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div" | Rem -> "rem"
  | And -> "and" | Or -> "or" | Xor -> "xor" | Shl -> "shl" | Shr -> "shr"
  | Cmp c -> "cmp" ^ cmp_name c

let pp_v ppf v = Format.fprintf ppf "v%d" v

let pp_instr ppf = function
  | Li { dst; value } -> Format.fprintf ppf "%a = %Ld" pp_v dst value
  | Bin { dst; op; a; b } ->
      Format.fprintf ppf "%a = %s %a, %a" pp_v dst (binop_name op) pp_v a pp_v b
  | Bini { dst; op; a; imm } ->
      Format.fprintf ppf "%a = %s %a, #%d" pp_v dst (binop_name op) pp_v a imm
  | Ld { dst; base; off } ->
      Format.fprintf ppf "%a = load %d(%a)" pp_v dst off pp_v base
  | St { src; base; off } ->
      Format.fprintf ppf "store %a, %d(%a)" pp_v src off pp_v base
  | La { dst; sym; off = 0 } -> Format.fprintf ppf "%a = &%s" pp_v dst sym
  | La { dst; sym; off } -> Format.fprintf ppf "%a = &%s+%d" pp_v dst sym off
  | Laslot { dst; slot } -> Format.fprintf ppf "%a = &slot%d" pp_v dst slot
  | Call { dst; callee; args } ->
      (match dst with
      | Some d -> Format.fprintf ppf "%a = call " pp_v d
      | None -> Format.fprintf ppf "call ");
      (match callee with
      | Cdirect f -> Format.fprintf ppf "%s" f
      | Cindirect v -> Format.fprintf ppf "*%a" pp_v v);
      Format.fprintf ppf "(%a)"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           pp_v)
        args

let pp_term ppf = function
  | Ret None -> Format.pp_print_string ppf "ret"
  | Ret (Some v) -> Format.fprintf ppf "ret %a" pp_v v
  | Jmp l -> Format.fprintf ppf "jmp L%d" l
  | Cbr { cond; ifso; ifnot } ->
      Format.fprintf ppf "cbr %a, L%d, L%d" pp_v cond ifso ifnot

let pp_func ppf fn =
  Format.fprintf ppf "@[<v>func %s(%a), %d vregs, %d slots@,"
    fn.fname
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       pp_v)
    fn.params fn.nvregs (Array.length fn.slots);
  List.iter
    (fun b ->
      Format.fprintf ppf "L%d:@," b.label;
      List.iter (fun i -> Format.fprintf ppf "  %a@," pp_instr i) b.body;
      Format.fprintf ppf "  %a@," pp_term b.term)
    fn.blocks;
  Format.fprintf ppf "@]"

let validate fn =
  let ( let* ) = Result.bind in
  let fail fmt =
    Format.kasprintf (fun m -> Error (fn.fname ^ ": " ^ m)) fmt
  in
  let* () = if fn.blocks = [] then fail "no blocks" else Ok () in
  let labels = Hashtbl.create 16 in
  let* () =
    List.fold_left
      (fun acc b ->
        let* () = acc in
        if b.label < 0 then fail "negative label L%d" b.label
        else if Hashtbl.mem labels b.label then
          fail "duplicate label L%d" b.label
        else (Hashtbl.replace labels b.label (); Ok ()))
      (Ok ()) fn.blocks
  in
  (* Each check reports the last offending item of its list, as the
     right-to-left folds it replaces did; nothing here allocates unless a
     check fails. *)
  let bad = ref false and bad_vreg = ref 0 in
  let check_vreg v =
    if v < 0 || v >= fn.nvregs then begin
      bad := true;
      bad_vreg := v
    end
  in
  let vregs_checked () =
    if !bad then begin
      bad := false;
      fail "vreg v%d out of range" !bad_vreg
    end
    else Ok ()
  in
  let check_instr i =
    iter_defs check_vreg i;
    iter_uses check_vreg i;
    let* () = vregs_checked () in
    match i with
    | Bini { imm; _ } ->
        if imm < 0 || imm > 255 then fail "immediate %d out of range" imm
        else Ok ()
    | Laslot { slot; _ } ->
        if slot < 0 || slot >= Array.length fn.slots then
          fail "slot %d out of range" slot
        else Ok ()
    | Ld { off; _ } | St { off; _ } | La { off; _ } ->
        if not (Isa.Insn.fits_disp16 off) then
          fail "offset %d out of range" off
        else Ok ()
    | _ -> Ok ()
  in
  let last_error acc i = match check_instr i with Ok () -> acc | e -> e in
  let check_target l =
    if Hashtbl.mem labels l then Ok ()
    else fail "jump to unknown label L%d" l
  in
  List.fold_left
    (fun acc b ->
      let* () = acc in
      let* () = List.fold_left last_error (Ok ()) b.body in
      iter_term_uses check_vreg b.term;
      let* () = vregs_checked () in
      match b.term with
      | Ret _ -> Ok ()
      | Jmp l -> check_target l
      | Cbr { ifso; ifnot; _ } ->
          let* () = check_target ifso in
          check_target ifnot)
    (Ok ()) fn.blocks
