type cond = Beq | Bne | Blt | Ble | Bge | Bgt | Blbc | Blbs

type jump_kind = Jmp | Jsr | Ret

type operand = Rb of Reg.t | Imm of int

type binop =
  | Addq | Subq | Mulq
  | Cmpeq | Cmplt | Cmple | Cmpult | Cmpule
  | And_ | Bis | Xor | Ornot
  | Sll | Srl | Sra

type t =
  | Lda of { ra : Reg.t; rb : Reg.t; disp : int }
  | Ldah of { ra : Reg.t; rb : Reg.t; disp : int }
  | Ldq of { ra : Reg.t; rb : Reg.t; disp : int }
  | Stq of { ra : Reg.t; rb : Reg.t; disp : int }
  | Br of { ra : Reg.t; disp : int }
  | Bsr of { ra : Reg.t; disp : int }
  | Bcond of { cond : cond; ra : Reg.t; disp : int }
  | Jump of { kind : jump_kind; ra : Reg.t; rb : Reg.t; hint : int }
  | Op of { op : binop; ra : Reg.t; rb : operand; rc : Reg.t }
  | Call_pal of int

let equal = ( = )

let nop = Op { op = Bis; ra = Reg.zero; rb = Rb Reg.zero; rc = Reg.zero }

let is_nop = function
  | Op { rc; _ } -> Reg.equal rc Reg.zero
  | Lda { ra; _ } | Ldah { ra; _ } -> Reg.equal ra Reg.zero
  | _ -> false

let mov src dst = Op { op = Bis; ra = src; rb = Rb src; rc = dst }

let not_zero r = not (Reg.equal r Reg.zero)
let keep rs = List.filter not_zero rs

let defs = function
  | Lda { ra; _ } | Ldah { ra; _ } | Ldq { ra; _ } -> keep [ ra ]
  | Stq _ -> []
  | Br { ra; _ } | Bsr { ra; _ } -> keep [ ra ]
  | Bcond _ -> []
  | Jump { ra; _ } -> keep [ ra ]
  | Op { rc; _ } -> keep [ rc ]
  | Call_pal _ -> keep [ Reg.v0 ]

let uses = function
  | Lda { rb; _ } | Ldah { rb; _ } | Ldq { rb; _ } -> keep [ rb ]
  | Stq { ra; rb; _ } -> keep [ ra; rb ]
  | Br _ | Bsr _ -> []
  | Bcond { ra; _ } -> keep [ ra ]
  | Jump { rb; _ } -> keep [ rb ]
  | Op { ra; rb; _ } -> (
      match rb with Rb rb -> keep [ ra; rb ] | Imm _ -> keep [ ra ])
  | Call_pal _ -> keep [ Reg.v0; Reg.a0; Reg.a1; Reg.a2 ]

(* Bitmask forms of [defs]/[uses]: bit [i] set iff register [i] is
   written/read. [Reg.zero] never appears, mirroring the list forms. These
   are what the simulator's pre-decoded fast path and the list scheduler
   consume — computed directly (no lists) so both stay allocation-light;
   the test suite checks them against the list forms on every instruction
   shape. *)

let defs_mask = function
  | Lda { ra; _ } | Ldah { ra; _ } | Ldq { ra; _ } -> Reg.bit ra
  | Stq _ -> 0
  | Br { ra; _ } | Bsr { ra; _ } -> Reg.bit ra
  | Bcond _ -> 0
  | Jump { ra; _ } -> Reg.bit ra
  | Op { rc; _ } -> Reg.bit rc
  | Call_pal _ -> Reg.bit Reg.v0

let uses_mask = function
  | Lda { rb; _ } | Ldah { rb; _ } | Ldq { rb; _ } -> Reg.bit rb
  | Stq { ra; rb; _ } -> Reg.bit ra lor Reg.bit rb
  | Br _ | Bsr _ -> 0
  | Bcond { ra; _ } -> Reg.bit ra
  | Jump { rb; _ } -> Reg.bit rb
  | Op { ra; rb; _ } ->
      Reg.bit ra lor (match rb with Rb rb -> Reg.bit rb | Imm _ -> 0)
  | Call_pal _ ->
      Reg.bit Reg.v0 lor Reg.bit Reg.a0 lor Reg.bit Reg.a1 lor Reg.bit Reg.a2

let is_load = function Ldq _ -> true | _ -> false
let is_store = function Stq _ -> true | _ -> false

let is_branch = function
  | Br _ | Bsr _ | Bcond _ | Jump _ -> true
  | _ -> false

let with_branch_disp i disp =
  match i with
  | Br { ra; _ } -> Br { ra; disp }
  | Bsr { ra; _ } -> Bsr { ra; disp }
  | Bcond { cond; ra; _ } -> Bcond { cond; ra; disp }
  | _ -> invalid_arg "Insn.with_branch_disp: not a PC-relative branch"

let fits_disp16 d = d >= -32768 && d <= 32767
let fits_disp21 d = d >= -1048576 && d <= 1048575

let split32_opt d =
  let lo = ((d land 0xffff) lxor 0x8000) - 0x8000 in
  let hi = (d - lo) asr 16 in
  if fits_disp16 hi then Some (hi, lo) else None

let fits_disp32 d = Option.is_some (split32_opt d)

let split32 d =
  match split32_opt d with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Insn.split32: %d out of range" d)

let cond_name = function
  | Beq -> "beq" | Bne -> "bne" | Blt -> "blt" | Ble -> "ble"
  | Bge -> "bge" | Bgt -> "bgt" | Blbc -> "blbc" | Blbs -> "blbs"

let binop_name = function
  | Addq -> "addq" | Subq -> "subq" | Mulq -> "mulq"
  | Cmpeq -> "cmpeq" | Cmplt -> "cmplt" | Cmple -> "cmple"
  | Cmpult -> "cmpult" | Cmpule -> "cmpule"
  | And_ -> "and" | Bis -> "bis" | Xor -> "xor" | Ornot -> "ornot"
  | Sll -> "sll" | Srl -> "srl" | Sra -> "sra"

let pp ppf i =
  let mem name ra rb disp =
    Format.fprintf ppf "%s %a, %d(%a)" name Reg.pp ra disp Reg.pp rb
  in
  match i with
  | _ when is_nop i && equal i nop -> Format.pp_print_string ppf "nop"
  | Lda { ra; rb; disp } -> mem "lda" ra rb disp
  | Ldah { ra; rb; disp } -> mem "ldah" ra rb disp
  | Ldq { ra; rb; disp } -> mem "ldq" ra rb disp
  | Stq { ra; rb; disp } -> mem "stq" ra rb disp
  | Br { ra; disp } when Reg.equal ra Reg.zero ->
      Format.fprintf ppf "br %+d" disp
  | Br { ra; disp } -> Format.fprintf ppf "br %a, %+d" Reg.pp ra disp
  | Bsr { ra; disp } -> Format.fprintf ppf "bsr %a, %+d" Reg.pp ra disp
  | Bcond { cond; ra; disp } ->
      Format.fprintf ppf "%s %a, %+d" (cond_name cond) Reg.pp ra disp
  | Jump { kind; ra; rb; hint } ->
      let name =
        match kind with Jmp -> "jmp" | Jsr -> "jsr" | Ret -> "ret"
      in
      Format.fprintf ppf "%s %a, (%a), %d" name Reg.pp ra Reg.pp rb hint
  | Op { op; ra; rb = Rb rb; rc } ->
      Format.fprintf ppf "%s %a, %a, %a" (binop_name op) Reg.pp ra Reg.pp rb
        Reg.pp rc
  | Op { op; ra; rb = Imm n; rc } ->
      Format.fprintf ppf "%s %a, #%d, %a" (binop_name op) Reg.pp ra n Reg.pp
        rc
  | Call_pal f -> Format.fprintf ppf "call_pal %#x" f

let to_string i = Format.asprintf "%a" pp i
