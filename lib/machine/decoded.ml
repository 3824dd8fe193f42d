(* Pre-decoded executable images: the simulator's fast-path representation.

   Decoding an image's text once into flat integer arrays removes every
   per-instruction allocation the interpreter used to pay — no [Reg.t list]
   from [Insn.uses]/[defs], no variant dispatch through [Latency.pipe_of],
   no re-decode per simulation. All per-micro-op facts the timing loop
   needs are packed into parallel unboxed [int array]s indexed by the
   instruction's word index in the text segment. *)

module I = Isa.Insn

(* Kind encoding: a single flat integer the execute loop can jump-table on.
   Binary operates fold the operator and the operand form into the kind
   itself (register form at [k_op_base + op], literal form at
   [k_opi_base + op]); [Ldah] pre-scales its displacement so it shares the
   [Lda] kind. *)

let k_lda = 0 (* ra <- rb + imm   (Lda, and Ldah with imm pre-scaled) *)
let k_ldq = 1
let k_stq = 2
let k_br = 3 (* Br and Bsr: ra <- pc+4, goto precomputed target *)
let k_jump = 4 (* register-indirect; target from rb at run time *)
let k_bcond = 5 (* condition index in rc, precomputed target *)
let k_op_base = 6 (* 6..20: binop with register operand *)
let k_opi_base = 21 (* 21..35: binop with 8-bit literal in imm *)
let k_syscall = 36 (* Call_pal 0x83 *)
let k_pal = 37 (* any other Call_pal; code in imm *)

let binop_index = function
  | I.Addq -> 0
  | I.Subq -> 1
  | I.Mulq -> 2
  | I.Cmpeq -> 3
  | I.Cmplt -> 4
  | I.Cmple -> 5
  | I.Cmpult -> 6
  | I.Cmpule -> 7
  | I.And_ -> 8
  | I.Bis -> 9
  | I.Xor -> 10
  | I.Ornot -> 11
  | I.Sll -> 12
  | I.Srl -> 13
  | I.Sra -> 14

let cond_index = function
  | I.Beq -> 0
  | I.Bne -> 1
  | I.Blt -> 2
  | I.Ble -> 3
  | I.Bge -> 4
  | I.Bgt -> 5
  | I.Blbc -> 6
  | I.Blbs -> 7

(* flag bits *)
let flag_nop = 1

type t = {
  image : Linker.Image.t;
  insns : I.t array;  (** the symbolic form, for attribution *)
  kind : int array;
  ra : int array;  (** destination / value register *)
  rb : int array;  (** base / source register *)
  rc : int array;  (** operate destination, or condition index *)
  imm : int array;  (** displacement (Ldah pre-scaled), literal, or PAL code *)
  uses : int array;  (** register read-set bitmask *)
  defs : int array;  (** register write-set bitmask *)
  lat : int array;  (** result latency, cycles *)
  pipe : int array;  (** 0 = E, 1 = A *)
  flags : int array;
  target : int array;  (** absolute PC of a precomputed branch target *)
}

let image t = t.image
let length t = Array.length t.insns

let decode_insn ~pc insn =
  let r = Isa.Reg.to_int in
  let kind, ra, rb, rc, imm, target =
    match insn with
    | I.Lda { ra; rb; disp } -> (k_lda, r ra, r rb, 0, disp, 0)
    | I.Ldah { ra; rb; disp } -> (k_lda, r ra, r rb, 0, disp * 65536, 0)
    | I.Ldq { ra; rb; disp } -> (k_ldq, r ra, r rb, 0, disp, 0)
    | I.Stq { ra; rb; disp } -> (k_stq, r ra, r rb, 0, disp, 0)
    | I.Br { ra; disp } | I.Bsr { ra; disp } ->
        (k_br, r ra, 0, 0, disp, pc + 4 + (4 * disp))
    | I.Bcond { cond; ra; disp } ->
        (k_bcond, r ra, 0, cond_index cond, disp, pc + 4 + (4 * disp))
    | I.Jump { ra; rb; _ } -> (k_jump, r ra, r rb, 0, 0, 0)
    | I.Op { op; ra; rb = I.Rb rb; rc } ->
        (k_op_base + binop_index op, r ra, r rb, r rc, 0, 0)
    | I.Op { op; ra; rb = I.Imm n; rc } ->
        (k_opi_base + binop_index op, r ra, 0, r rc, n, 0)
    | I.Call_pal 0x83 -> (k_syscall, 0, 0, 0, 0x83, 0)
    | I.Call_pal code -> (k_pal, 0, 0, 0, code, 0)
  in
  let flags = if I.is_nop insn then flag_nop else 0 in
  (kind, ra, rb, rc, imm, target, flags)

let of_insns (image : Linker.Image.t) insns =
  let n = Array.length insns in
  let kind = Array.make n 0
  and ra = Array.make n 0
  and rb = Array.make n 0
  and rc = Array.make n 0
  and imm = Array.make n 0
  and uses = Array.make n 0
  and defs = Array.make n 0
  and lat = Array.make n 0
  and pipe = Array.make n 0
  and flags = Array.make n 0
  and target = Array.make n 0 in
  let base = image.Linker.Image.text_base in
  for i = 0 to n - 1 do
    let insn = insns.(i) in
    let k, a, b, c, im, tgt, fl = decode_insn ~pc:(base + (4 * i)) insn in
    kind.(i) <- k;
    ra.(i) <- a;
    rb.(i) <- b;
    rc.(i) <- c;
    imm.(i) <- im;
    target.(i) <- tgt;
    flags.(i) <- fl;
    uses.(i) <- I.uses_mask insn;
    defs.(i) <- I.defs_mask insn;
    lat.(i) <- Isa.Latency.latency insn;
    pipe.(i) <- (match Isa.Latency.pipe_of insn with Isa.Latency.E -> 0 | Isa.Latency.A -> 1)
  done;
  { image; insns; kind; ra; rb; rc; imm; uses; defs; lat; pipe; flags; target }

let of_image (image : Linker.Image.t) =
  match Isa.Decode.of_bytes_loc image.Linker.Image.text with
  | Ok insns -> Ok (of_insns image insns)
  | Error (off, e) -> Error (image.Linker.Image.text_base + off, e)
