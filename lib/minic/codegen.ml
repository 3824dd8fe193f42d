module R = Isa.Reg
module I = Isa.Insn

type local_callee = { lc_postgp : Masm.label }

type ctx = {
  masm : Masm.t;
  o2 : bool;
  local_callees : (string, local_callee) Hashtbl.t;
  optimistic : string -> bool;
      (* which globals to address directly GP-relative (the -G bet) *)
}

let scratch_a = R.t10
let scratch_b = R.t11

let arg_regs = R.[ a0; a1; a2; a3; a4; a5 ]

(* Constants an LDAH/LDA pair can build: hi * 65536 + lo with both
   halves signed 16-bit. That span is NOT the signed 32-bit range — its
   top is 0x7fff7fff, because 0x7fff8000..0x7fffffff would need
   hi = 0x8000, which overflows ldah's displacement (the bottom extends
   a little past -2^31 for the mirror reason). Anything outside goes to
   the literal pool. [Isa.Insn.fits_disp32] is that exact span; asking it
   keeps this bet and the link-time split in one place. *)
let fits32_64 v =
  Int64.equal v (Int64.of_int (Int64.to_int v))
  && I.fits_disp32 (Int64.to_int v)

let fits16_64 v =
  Int64.compare v (-32768L) >= 0 && Int64.compare v 32767L <= 0

(* Does the function need the GAT / a GP value at all? *)
let func_uses_gp (fn : Ir.func) =
  List.exists
    (fun (b : Ir.block) ->
      List.exists
        (fun (i : Ir.instr) ->
          match i with
          | Ir.La _ | Ir.Call _ -> true
          | Ir.Li { value; _ } -> not (fits32_64 value)
          | _ -> false)
        b.body)
    fn.Ir.blocks

let func_is_leaf (fn : Ir.func) =
  not
    (List.exists
       (fun (b : Ir.block) ->
         List.exists
           (fun i -> match i with Ir.Call _ -> true | _ -> false)
           b.body)
       fn.Ir.blocks)

type frame = {
  size : int;
  ra_off : int option;
  callee_offs : (R.t * int) list;
  spill_base : int;
  slot_offs : int array;
}

let build_frame ~save_ra ~callee_saved ~nspills ~(slots : int array) =
  let off = ref 0 in
  let alloc n = let o = !off in off := o + n; o in
  let ra_off = if save_ra then Some (alloc 8) else None in
  let callee_offs = List.map (fun r -> (r, alloc 8)) callee_saved in
  let spill_base = alloc (8 * nspills) in
  let slot_offs = Array.map (fun sz -> alloc sz) slots in
  let size = (!off + 15) land lnot 15 in
  { size; ra_off; callee_offs; spill_base; slot_offs }

type gen = {
  ctx : ctx;
  fn : Ir.func;
  alloc : Regalloc.allocation;
  frame : frame;
  uses_gp : bool;
  entry_label : Masm.label;
  epilogue_label : Masm.label;
  block_label : Masm.label array;  (* indexed by IR label *)
  mutable items : Masm.item list; (* reversed *)
  (* per physical register, the id of the GAT address load whose value it
     holds exactly, or -1: for LITUSE link emission *)
  la_binding : Masm.id array;
}

let emit g item = g.items <- item :: g.items

let invalidate g (r : R.t) = g.la_binding.(R.to_int r) <- -1

let invalidate_caller_saved g =
  List.iter (invalidate g) R.caller_saved;
  invalidate g R.gp

(* Forget the binding of every register [insn] writes. *)
let invalidate_defs g insn =
  let defs = ref (I.defs_mask insn) and r = ref 0 in
  while !defs <> 0 do
    if !defs land 1 <> 0 then g.la_binding.(!r) <- -1;
    defs := !defs lsr 1;
    incr r
  done

let emit_insn g insn =
  invalidate_defs g insn;
  emit g (Masm.Insn insn)

let emit_lituse g insn ~load ~jsr =
  invalidate_defs g insn;
  emit g (Masm.Lituse { insn; load; jsr })

let emit_gatload g ~ra entry =
  let id = Masm.fresh_id g.ctx.masm in
  invalidate g ra;
  emit g (Masm.Gatload { id; ra; entry });
  (match entry with
  | Objfile.Gat_entry.Addr _ -> g.la_binding.(R.to_int ra) <- id
  | Objfile.Gat_entry.Const _ -> ());
  id

let emit_gpsetup g ~base ~anchor =
  let lo = Masm.fresh_id g.ctx.masm in
  invalidate g R.gp;
  emit g (Masm.Gpsetup_hi { base; anchor; lo });
  emit g (Masm.Gpsetup_lo { id = lo })

let spill_off g s = g.frame.spill_base + (8 * s)

(* Load the value of vreg [v] into a register, reloading spills into
   [scratch]; returns the register holding the value. *)
let use_reg g v ~scratch =
  match g.alloc.Regalloc.loc.(v) with
  | Regalloc.Preg r -> r
  | Regalloc.Spill s ->
      emit_insn g (I.Ldq { ra = scratch; rb = R.sp; disp = spill_off g s });
      scratch

(* The register a definition of [v] should target. *)
let def_reg g v =
  match g.alloc.Regalloc.loc.(v) with
  | Regalloc.Preg r -> r
  | Regalloc.Spill _ -> scratch_a

(* Complete a definition of [v] computed into [def_reg g v]. *)
let finish_def g v =
  match g.alloc.Regalloc.loc.(v) with
  | Regalloc.Preg _ -> ()
  | Regalloc.Spill s ->
      emit_insn g (I.Stq { ra = scratch_a; rb = R.sp; disp = spill_off g s })

let emit_li g value dst =
  if fits16_64 value then
    emit_insn g (I.Lda { ra = dst; rb = R.zero; disp = Int64.to_int value })
  else if fits32_64 value then begin
    let hi, lo = I.split32 (Int64.to_int value) in
    emit_insn g (I.Ldah { ra = dst; rb = R.zero; disp = hi });
    emit_insn g (I.Lda { ra = dst; rb = dst; disp = lo })
  end
  else ignore (emit_gatload g ~ra:dst (Objfile.Gat_entry.Const value))

let op_of_binop : Ir.binop -> I.binop option = function
  | Ir.Add -> Some I.Addq
  | Ir.Sub -> Some I.Subq
  | Ir.Mul -> Some I.Mulq
  | Ir.And -> Some I.And_
  | Ir.Or -> Some I.Bis
  | Ir.Xor -> Some I.Xor
  | Ir.Shl -> Some I.Sll
  | Ir.Shr -> Some I.Sra
  | Ir.Div | Ir.Rem | Ir.Cmp _ -> None

(* Comparisons: the machine has cmpeq/cmplt/cmple only; the rest are
   synthesized by operand swap or by a trailing xor. *)
let gen_cmp g c ~ra ~(rb : I.operand) ~dst ~swap_reg =
  let swap () =
    (* materialize the literal so it can sit on the left *)
    match rb with
    | I.Rb r -> (r, I.Rb ra)
    | I.Imm n ->
        emit_insn g (I.Lda { ra = swap_reg; rb = R.zero; disp = n });
        (swap_reg, I.Rb ra)
  in
  match c with
  | Ir.Ceq -> emit_insn g (I.Op { op = I.Cmpeq; ra; rb; rc = dst })
  | Ir.Cne ->
      emit_insn g (I.Op { op = I.Cmpeq; ra; rb; rc = dst });
      emit_insn g (I.Op { op = I.Xor; ra = dst; rb = I.Imm 1; rc = dst })
  | Ir.Clt -> emit_insn g (I.Op { op = I.Cmplt; ra; rb; rc = dst })
  | Ir.Cle -> emit_insn g (I.Op { op = I.Cmple; ra; rb; rc = dst })
  | Ir.Cgt ->
      let ra', rb' = swap () in
      emit_insn g (I.Op { op = I.Cmplt; ra = ra'; rb = rb'; rc = dst })
  | Ir.Cge ->
      let ra', rb' = swap () in
      emit_insn g (I.Op { op = I.Cmple; ra = ra'; rb = rb'; rc = dst })

let gen_call g dst callee args =
  (* marshal arguments *)
  List.iteri
    (fun i v ->
      let areg = List.nth arg_regs i in
      match g.alloc.Regalloc.loc.(v) with
      | Regalloc.Preg r ->
          if not (R.equal r areg) then emit_insn g (I.mov r areg)
      | Regalloc.Spill s ->
          emit_insn g (I.Ldq { ra = areg; rb = R.sp; disp = spill_off g s }))
    args;
  (match callee with
  | Ir.Cdirect f when Hashtbl.mem g.ctx.local_callees f ->
      (* same-unit unexported callee: bsr skipping its GP setup; no PV
         load, no GP reset *)
      let { lc_postgp } = Hashtbl.find g.ctx.local_callees f in
      invalidate_caller_saved g;
      emit g
        (Masm.Branch { insn = I.Bsr { ra = R.ra; disp = 0 }; target = lc_postgp })
  | Ir.Cdirect f ->
      let gl =
        emit_gatload g ~ra:R.pv (Objfile.Gat_entry.addr f)
      in
      invalidate_caller_saved g;
      emit_lituse g
        (I.Jump { kind = I.Jsr; ra = R.ra; rb = R.pv; hint = 0 })
        ~load:gl ~jsr:true;
      if g.uses_gp then begin
        let anchor = Masm.fresh_label g.ctx.masm in
        emit g (Masm.Label anchor);
        emit_gpsetup g ~base:R.ra ~anchor
      end
  | Ir.Cindirect v ->
      let r = use_reg g v ~scratch:R.pv in
      if not (R.equal r R.pv) then emit_insn g (I.mov r R.pv);
      invalidate_caller_saved g;
      emit_insn g (I.Jump { kind = I.Jsr; ra = R.ra; rb = R.pv; hint = 0 });
      if g.uses_gp then begin
        let anchor = Masm.fresh_label g.ctx.masm in
        emit g (Masm.Label anchor);
        emit_gpsetup g ~base:R.ra ~anchor
      end);
  match dst with
  | None -> ()
  | Some v -> (
      match g.alloc.Regalloc.loc.(v) with
      | Regalloc.Preg r ->
          if not (R.equal r R.v0) then emit_insn g (I.mov R.v0 r)
      | Regalloc.Spill s ->
          emit_insn g (I.Stq { ra = R.v0; rb = R.sp; disp = spill_off g s }))

let gen_instr g (instr : Ir.instr) =
  match instr with
  | Ir.Li { dst; value } ->
      emit_li g value (def_reg g dst);
      finish_def g dst
  | Ir.Bin { dst; op = Ir.Cmp c; a; b } ->
      let ra = use_reg g a ~scratch:scratch_a in
      let rb = use_reg g b ~scratch:scratch_b in
      gen_cmp g c ~ra ~rb:(I.Rb rb) ~dst:(def_reg g dst) ~swap_reg:scratch_b;
      finish_def g dst
  | Ir.Bin { dst; op; a; b } ->
      let ra = use_reg g a ~scratch:scratch_a in
      let rb = use_reg g b ~scratch:scratch_b in
      let op =
        match op_of_binop op with
        | Some o -> o
        | None -> invalid_arg "Codegen: Div/Rem must be lowered before codegen"
      in
      emit_insn g (I.Op { op; ra; rb = I.Rb rb; rc = def_reg g dst });
      finish_def g dst
  | Ir.Bini { dst; op = Ir.Cmp c; a; imm } ->
      let ra = use_reg g a ~scratch:scratch_a in
      gen_cmp g c ~ra ~rb:(I.Imm imm) ~dst:(def_reg g dst)
        ~swap_reg:scratch_b;
      finish_def g dst
  | Ir.Bini { dst; op; a; imm } ->
      let ra = use_reg g a ~scratch:scratch_a in
      let op =
        match op_of_binop op with
        | Some o -> o
        | None -> invalid_arg "Codegen: Div/Rem must be lowered before codegen"
      in
      emit_insn g (I.Op { op; ra; rb = I.Imm imm; rc = def_reg g dst });
      finish_def g dst
  | Ir.Ld { dst; base; off } ->
      let rb = use_reg g base ~scratch:scratch_b in
      let insn = I.Ldq { ra = def_reg g dst; rb; disp = off } in
      (match g.la_binding.(R.to_int rb) with
      | -1 -> emit_insn g insn
      | load -> emit_lituse g insn ~load ~jsr:false);
      finish_def g dst
  | Ir.St { src; base; off } ->
      let rs = use_reg g src ~scratch:scratch_a in
      let rb = use_reg g base ~scratch:scratch_b in
      let insn = I.Stq { ra = rs; rb; disp = off } in
      (match g.la_binding.(R.to_int rb) with
      | -1 -> emit_insn g insn
      | load -> emit_lituse g insn ~load ~jsr:false)
  | Ir.La { dst; sym; off } ->
      let r = def_reg g dst in
      if g.ctx.optimistic sym then begin
        invalidate g r;
        emit g
          (Masm.Gpref
             { insn = I.Lda { ra = r; rb = R.gp; disp = 0 };
               symbol = sym;
               addend = off })
      end
      else
        ignore (emit_gatload g ~ra:r (Objfile.Gat_entry.addr ~addend:off sym));
      finish_def g dst
  | Ir.Laslot { dst; slot } ->
      let r = def_reg g dst in
      emit_insn g
        (I.Lda { ra = r; rb = R.sp; disp = g.frame.slot_offs.(slot) });
      finish_def g dst
  | Ir.Call { dst; callee; args } -> gen_call g dst callee args

let gen_term g (term : Ir.term) ~next_block =
  let branch_to l =
    emit g
      (Masm.Branch
         { insn = I.Br { ra = R.zero; disp = 0 };
           target = g.block_label.(l) })
  in
  match term with
  | Ir.Ret v ->
      (match v with
      | Some v -> (
          match g.alloc.Regalloc.loc.(v) with
          | Regalloc.Preg r ->
              if not (R.equal r R.v0) then emit_insn g (I.mov r R.v0)
          | Regalloc.Spill s ->
              emit_insn g
                (I.Ldq { ra = R.v0; rb = R.sp; disp = spill_off g s }))
      | None -> ());
      emit g
        (Masm.Branch
           { insn = I.Br { ra = R.zero; disp = 0 }; target = g.epilogue_label })
  | Ir.Jmp l ->
      if next_block <> Some l then branch_to l
  | Ir.Cbr { cond; ifso; ifnot } ->
      let rc = use_reg g cond ~scratch:scratch_a in
      emit g
        (Masm.Branch
           { insn = I.Bcond { cond = I.Bne; ra = rc; disp = 0 };
             target = g.block_label.(ifso) });
      if next_block <> Some ifnot then branch_to ifnot

(* --- scheduling: reorder straight-line runs --- *)

let is_run_breaker (item : Masm.item) =
  match item with
  | Masm.Label _ | Masm.Branch _ -> true
  | Masm.Lituse { jsr = true; _ } -> true
  | Masm.Insn i -> Isa.Insn.is_branch i || (match i with I.Call_pal _ -> true | _ -> false)
  | _ -> false

let schedule_proc items =
  let out = ref [] in
  let run = ref [] in
  let flush () =
    if !run <> [] then begin
      let scheduled = Masm.schedule_items (List.rev !run) in
      out := List.rev_append scheduled !out;
      run := []
    end
  in
  List.iter
    (fun item ->
      if is_run_breaker item then begin
        flush ();
        out := item :: !out
      end
      else run := item :: !run)
    items;
  flush ();
  List.rev !out

(* --- whole function --- *)

let gen_func ctx (fn : Ir.func) alloc =
  let uses_gp = func_uses_gp fn in
  let leaf = func_is_leaf fn in
  let frame =
    build_frame ~save_ra:(not leaf)
      ~callee_saved:alloc.Regalloc.used_callee_saved
      ~nspills:alloc.Regalloc.nspills ~slots:fn.Ir.slots
  in
  let g =
    { ctx;
      fn;
      alloc;
      frame;
      uses_gp;
      entry_label = Masm.fresh_label ctx.masm;
      epilogue_label = Masm.fresh_label ctx.masm;
      block_label = Array.make (Ir.label_bound fn) (-1);
      items = [];
      la_binding = Array.make 32 (-1) }
  in
  List.iter
    (fun (b : Ir.block) ->
      g.block_label.(b.label) <- Masm.fresh_label ctx.masm)
    fn.Ir.blocks;
  (* prologue *)
  emit g (Masm.Label g.entry_label);
  if uses_gp then emit_gpsetup g ~base:R.pv ~anchor:g.entry_label;
  (match Hashtbl.find_opt ctx.local_callees fn.Ir.fname with
  | Some { lc_postgp } ->
      (* pin the GP setup: callers branch here to skip it *)
      emit g (Masm.Label lc_postgp)
  | None -> ());
  if frame.size > 0 then
    emit_insn g (I.Lda { ra = R.sp; rb = R.sp; disp = -frame.size });
  (match frame.ra_off with
  | Some off -> emit_insn g (I.Stq { ra = R.ra; rb = R.sp; disp = off })
  | None -> ());
  List.iter
    (fun (r, off) -> emit_insn g (I.Stq { ra = r; rb = R.sp; disp = off }))
    frame.callee_offs;
  (* move incoming arguments into their allocated homes *)
  List.iteri
    (fun i v ->
      let areg = List.nth arg_regs i in
      match alloc.Regalloc.loc.(v) with
      | Regalloc.Preg r -> if not (R.equal r areg) then emit_insn g (I.mov areg r)
      | Regalloc.Spill s ->
          emit_insn g (I.Stq { ra = areg; rb = R.sp; disp = spill_off g s }))
    fn.Ir.params;
  (* body *)
  let rec blocks = function
    | [] -> ()
    | (b : Ir.block) :: rest ->
        Array.fill g.la_binding 0 (Array.length g.la_binding) (-1);
        emit g (Masm.Label g.block_label.(b.label));
        List.iter (gen_instr g) b.body;
        let next_block =
          match rest with (nb : Ir.block) :: _ -> Some nb.label | [] -> None
        in
        gen_term g b.term ~next_block;
        blocks rest
  in
  blocks fn.Ir.blocks;
  (* epilogue *)
  emit g (Masm.Label g.epilogue_label);
  (match frame.ra_off with
  | Some off -> emit_insn g (I.Ldq { ra = R.ra; rb = R.sp; disp = off })
  | None -> ());
  List.iter
    (fun (r, off) -> emit_insn g (I.Ldq { ra = r; rb = R.sp; disp = off }))
    frame.callee_offs;
  if frame.size > 0 then
    emit_insn g (I.Lda { ra = R.sp; rb = R.sp; disp = frame.size });
  emit_insn g (I.Jump { kind = I.Ret; ra = R.zero; rb = R.ra; hint = 1 });
  let items = List.rev g.items in
  let items = if ctx.o2 then schedule_proc items else items in
  Masm.add_proc ctx.masm ~name:fn.Ir.fname ~static:fn.Ir.fstatic
    ~exported:
      (not (fn.Ir.fstatic || Hashtbl.mem ctx.local_callees fn.Ir.fname))
    items
