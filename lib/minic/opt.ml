(* 64-bit two's-complement evaluation matching the machine's semantics. *)
let eval_binop (op : Ir.binop) (a : int64) (b : int64) : int64 option =
  let bool64 c = if c then 1L else 0L in
  match op with
  | Ir.Add -> Some (Int64.add a b)
  | Ir.Sub -> Some (Int64.sub a b)
  | Ir.Mul -> Some (Int64.mul a b)
  | Ir.Div | Ir.Rem -> None (* runtime routine defines the 0-divisor case *)
  | Ir.And -> Some (Int64.logand a b)
  | Ir.Or -> Some (Int64.logor a b)
  | Ir.Xor -> Some (Int64.logxor a b)
  | Ir.Shl -> Some (Int64.shift_left a (Int64.to_int (Int64.logand b 63L)))
  | Ir.Shr ->
      Some (Int64.shift_right a (Int64.to_int (Int64.logand b 63L)))
  | Ir.Cmp Ir.Ceq -> Some (bool64 (Int64.equal a b))
  | Ir.Cmp Ir.Cne -> Some (bool64 (not (Int64.equal a b)))
  | Ir.Cmp Ir.Clt -> Some (bool64 (Int64.compare a b < 0))
  | Ir.Cmp Ir.Cle -> Some (bool64 (Int64.compare a b <= 0))
  | Ir.Cmp Ir.Cgt -> Some (bool64 (Int64.compare a b > 0))
  | Ir.Cmp Ir.Cge -> Some (bool64 (Int64.compare a b >= 0))

type value = Vnone | Vconst of int64 | Vcopy of Ir.vreg | Vaddr of string * int

(* --- local constant folding / copy propagation --- *)

(* What each vreg is known to hold inside the current block. vregs are
   dense below [nvregs], so the table is an array, shared by every block of
   the function: an entry counts only when its stamp is the current
   block's. Two reverse indexes make each update cost what it changes:
   [copies.(r)] lists the vregs recorded as copies of [r] in this block
   (stale members are skipped on use), and [addrs] the vregs recorded as
   holding an address. At most one vreg holds a given address at a time —
   a second load of it becomes a copy of the first — so the first live
   match in [addrs] is the only one. *)
type env = {
  value : value array;
  stamp : int array;
  copies : Ir.vreg list array;
  copies_stamp : int array;
  mutable addrs : Ir.vreg list;
  mutable block : int;
}

let make_env nvregs =
  { value = Array.make nvregs Vnone;
    stamp = Array.make nvregs (-1);
    copies = Array.make nvregs [];
    copies_stamp = Array.make nvregs (-1);
    addrs = [];
    block = 0 }

let lookup env v = if env.stamp.(v) = env.block then env.value.(v) else Vnone

let set env v x =
  env.value.(v) <- x;
  env.stamp.(v) <- env.block

let rec forget_copies env v = function
  | [] -> ()
  | k :: rest ->
      (match lookup env k with
      | Vcopy r when r = v -> env.stamp.(k) <- -1
      | _ -> ());
      forget_copies env v rest

(* [v] is redefined: forget what it held, and every copy of it. *)
let kill env v =
  env.stamp.(v) <- -1;
  if env.copies_stamp.(v) = env.block then begin
    forget_copies env v env.copies.(v);
    env.copies.(v) <- []
  end

let record_copy env dst a =
  set env dst (Vcopy a);
  if env.copies_stamp.(a) <> env.block then begin
    env.copies.(a) <- [];
    env.copies_stamp.(a) <- env.block
  end;
  env.copies.(a) <- dst :: env.copies.(a)

(* The vreg other than [dst] holding [sym + off], or -1. *)
let rec holder env ~dst sym off = function
  | [] -> -1
  | v :: rest -> (
      match lookup env v with
      | Vaddr (s, o) when v <> dst && String.equal s sym && o = off -> v
      | _ -> holder env ~dst sym off rest)

let subst env u = match lookup env u with Vcopy r -> r | _ -> u

(* [subst] over a list, returning the list itself when nothing changes. *)
let rec subst_list env = function
  | [] -> []
  | v :: rest as l ->
      let v' = subst env v in
      let rest' = subst_list env rest in
      if v' = v && rest' == rest then l else v' :: rest'

(* Copy propagation into the uses of [i]; [i] itself when nothing
   changes. *)
let subst_uses env (i : Ir.instr) =
  match i with
  | Ir.Li _ | Ir.La _ | Ir.Laslot _ -> i
  | Ir.Bin { dst; op; a; b } ->
      let a' = subst env a and b' = subst env b in
      if a' = a && b' = b then i else Ir.Bin { dst; op; a = a'; b = b' }
  | Ir.Bini { dst; op; a; imm } ->
      let a' = subst env a in
      if a' = a then i else Ir.Bini { dst; op; a = a'; imm }
  | Ir.Ld { dst; base; off } ->
      let base' = subst env base in
      if base' = base then i else Ir.Ld { dst; base = base'; off }
  | Ir.St { src; base; off } ->
      let src' = subst env src and base' = subst env base in
      if src' = src && base' = base then i
      else Ir.St { src = src'; base = base'; off }
  | Ir.Call { dst; callee; args } ->
      let callee' =
        match callee with
        | Ir.Cdirect _ -> callee
        | Ir.Cindirect v ->
            let v' = subst env v in
            if v' = v then callee else Ir.Cindirect v'
      in
      let args' = subst_list env args in
      if callee' == callee && args' == args then i
      else Ir.Call { dst; callee = callee'; args = args' }

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

(* Rewrite one instruction against the environment, then record its
   definition. Returns [i] itself when nothing changes. *)
let rewrite env (i : Ir.instr) : Ir.instr =
  (* substitute copies in uses only *)
  let i' = subst_uses env i in
  (* address-load CSE: reuse a register that already holds this
     global's address (one address load per block, several LITUSE
     uses — exactly the pattern the real compilers emitted) *)
  let i' =
    match i' with
    | Ir.La { dst; sym; off } -> (
        match holder env ~dst sym off env.addrs with
        | -1 -> i'
        | v -> Ir.Bini { dst; op = Ir.Add; a = v; imm = 0 })
    | _ -> i'
  in
  (* fold *)
  let folded =
    match i' with
    | Ir.Bin { dst; op; a; b } -> (
        match (lookup env a, lookup env b) with
        | Vconst ca, Vconst cb -> (
            match eval_binop op ca cb with
            | Some v -> Ir.Li { dst; value = v }
            | None -> i')
        | _, Vconst cb
          when cb >= 0L && cb <= 255L && op <> Ir.Div && op <> Ir.Rem ->
            Ir.Bini { dst; op; a; imm = Int64.to_int cb }
        | _ -> i')
    | Ir.Bini { dst; op; a; imm } -> (
        match lookup env a with
        | Vconst ca -> (
            match eval_binop op ca (Int64.of_int imm) with
            | Some v -> Ir.Li { dst; value = v }
            | None -> i')
        | _ -> i')
    | _ -> i'
  in
  (* algebraic identities *)
  let simplified =
    match folded with
    | Ir.Bini { dst; op = Ir.Mul; a; imm = 1 } ->
        Ir.Bini { dst; op = Ir.Add; a; imm = 0 }
    | Ir.Bini { dst; op = Ir.Mul; a = _; imm = 0 } -> Ir.Li { dst; value = 0L }
    | Ir.Bini { dst; op = Ir.Mul; a; imm }
      when imm > 0 && imm land (imm - 1) = 0 ->
        (* multiply by a power of two: shift *)
        Ir.Bini { dst; op = Ir.Shl; a; imm = log2 imm }
    | Ir.Bini { dst; op = Ir.And; a = _; imm = 0 } -> Ir.Li { dst; value = 0L }
    | other -> other
  in
  (* update env *)
  (match simplified with
  | Ir.Li { dst; _ } | Ir.Bin { dst; _ } | Ir.Bini { dst; _ } | Ir.Ld { dst; _ }
  | Ir.La { dst; _ } | Ir.Laslot { dst; _ } | Ir.Call { dst = Some dst; _ } ->
      kill env dst
  | Ir.St _ | Ir.Call { dst = None; _ } -> ());
  (match simplified with
  | Ir.Li { dst; value } -> set env dst (Vconst value)
  | Ir.Bini { dst; op = Ir.Add; a; imm = 0 } when dst <> a ->
      record_copy env dst a
  | Ir.La { dst; sym; off } ->
      set env dst (Vaddr (sym, off));
      env.addrs <- dst :: env.addrs
  | _ -> ());
  simplified

(* [rewrite] along a body in order, sharing the unchanged tail. *)
let rec rewrite_body env = function
  | [] -> []
  | i :: rest as l ->
      let i' = rewrite env i in
      let rest' = rewrite_body env rest in
      if i' == i && rest' == rest then l else i' :: rest'

(* Fold one block; whether it changed. *)
let fold_block env (b : Ir.block) =
  env.block <- env.block + 1;
  env.addrs <- [];
  let body' = rewrite_body env b.Ir.body in
  let term = b.Ir.term in
  let term' =
    match term with
    | Ir.Ret (Some v) ->
        let v' = subst env v in
        if v' = v then term else Ir.Ret (Some v')
    | Ir.Cbr { cond; ifso; ifnot } -> (
        let cond' = subst env cond in
        match lookup env cond' with
        | Vconst 0L -> Ir.Jmp ifnot
        | Vconst _ -> Ir.Jmp ifso
        | _ -> if cond' = cond then term else Ir.Cbr { cond = cond'; ifso; ifnot })
    | t -> t
  in
  let changed = body' != b.Ir.body || term' != term in
  b.Ir.body <- body';
  b.Ir.term <- term';
  changed

let fold_constants env fn =
  List.fold_left (fun changed b -> fold_block env b || changed) false
    fn.Ir.blocks

(* Per-label tables are arrays of [nlabels = Ir.label_bound fn] entries;
   neither pass below adds a label. *)
let fold_branches ~nlabels fn =
  (* thread jumps to empty blocks that only jump onward *)
  let target = Array.make nlabels (-1) in
  List.iter
    (fun (b : Ir.block) ->
      match (b.body, b.term) with
      | [], Ir.Jmp l when l <> b.label -> target.(b.label) <- l
      | _ -> ())
    fn.Ir.blocks;
  let rec resolve seen l =
    if List.mem l seen then l
    else match target.(l) with -1 -> l | l' -> resolve (l :: seen) l'
  in
  let resolve = resolve [] in
  List.fold_left
    (fun changed (b : Ir.block) ->
      let term' =
        match b.Ir.term with
        | Ir.Jmp l as t ->
            let l' = resolve l in
            if l' = l then t else Ir.Jmp l'
        | Ir.Cbr { cond; ifso; ifnot } as t ->
            let ifso' = resolve ifso and ifnot' = resolve ifnot in
            if ifso' = ifnot' then Ir.Jmp ifso'
            else if ifso' = ifso && ifnot' = ifnot then t
            else Ir.Cbr { cond; ifso = ifso'; ifnot = ifnot' }
        | t -> t
      in
      if term' == b.Ir.term then changed
      else begin
        b.Ir.term <- term';
        true
      end)
    false fn.Ir.blocks

let remove_unreachable ~nlabels fn =
  match fn.Ir.blocks with
  | [] -> false
  | entry :: _ ->
      (* the first block carrying each label *)
      let blocks = Array.of_list fn.Ir.blocks in
      let block_of = Array.make nlabels (-1) in
      Array.iteri
        (fun i (b : Ir.block) ->
          if block_of.(b.label) < 0 then block_of.(b.label) <- i)
        blocks;
      let reachable = Bytes.make nlabels '\000' in
      let rec visit l =
        if Bytes.get reachable l = '\000' then begin
          Bytes.set reachable l '\001';
          match block_of.(l) with
          | -1 -> ()
          | i -> (
              match blocks.(i).term with
              | Ir.Ret _ -> ()
              | Ir.Jmp l -> visit l
              | Ir.Cbr { ifso; ifnot; _ } -> visit ifso; visit ifnot)
        end
      in
      visit entry.label;
      let live (b : Ir.block) = Bytes.get reachable b.label <> '\000' in
      if Array.for_all live blocks then false
      else begin
        fn.Ir.blocks <- List.filter live fn.Ir.blocks;
        true
      end

(* The result of a pure instruction (one deletable when that result is
   unused), or -1. *)
let pure_dst = function
  | Ir.Li { dst; _ } | Ir.Bin { dst; _ } | Ir.Bini { dst; _ } | Ir.La { dst; _ }
  | Ir.Laslot { dst; _ } | Ir.Ld { dst; _ } -> dst
  | Ir.St _ | Ir.Call _ -> -1

(* Dead-definition elimination on use counts: a pure instruction whose
   result no live instruction or terminator reads is deleted, and
   deleting it releases its own uses, transitively. This removes exactly
   the instructions that re-scanning for unused definitions until none is
   left would. *)
let dead_code fn =
  let n =
    List.fold_left (fun n (b : Ir.block) -> n + List.length b.Ir.body) 0
      fn.Ir.blocks
  in
  let code = Array.make n (Ir.Li { dst = 0; value = 0L }) in
  ignore
    (List.fold_left
       (fun k (b : Ir.block) ->
         List.fold_left (fun k i -> code.(k) <- i; k + 1) k b.Ir.body)
       0 fn.Ir.blocks);
  let nv = fn.Ir.nvregs in
  let uses = Array.make nv 0 in
  let count v = uses.(v) <- uses.(v) + 1 in
  (* pure definitions of each vreg, as an intrusive list over [code] *)
  let first_def = Array.make nv (-1) and next_def = Array.make n (-1) in
  Array.iteri
    (fun k i ->
      Ir.iter_uses count i;
      match pure_dst i with
      | -1 -> ()
      | d ->
          next_def.(k) <- first_def.(d);
          first_def.(d) <- k)
    code;
  List.iter (fun (b : Ir.block) -> Ir.iter_term_uses count b.Ir.term) fn.Ir.blocks;
  let dead = Bytes.make n '\000' in
  let ndead = ref 0 in
  let rec release v =
    uses.(v) <- uses.(v) - 1;
    if uses.(v) = 0 then kill_defs v
  and kill_defs v =
    let k = ref first_def.(v) in
    while !k >= 0 do
      if Bytes.get dead !k = '\000' then begin
        Bytes.set dead !k '\001';
        incr ndead;
        Ir.iter_uses release code.(!k)
      end;
      k := next_def.(!k)
    done
  in
  for v = 0 to nv - 1 do
    if uses.(v) = 0 then kill_defs v
  done;
  if !ndead = 0 then false
  else begin
    let k = ref 0 in
    List.iter
      (fun (b : Ir.block) ->
        let first = !k in
        let len = List.length b.Ir.body in
        k := first + len;
        let keep = ref [] in
        for j = first + len - 1 downto first do
          if Bytes.get dead j = '\000' then keep := code.(j) :: !keep
        done;
        if List.length !keep <> len then b.Ir.body <- !keep)
      fn.Ir.blocks;
    true
  end

let rec lower_divs = function
  | [] -> []
  | i :: rest as l -> (
      let rest' = lower_divs rest in
      match i with
      | Ir.Bin { dst; op = Ir.Div; a; b } ->
          Ir.Call { dst = Some dst; callee = Ir.Cdirect "__divq"; args = [ a; b ] }
          :: rest'
      | Ir.Bin { dst; op = Ir.Rem; a; b } ->
          Ir.Call { dst = Some dst; callee = Ir.Cdirect "__remq"; args = [ a; b ] }
          :: rest'
      | _ -> if rest' == rest then l else i :: rest')

let lower_div fn =
  List.iter (fun (b : Ir.block) -> b.Ir.body <- lower_divs b.Ir.body) fn.Ir.blocks

(* Up to four rounds of the passes, stopping at the first round that
   changes nothing: every pass is a function of the IR alone, so each
   later round would change nothing either. *)
let run fn =
  let env = make_env fn.Ir.nvregs in
  let nlabels = Ir.label_bound fn in
  let fold_branches = fold_branches ~nlabels in
  let remove_unreachable = remove_unreachable ~nlabels in
  (* whether a round changed nothing *)
  let rec rounds k =
    k > 0
    &&
    let folded = fold_constants env fn in
    let threaded = fold_branches fn in
    let pruned = remove_unreachable fn in
    let swept = dead_code fn in
    (not (folded || threaded || pruned || swept)) || rounds (k - 1)
  in
  let settled = rounds 4 in
  lower_div fn;
  (* A final cleanup after division lowering. Lowering leaves terminators,
     labels and which bodies are empty as they were, so after a round that
     changed nothing it has nothing to do. *)
  if not settled then begin
    ignore (fold_branches fn);
    ignore (remove_unreachable fn)
  end

let lower_div_only fn = lower_div fn
