type loc = Preg of Isa.Reg.t | Spill of int

type allocation = {
  loc : loc array;
  nspills : int;
  used_callee_saved : Isa.Reg.t list;
}

let caller_pool =
  Isa.Reg.[ t0; t1; t2; t3; t4; t5; t6; t7; t8; t9 ]

let callee_pool = Isa.Reg.[ s0; s1; s2; s3; s4; s5; fp ]

(* Live intervals, indexed by vreg: vreg [v] lives from position
   [start.(v)] to [stop.(v)] ([stop.(v) = -1] if it never appears), and
   [crosses.(v)] when a call falls strictly inside. *)
type intervals = {
  start : int array;
  stop : int array;
  crosses : bool array;
  npos : int;  (** positions are below [npos] *)
}

(* Liveness sets are bitsets over the dense vregs: a set is [words]
   consecutive ints of a flat array, 32 vregs to an int. *)
let word v = v lsr 5
let bit v = 1 lsl (v land 31)

(* Call [f v] for each member of the set at [base] in [sets]. *)
let iter_set f sets base words =
  for w = 0 to words - 1 do
    let x = ref sets.(base + w) in
    let v = ref (w lsl 5) in
    while !x <> 0 do
      if !x land 1 <> 0 then f !v;
      x := !x lsr 1;
      incr v
    done
  done

(* The first index of the ascending [a] holding a value above [p], or
   [Array.length a]. *)
let first_above (a : int array) p =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if a.(mid) <= p then lo := mid + 1 else hi := mid
  done;
  !lo

(* Positions: instruction k of block b (in layout order) has position
   [block_start.(b) + 2k + 2]; the block's live-in touches
   [block_start.(b)] and its terminator sits two past the last body
   instruction. The stride of 2 (and the offset before the first
   instruction) guarantees that an interval whose endpoint coincides with a
   call still counts as crossing it only when the value is genuinely live
   across — parameters defined at position 0 are distinct from a call in
   the first instruction slot. *)
let intervals (fn : Ir.func) =
  let blocks = Array.of_list fn.Ir.blocks in
  let nb = Array.length blocks in
  let nv = fn.Ir.nvregs in
  let words = (nv + 31) lsr 5 in
  let index_of_label = Array.make (Ir.label_bound fn) (-1) in
  Array.iteri (fun i (b : Ir.block) -> index_of_label.(b.label) <- i) blocks;
  let succ l = index_of_label.(l) in
  let succ1 = Array.make nb (-1) and succ2 = Array.make nb (-1) in
  let block_start = Array.make nb 0 in
  let lengths = Array.make nb 0 in
  let ncalls = ref 0 in
  let pos = ref 0 in
  Array.iteri
    (fun i (b : Ir.block) ->
      (match b.term with
      | Ir.Ret _ -> ()
      | Ir.Jmp l -> succ1.(i) <- succ l
      | Ir.Cbr { ifso; ifnot; _ } ->
          succ1.(i) <- succ ifso;
          succ2.(i) <- succ ifnot);
      let len =
        List.fold_left
          (fun len instr ->
            (match instr with Ir.Call _ -> incr ncalls | _ -> ());
            len + 1)
          0 b.body
      in
      lengths.(i) <- len;
      block_start.(i) <- !pos;
      pos := !pos + (2 * len) + 4)
    blocks;
  let npos = !pos in
  (* liveness: per-block use (read before any write) and def sets, then
     live-in = use + (live-out - def) to a fixed point *)
  let use = Array.make (nb * words) 0 and def = Array.make (nb * words) 0 in
  let live_in = Array.make (nb * words) 0 in
  let live_out = Array.make (nb * words) 0 in
  Array.iteri
    (fun i (b : Ir.block) ->
      let base = i * words in
      let note_use u =
        let w = base + word u in
        if def.(w) land bit u = 0 then use.(w) <- use.(w) lor bit u
      in
      let note_def d =
        let w = base + word d in
        def.(w) <- def.(w) lor bit d
      in
      List.iter
        (fun instr ->
          Ir.iter_uses note_use instr;
          Ir.iter_defs note_def instr)
        b.body;
      Ir.iter_term_uses note_use b.term)
    blocks;
  let changed = ref true in
  while !changed do
    changed := false;
    for i = nb - 1 downto 0 do
      let base = i * words in
      let s1 = succ1.(i) * words and s2 = succ2.(i) * words in
      for w = 0 to words - 1 do
        let out =
          (if s1 >= 0 then live_in.(s1 + w) else 0)
          lor if s2 >= 0 then live_in.(s2 + w) else 0
        in
        let inn = use.(base + w) lor (out land lnot def.(base + w)) in
        if out <> live_out.(base + w) || inn <> live_in.(base + w) then begin
          live_out.(base + w) <- out;
          live_in.(base + w) <- inn;
          changed := true
        end
      done
    done
  done;
  (* interval construction *)
  let start = Array.make nv max_int in
  let stop = Array.make nv (-1) in
  let touch_at p v =
    if p < start.(v) then start.(v) <- p;
    if p > stop.(v) then stop.(v) <- p
  in
  (* parameters are defined at entry *)
  List.iter (touch_at 0) fn.Ir.params;
  let calls = Array.make !ncalls 0 in
  let ncalls = ref 0 in
  let p = ref 0 in
  let touch v = touch_at !p v in
  Array.iteri
    (fun i (b : Ir.block) ->
      let base = block_start.(i) in
      let last = base + (2 * lengths.(i)) + 2 in
      iter_set (touch_at base) live_in (i * words) words;
      iter_set (touch_at last) live_out (i * words) words;
      p := base;
      List.iter
        (fun instr ->
          p := !p + 2;
          Ir.iter_defs touch instr;
          Ir.iter_uses touch instr;
          match instr with
          | Ir.Call _ ->
              calls.(!ncalls) <- !p;
              incr ncalls
          | _ -> ())
        b.body;
      p := last;
      Ir.iter_term_uses touch b.term)
    blocks;
  (* [calls] is ascending: the walk visits positions in order *)
  let crosses =
    Array.init nv (fun v ->
        let k = first_above calls start.(v) in
        k < Array.length calls && calls.(k) < stop.(v))
  in
  { start; stop; crosses; npos }

(* A stack of free registers, popped in the order of the list it starts
   from. *)
type pool = { regs : Isa.Reg.t array; mutable top : int }

let pool_of list =
  let regs = Array.of_list (List.rev list) in
  { regs; top = Array.length regs }

let pop pool =
  pool.top <- pool.top - 1;
  pool.regs.(pool.top)

let push pool r =
  pool.regs.(pool.top) <- r;
  pool.top <- pool.top + 1

let allocate (fn : Ir.func) =
  let { start; stop; crosses; npos } = intervals fn in
  let nv = fn.Ir.nvregs in
  (* the live vregs in order of start, ties in vreg order: a counting
     sort over positions *)
  let first = Array.make (npos + 1) 0 in
  for v = 0 to nv - 1 do
    if stop.(v) >= 0 then first.(start.(v) + 1) <- first.(start.(v) + 1) + 1
  done;
  for p = 1 to npos do
    first.(p) <- first.(p) + first.(p - 1)
  done;
  let order = Array.make first.(npos) 0 in
  for v = 0 to nv - 1 do
    if stop.(v) >= 0 then begin
      order.(first.(start.(v))) <- v;
      first.(start.(v)) <- first.(start.(v)) + 1
    end
  done;
  let loc = Array.make (max nv 1) (Spill (-1)) in
  let caller = pool_of caller_pool and callee = pool_of callee_pool in
  let used_callee = ref [] in
  let nspills = ref 0 in
  let spill v =
    loc.(v) <- Spill !nspills;
    incr nspills
  in
  (* the active intervals, oldest first: vreg, register, and whether the
     register came from the callee-saved pool *)
  let cap = Array.length caller.regs + Array.length callee.regs in
  let act_v = Array.make cap 0 and act_r = Array.make cap Isa.Reg.zero in
  let act_callee = Array.make cap false in
  let nact = ref 0 in
  let activate v r from_callee =
    act_v.(!nact) <- v;
    act_r.(!nact) <- r;
    act_callee.(!nact) <- from_callee;
    incr nact;
    loc.(v) <- Preg r
  in
  (* drop active entry [k], keeping the others in order *)
  let drop k =
    for k' = k to !nact - 2 do
      act_v.(k') <- act_v.(k' + 1);
      act_r.(k') <- act_r.(k' + 1);
      act_callee.(k') <- act_callee.(k' + 1)
    done;
    decr nact
  in
  let expire p =
    (* free the registers of intervals that ended before [p], newest
       first *)
    for k = !nact - 1 downto 0 do
      if stop.(act_v.(k)) < p then
        push (if act_callee.(k) then callee else caller) act_r.(k)
    done;
    for k = !nact - 1 downto 0 do
      if stop.(act_v.(k)) < p then drop k
    done
  in
  Array.iter
    (fun v ->
      expire start.(v);
      if (not crosses.(v)) && caller.top > 0 then activate v (pop caller) false
      else if callee.top > 0 then begin
        let r = pop callee in
        if not (List.exists (Isa.Reg.equal r) !used_callee) then
          used_callee := r :: !used_callee;
        activate v r true
      end
      else begin
        (* spill the active interval that ends last (the newest such), if
           it ends after [v] and its register may hold [v] *)
        let victim = ref (-1) in
        for k = !nact - 1 downto 0 do
          if ((not crosses.(v)) || act_callee.(k))
             && (!victim < 0 || stop.(act_v.(k)) > stop.(act_v.(!victim)))
          then victim := k
        done;
        let k = !victim in
        if k >= 0 && stop.(act_v.(k)) > stop.(v) then begin
          let r = act_r.(k) and from_callee = act_callee.(k) in
          spill act_v.(k);
          drop k;
          activate v r from_callee
        end
        else spill v
      end)
    order;
  { loc; nspills = !nspills; used_callee_saved = List.rev !used_callee }
