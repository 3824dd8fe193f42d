module R = Isa.Reg
module I = Isa.Insn
module S = Symbolic

type use_status = All_marked of S.node list | Escapes

type call_kind =
  | Direct of { callee : int; via : [ `Jsr of S.node | `Bsr ] }
  | Indirect

type callsite = {
  cs_proc : int;
  cs_node : S.node;
  cs_kind : call_kind;
  cs_reset : (S.node * S.node) option;
}

type t = {
  callsites : callsite list;
  address_taken : bool array;
  gatload_status : (int, use_status) Hashtbl.t;
  live_out : int array;
}

let mask_of rs = List.fold_left (fun acc r -> acc lor R.bit r) 0 rs

let caller_saved_mask = mask_of R.caller_saved lor R.bit R.gp

(* what a call reads: the argument registers, the stack and GP *)
let call_uses_mask = mask_of R.[ a0; a1; a2; a3; a4; a5; sp; gp ]

(* exit liveness: result, stack, callee-saved, GP *)
let exit_mask =
  mask_of R.[ v0; sp; gp; s0; s1; s2; s3; s4; s5; fp ]

(* Classification of nodes that transfer control or call. *)
type flow =
  | Fall                      (* ordinary instruction *)
  | Call                      (* jsr / cross-procedure bsr / pal *)
  | Cond of S.label           (* conditional branch *)
  | Goto of S.label           (* unconditional branch *)
  | Stop                      (* ret, indirect jmp *)

let flow_of ~same_proc_label (n : S.node) =
  match n.S.insn with
  | S.Branch { insn = I.Bcond _; target } -> Cond target
  | S.Branch { insn = I.Br _; target } ->
      if same_proc_label target then Goto target else Call (* tail-ish *)
  | S.Branch { insn = I.Bsr _; target } ->
      if same_proc_label target then Cond target (* local bsr: treat as call below *)
      else Call
  | S.Branch _ -> Stop
  | S.Raw (I.Jump { kind = I.Jsr; _ }) | S.Use { insn = I.Jump { kind = I.Jsr; _ }; _ }
    -> Call
  | S.Raw (I.Jump { kind = I.Ret | I.Jmp; _ }) -> Stop
  | S.Raw (I.Call_pal _) -> Call
  | _ -> Fall

let is_call_node (n : S.node) ~same_proc_label =
  match n.S.insn with
  | S.Raw (I.Jump { kind = I.Jsr; _ })
  | S.Use { insn = I.Jump { kind = I.Jsr; _ }; _ } -> true
  | S.Branch { insn = I.Bsr _; target } -> not (same_proc_label target)
  | _ -> false

(* Effective register effects of each node of a body, treating calls as
   clobbering/reading per the calling convention. *)
let effects ~same_proc_label body =
  let call nd = is_call_node nd ~same_proc_label in
  ( Array.map
      (fun (nd : S.node) ->
        if call nd then caller_saved_mask else S.defs_mask nd.S.insn)
      body,
    Array.map
      (fun (nd : S.node) ->
        (if call nd then call_uses_mask else 0) lor S.uses_mask nd.S.insn)
      body )

let run ?(local_only = false) ?(section_live = fun _ _ -> true)
    (program : S.program) (ix : S.index) =
  let world = program.S.world in
  let live_out = Array.make program.S.next_node (-1) in
  let callsites = ref [] in
  let gatload_status : (int, use_status) Hashtbl.t = Hashtbl.create 256 in
  Array.iteri
    (fun pi (proc : S.proc) ->
      let body = proc.S.body in
      let n = Array.length body in
      (* the position in this body of label [l], or -1 *)
      let local_index l =
        if S.label_home ix l = pi then ix.S.pos.(ix.S.carrier.(l)) else -1
      in
      let same_proc_label l = local_index l >= 0 in
      let node_here = S.node_in ix pi in
      let flow = Array.map (flow_of ~same_proc_label) body in
      let defs, uses = effects ~same_proc_label body in
      (* --- liveness --- *)
      (* block starts *)
      let starts = Array.make n false in
      if n > 0 then starts.(0) <- true;
      Array.iteri
        (fun i (nd : S.node) ->
          if nd.S.labels <> [] then starts.(i) <- true;
          match flow.(i) with
          | Cond _ | Goto _ | Stop ->
              if i + 1 < n then starts.(i + 1) <- true
          | Call | Fall -> ())
        body;
      (* blocks: [first.(b), last.(b)] inclusive *)
      let nb = Array.fold_left (fun c s -> if s then c + 1 else c) 0 starts in
      let first = Array.make nb 0 in
      let last = Array.make nb 0 in
      let block_of_index = Array.make n 0 in
      let b = ref (-1) in
      for i = 0 to n - 1 do
        if starts.(i) then begin
          incr b;
          first.(!b) <- i
        end;
        block_of_index.(i) <- !b;
        last.(!b) <- i
      done;
      (* iterate backward dataflow *)
      let live_in = Array.make nb 0 in
      let live_out_blk = Array.make nb 0 in
      let block_out b =
        let l = last.(b) in
        let fall =
          if l + 1 < n then live_in.(block_of_index.(l + 1)) else exit_mask
        in
        let target lbl =
          let k = local_index lbl in
          if k >= 0 then live_in.(block_of_index.(k)) else 0
        in
        match flow.(l) with
        | Fall | Call -> fall
        | Stop -> exit_mask
        | Goto lbl -> target lbl lor (if l + 1 < n then 0 else exit_mask)
        | Cond lbl -> target lbl lor fall
      in
      let changed = ref true in
      while !changed do
        changed := false;
        for b = nb - 1 downto 0 do
          let out = block_out b in
          let live = ref out in
          for k = last.(b) downto first.(b) do
            live := !live land lnot defs.(k) lor uses.(k)
          done;
          if out <> live_out_blk.(b) || !live <> live_in.(b) then begin
            live_out_blk.(b) <- out;
            live_in.(b) <- !live;
            changed := true
          end
        done
      done;
      (* record per-node live-out *)
      for b = 0 to nb - 1 do
        let live = ref live_out_blk.(b) in
        for k = last.(b) downto first.(b) do
          live_out.(body.(k).S.nid) <- !live;
          live := !live land lnot defs.(k) lor uses.(k)
        done
      done;
      (* --- call sites --- *)
      (* resets: Gpsetup_hi anchored at the node right after a call *)
      let reset_of_call : (int, S.node * S.node) Hashtbl.t = Hashtbl.create 8 in
      Array.iter
        (fun (nd : S.node) ->
          match nd.S.insn with
          | S.Gpsetup_hi { anchor = S.Alocal l; lo_id; _ } -> (
              let k = local_index l in
              if k > 0 then
                let call = body.(k - 1) in
                match node_here lo_id with
                | Some lo -> Hashtbl.replace reset_of_call call.S.nid (nd, lo)
                | None -> ())
          | _ -> ())
        body;
      for i = 0 to n - 1 do
        let nd = body.(i) in
        let mk kind =
          callsites :=
            { cs_proc = pi;
              cs_node = nd;
              cs_kind = kind;
              cs_reset = Hashtbl.find_opt reset_of_call nd.S.nid }
            :: !callsites
        in
        match nd.S.insn with
        | S.Use { insn = I.Jump { kind = I.Jsr; _ }; load_id; jsr = true } -> (
            match node_here load_id with
            | Some ({ S.insn = S.Gatload { key = S.Paddr (Linker.Resolve.Tproc p, 0); _ }; _ }
                    as load) ->
                mk (Direct { callee = p; via = `Jsr load })
            | _ -> mk Indirect)
        | S.Raw (I.Jump { kind = I.Jsr; _ }) -> mk Indirect
        | S.Branch { insn = I.Bsr _; target } when not (same_proc_label target)
          -> (
            match S.label_home ix target with
            | -1 -> mk Indirect
            | tpi ->
                mk
                  (Direct
                     { callee = ix.S.procs.(tpi).S.sp_index; via = `Bsr }))
        | S.Branch { insn = I.Bsr _; target } when same_proc_label target ->
            (* recursive bsr inside the same procedure *)
            mk (Direct { callee = proc.S.sp_index; via = `Bsr })
        | _ -> ()
      done;
      (* --- gatload use chains --- *)
      for i = 0 to n - 1 do
        match body.(i).S.insn with
        | S.Gatload { ra; _ } ->
            let load = body.(i) in
            let bit = R.bit ra in
            let rec scan k acc =
              if k >= n then
                (* fell off the procedure *)
                if exit_mask land bit <> 0 then Escapes else All_marked acc
              else begin
                let nd = body.(k) in
                if nd.S.labels <> [] then
                  (* control-flow join *)
                  if local_only then Escapes
                  else if live_out.(body.(k - 1).S.nid) land bit <> 0 then
                    Escapes
                  else All_marked acc
                else
                  let d = defs.(k) and u = uses.(k) in
                  let marked =
                    match nd.S.insn with
                    | S.Use { load_id; _ } -> load_id = load.S.nid
                    | _ -> false
                  in
                  if marked then
                    let acc = nd :: acc in
                    if d land bit <> 0 then All_marked acc
                    else continue_scan k acc
                  else if u land bit <> 0 then Escapes
                  else if d land bit <> 0 then All_marked acc
                  else continue_scan k acc
              end
            and continue_scan k acc =
              match flow.(k) with
              | Fall | Call -> scan (k + 1) acc
              | Goto _ | Cond _ | Stop ->
                  (* end of block *)
                  if local_only then
                    (* a traditional linker stops at the first branch *)
                    Escapes
                  else if live_out.(body.(k).S.nid) land bit <> 0 then Escapes
                  else All_marked acc
            in
            let status = scan (i + 1) [] in
            Hashtbl.replace gatload_status load.S.nid
              (match status with
              | All_marked acc -> All_marked (List.rev acc)
              | Escapes -> Escapes)
        | _ -> ()
      done)
    program.S.procs;
  (* --- address-taken procedures --- *)
  let address_taken = Array.make (Array.length world.Linker.Resolve.procs) false in
  address_taken.(world.Linker.Resolve.entry_proc) <- true;
  Array.iteri
    (fun m (u : Objfile.Cunit.t) ->
      List.iter
        (fun (r : Objfile.Reloc.t) ->
          match r.kind with
          (* a reference from GC'd data is no escape: the PV can still be
             devirtualized and its prologue setup deleted *)
          | Objfile.Reloc.Refquad { symbol; _ }
            when section_live m r.section -> (
              match Linker.Resolve.resolve world m symbol with
              | Some (Linker.Resolve.Tproc p) -> address_taken.(p) <- true
              | _ -> ())
          | _ -> ())
        u.Objfile.Cunit.relocs)
    world.Linker.Resolve.modules;
  S.iter_nodes program (fun _proc nd ->
      match nd.S.insn with
      | S.Gatload { key = S.Paddr (Linker.Resolve.Tproc p, addend); _ } -> (
          match Hashtbl.find_opt gatload_status nd.S.nid with
          | Some (All_marked uses)
            when addend = 0
                 && List.for_all
                      (fun (u : S.node) ->
                        match u.S.insn with
                        | S.Use { jsr = true; _ } -> true
                        | _ -> false)
                      uses
                 && uses <> [] -> ()
          | _ -> address_taken.(p) <- true)
      | _ -> ());
  { callsites = List.rev !callsites;
    address_taken;
    gatload_status;
    live_out }
