module S = Symbolic
module I = Isa.Insn
module R = Isa.Reg

let node_of_sinsn (si : S.sinsn) : Isa.Schedule.node =
  match si with
  | S.Raw i -> Isa.Schedule.node_of_insn i
  | S.Use { insn; _ } -> Isa.Schedule.node_of_insn insn
  | S.Gatload { ra; _ } ->
      Isa.Schedule.node_of_insn (I.Ldq { ra; rb = R.gp; disp = 0 })
  | S.Gpsetup_hi { base; _ } ->
      Isa.Schedule.node_of_insn (I.Ldah { ra = R.gp; rb = base; disp = 0 })
  | S.Gpsetup_lo ->
      Isa.Schedule.node_of_insn (I.Lda { ra = R.gp; rb = R.gp; disp = 0 })
  | S.Branch { insn; _ } -> Isa.Schedule.node_of_insn ~barrier:true insn
  | S.Gprel { insn; part; _ } -> (
      match part with
      | S.Pfull | S.Phi ->
          (* model the lowered shape: base register becomes gp *)
          let rebuilt =
            match insn with
            | I.Ldq { ra; _ } -> I.Ldq { ra; rb = R.gp; disp = 0 }
            | I.Stq { ra; _ } -> I.Stq { ra; rb = R.gp; disp = 0 }
            | I.Lda { ra; _ } -> I.Lda { ra; rb = R.gp; disp = 0 }
            | I.Ldah { ra; _ } -> I.Ldah { ra; rb = R.gp; disp = 0 }
            | other -> other
          in
          Isa.Schedule.node_of_insn rebuilt
      | S.Plo _ -> Isa.Schedule.node_of_insn insn)
  | S.Lea_wide { ra; _ } ->
      { (Isa.Schedule.node_of_insn (I.Lda { ra; rb = R.gp; disp = 0 })) with
        latency = 2 }
  | S.Gatload_wide { ra; _ } ->
      { (Isa.Schedule.node_of_insn (I.Ldq { ra; rb = R.gp; disp = 0 })) with
        latency = 2 }
  (* relaxation-introduced forms only exist after scheduling; treat them
     as barriers so a stray one is never reordered *)
  | S.Bsr_far { ra; _ } ->
      Isa.Schedule.node_of_insn ~barrier:true (I.Bsr { ra; disp = 0 })
  | S.Br_far { ra; _ } ->
      Isa.Schedule.node_of_insn ~barrier:true (I.Br { ra; disp = 0 })
  | S.Bcond_far { cond; ra; _ } ->
      Isa.Schedule.node_of_insn ~barrier:true (I.Bcond { cond; ra; disp = 0 })
  | S.Elided _ ->
      Isa.Schedule.node_of_insn ~barrier:true I.nop

let is_barrier (n : S.node) =
  match n.S.insn with
  | S.Branch _ | S.Bsr_far _ | S.Br_far _ | S.Bcond_far _ | S.Elided _ -> true
  | S.Raw i -> I.is_branch i || (match i with I.Call_pal _ -> true | _ -> false)
  | S.Use { insn; _ } -> I.is_branch insn
  | _ -> false

(* Reorder [body.(first)] .. [body.(stop - 1)], one straight-line run,
   in place. *)
let schedule_run (body : S.node array) first stop =
  if stop - first > 1 then begin
    let run = Array.sub body first (stop - first) in
    let descs =
      Array.mapi
        (fun i (n : S.node) ->
          let d = node_of_sinsn n.S.insn in
          (* a labelled node leads the run and cannot move *)
          if i = 0 && n.S.labels <> [] then
            { d with Isa.Schedule.barrier = true }
          else d)
        run
    in
    let perm = Isa.Schedule.order descs in
    assert (Isa.Schedule.is_valid_order descs perm);
    Array.iteri (fun k i -> body.(first + k) <- run.(i)) perm
  end

let run (program : S.program) =
  Array.iter
    (fun (proc : S.proc) ->
      let body = proc.S.body in
      (* runs are maximal stretches of non-barrier nodes; a labelled node
         starts a new one (and leads it) *)
      let first = ref 0 in
      Array.iteri
        (fun i (n : S.node) ->
          if n.S.labels <> [] || is_barrier n then begin
            schedule_run body !first i;
            first := if is_barrier n then i + 1 else i
          end)
        body;
      schedule_run body !first (Array.length body))
    program.S.procs
