type t = {
  mutable insns_before : int;
  mutable insns_after : int;
  mutable nops_added : int;
  mutable insns_deleted : int;
  mutable addr_loads : int;
  mutable addr_converted : int;
  mutable addr_nullified : int;
  mutable const_loads : int;
  mutable calls : int;
  mutable calls_pv_before : int;
  mutable calls_pv_after : int;
  mutable calls_reset_before : int;
  mutable calls_reset_after : int;
  mutable jsr_before : int;
  mutable jsr_after : int;
  mutable gp_setups_deleted : int;
  mutable gat_bytes_before : int;
  mutable gat_bytes_after : int;
  mutable pvs_devirtualized : int;
  mutable procs_deleted : int;
  mutable gc_insns_deleted : int;
  mutable data_bytes_deleted : int;
  mutable branches_elided : int;
  mutable sites_narrowed : int;
  mutable sites_grown : int;
  mutable relax_iterations : int;
  mutable relax_gat_bytes_freed : int;
}

let create () =
  { insns_before = 0;
    insns_after = 0;
    nops_added = 0;
    insns_deleted = 0;
    addr_loads = 0;
    addr_converted = 0;
    addr_nullified = 0;
    const_loads = 0;
    calls = 0;
    calls_pv_before = 0;
    calls_pv_after = 0;
    calls_reset_before = 0;
    calls_reset_after = 0;
    jsr_before = 0;
    jsr_after = 0;
    gp_setups_deleted = 0;
    gat_bytes_before = 0;
    gat_bytes_after = 0;
    pvs_devirtualized = 0;
    procs_deleted = 0;
    gc_insns_deleted = 0;
    data_bytes_deleted = 0;
    branches_elided = 0;
    sites_narrowed = 0;
    sites_grown = 0;
    relax_iterations = 0;
    relax_gat_bytes_freed = 0 }

let measure_before (program : Symbolic.program) (als : Analysis.t) t =
  t.insns_before <- Symbolic.static_insn_count program;
  Symbolic.iter_nodes program (fun _proc n ->
      match n.Symbolic.insn with
      | Symbolic.Gatload { key = Symbolic.Paddr _; _ } ->
          t.addr_loads <- t.addr_loads + 1
      | Symbolic.Gatload { key = Symbolic.Pconst _; _ } ->
          t.const_loads <- t.const_loads + 1
      | _ -> ());
  List.iter
    (fun (cs : Analysis.callsite) ->
      t.calls <- t.calls + 1;
      (match cs.cs_kind with
      | Analysis.Direct { via = `Jsr _; _ } ->
          t.calls_pv_before <- t.calls_pv_before + 1;
          t.jsr_before <- t.jsr_before + 1
      | Analysis.Indirect ->
          t.calls_pv_before <- t.calls_pv_before + 1;
          t.jsr_before <- t.jsr_before + 1
      | Analysis.Direct { via = `Bsr; _ } -> ());
      if Option.is_some cs.cs_reset then
        t.calls_reset_before <- t.calls_reset_before + 1)
    als.Analysis.callsites

let frac_addr_removed t =
  if t.addr_loads = 0 then (0., 0.)
  else
    ( float_of_int t.addr_converted /. float_of_int t.addr_loads,
      float_of_int t.addr_nullified /. float_of_int t.addr_loads )

let frac_insns_nullified t =
  if t.insns_before = 0 then 0.
  else
    float_of_int (t.nops_added + t.insns_deleted)
    /. float_of_int t.insns_before

(* One (name, getter, setter) entry per field, in declaration order:
   [to_alist] and [of_alist] both read it, so the two directions cannot
   drift apart. *)
let fields : (string * (t -> int) * (t -> int -> unit)) list =
  [ ("insns_before", (fun t -> t.insns_before), fun t v -> t.insns_before <- v);
    ("insns_after", (fun t -> t.insns_after), fun t v -> t.insns_after <- v);
    ("nops_added", (fun t -> t.nops_added), fun t v -> t.nops_added <- v);
    ("insns_deleted", (fun t -> t.insns_deleted),
     fun t v -> t.insns_deleted <- v);
    ("addr_loads", (fun t -> t.addr_loads), fun t v -> t.addr_loads <- v);
    ("addr_converted", (fun t -> t.addr_converted),
     fun t v -> t.addr_converted <- v);
    ("addr_nullified", (fun t -> t.addr_nullified),
     fun t v -> t.addr_nullified <- v);
    ("const_loads", (fun t -> t.const_loads), fun t v -> t.const_loads <- v);
    ("calls", (fun t -> t.calls), fun t v -> t.calls <- v);
    ("calls_pv_before", (fun t -> t.calls_pv_before),
     fun t v -> t.calls_pv_before <- v);
    ("calls_pv_after", (fun t -> t.calls_pv_after),
     fun t v -> t.calls_pv_after <- v);
    ("calls_reset_before", (fun t -> t.calls_reset_before),
     fun t v -> t.calls_reset_before <- v);
    ("calls_reset_after", (fun t -> t.calls_reset_after),
     fun t v -> t.calls_reset_after <- v);
    ("jsr_before", (fun t -> t.jsr_before), fun t v -> t.jsr_before <- v);
    ("jsr_after", (fun t -> t.jsr_after), fun t v -> t.jsr_after <- v);
    ("gp_setups_deleted", (fun t -> t.gp_setups_deleted),
     fun t v -> t.gp_setups_deleted <- v);
    ("gat_bytes_before", (fun t -> t.gat_bytes_before),
     fun t v -> t.gat_bytes_before <- v);
    ("gat_bytes_after", (fun t -> t.gat_bytes_after),
     fun t v -> t.gat_bytes_after <- v);
    ("pvs_devirtualized", (fun t -> t.pvs_devirtualized),
     fun t v -> t.pvs_devirtualized <- v);
    ("procs_deleted", (fun t -> t.procs_deleted),
     fun t v -> t.procs_deleted <- v);
    ("gc_insns_deleted", (fun t -> t.gc_insns_deleted),
     fun t v -> t.gc_insns_deleted <- v);
    ("data_bytes_deleted", (fun t -> t.data_bytes_deleted),
     fun t v -> t.data_bytes_deleted <- v);
    ("branches_elided", (fun t -> t.branches_elided),
     fun t v -> t.branches_elided <- v);
    ("sites_narrowed", (fun t -> t.sites_narrowed),
     fun t v -> t.sites_narrowed <- v);
    ("sites_grown", (fun t -> t.sites_grown), fun t v -> t.sites_grown <- v);
    ("relax_iterations", (fun t -> t.relax_iterations),
     fun t v -> t.relax_iterations <- v);
    ("relax_gat_bytes_freed", (fun t -> t.relax_gat_bytes_freed),
     fun t v -> t.relax_gat_bytes_freed <- v) ]

let to_alist t = List.map (fun (name, get, _) -> (name, get t)) fields

let of_alist alist =
  let t = create () in
  List.iter
    (fun (name, _, set) -> Option.iter (set t) (List.assoc_opt name alist))
    fields;
  t

let pp ppf t =
  Format.fprintf ppf
    "@[<v>insns: %d -> %d (%d nop'd, %d deleted)@,\
     address loads: %d (%d converted, %d nullified); %d constant loads@,\
     calls: %d (pv %d -> %d, reset %d -> %d, jsr %d -> %d)@,\
     gp setups deleted: %d; pvs devirtualized: %d@,\
     GAT bytes: %d -> %d"
    t.insns_before t.insns_after t.nops_added t.insns_deleted t.addr_loads
    t.addr_converted t.addr_nullified t.const_loads t.calls
    t.calls_pv_before t.calls_pv_after t.calls_reset_before
    t.calls_reset_after t.jsr_before t.jsr_after t.gp_setups_deleted
    t.pvs_devirtualized t.gat_bytes_before t.gat_bytes_after;
  if t.procs_deleted > 0 || t.data_bytes_deleted > 0 then
    Format.fprintf ppf
      "@,gc: %d procedure(s) deleted (%d insns), %d data bytes dropped"
      t.procs_deleted t.gc_insns_deleted t.data_bytes_deleted;
  if t.relax_iterations > 0 then
    Format.fprintf ppf
      "@,relax: %d pass(es); %d branch(es) elided, %d site(s) narrowed, %d \
       grown; %d GAT bytes freed"
      t.relax_iterations t.branches_elided t.sites_narrowed t.sites_grown
      t.relax_gat_bytes_freed;
  Format.fprintf ppf "@]"
