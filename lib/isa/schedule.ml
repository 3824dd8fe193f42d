type node = {
  defs : int;
  uses : int;
  reads_mem : bool;
  writes_mem : bool;
  barrier : bool;
  latency : int;
  pipe : Latency.pipe;
}

let node_of_insn ?barrier insn =
  let barrier =
    match barrier with
    | Some b -> b
    | None -> (
        Insn.is_branch insn
        || match insn with Insn.Call_pal _ -> true | _ -> false)
  in
  { defs = Insn.defs_mask insn;
    uses = Insn.uses_mask insn;
    reads_mem = Insn.is_load insn;
    writes_mem = Insn.is_store insn;
    barrier;
    latency = Latency.latency insn;
    pipe = Latency.pipe_of insn }

let intersects xs ys = xs land ys <> 0

(* Must node [b] (later in program order) stay after node [a]?
   Returns the minimum issue-cycle separation, or -1 if independent. *)
let[@inline] dep_weight ~(a : node) ~(b : node) =
  if intersects a.defs b.uses then a.latency (* RAW: wait for result *)
  else if
    a.barrier || b.barrier
    || intersects a.uses b.defs (* WAR *)
    || intersects a.defs b.defs (* WAW *)
    || (a.writes_mem && (b.reads_mem || b.writes_mem))
    || (b.writes_mem && a.reads_mem)
  then 1
  else -1

(* A dependence edge in one int: the later node's index in the low
   [edge_bits] bits, the issue-cycle separation above them. *)
let edge_bits = 24
let edge_node e = e land ((1 lsl edge_bits) - 1)
let edge_weight e = e lsr edge_bits

(* Cycle-aware greedy list scheduling: at each machine cycle issue up to two
   ready nodes (different pipes), preferring the longest critical path.
   This mirrors what the production compilers of the era did — in
   particular it readily separates the two GP-setup instructions of a
   procedure prologue by pulling independent work between them, which is
   precisely the phenomenon the paper blames for OM-simple's missed
   prologue-skipping opportunities. *)
let order nodes =
  let n = Array.length nodes in
  assert (n < 1 lsl edge_bits);
  (* each node's successor edges, and its count of unscheduled
     predecessors. The edges go in lists, not one flat array: a long
     run's edges outgrow the 256-word limit of the minor heap, and an
     array that big would be allocated, and die, in the major heap. *)
  let succs = Array.make n [] in
  let remaining = Array.make n 0 in
  for i = 0 to n - 1 do
    let a = nodes.(i) in
    for j = i + 1 to n - 1 do
      let w = dep_weight ~a ~b:nodes.(j) in
      if w >= 0 then begin
        succs.(i) <- ((w lsl edge_bits) lor j) :: succs.(i);
        remaining.(j) <- remaining.(j) + 1
      end
    done
  done;
  let height = Array.make n 0 in
  let rec highest h = function
    | [] -> h
    | e :: rest ->
        highest (Int.max h (edge_weight e + height.(edge_node e))) rest
  in
  for i = n - 1 downto 0 do
    height.(i) <- highest nodes.(i).latency succs.(i)
  done;
  (* the ready set: unscheduled nodes with no unscheduled predecessor *)
  let ready = Array.make n 0 and nready = ref 0 in
  let make_ready i =
    ready.(!nready) <- i;
    incr nready
  in
  for i = 0 to n - 1 do
    if remaining.(i) = 0 then make_ready i
  done;
  let ready_at = Array.make n 0 in
  let result = Array.make n 0 in
  let filled = ref 0 in
  let cycle = ref 0 in
  let rec release = function
    | [] -> ()
    | e :: rest ->
        let j = edge_node e in
        remaining.(j) <- remaining.(j) - 1;
        ready_at.(j) <- Int.max ready_at.(j) (!cycle + edge_weight e);
        if remaining.(j) = 0 then make_ready j;
        release rest
  in
  (* nodes issued this cycle (0 or 1 here), and the pipe of that one *)
  let issued_count = ref 0 in
  let issued_pipe = ref Latency.E in
  while !filled < n do
    let best = ref (-1) and best_slot = ref (-1) in
    let soonest = ref max_int in
    for r = 0 to !nready - 1 do
      let i = ready.(r) in
      if ready_at.(i) > !cycle then soonest := Int.min !soonest ready_at.(i)
      else if
        (!issued_count = 0
        || (nodes.(i).pipe <> !issued_pipe && not nodes.(i).barrier))
        && (!best = -1
           || height.(i) > height.(!best)
           || (height.(i) = height.(!best) && i < !best))
      then begin
        best := i;
        best_slot := r
      end
    done;
    match !best with
    | -1 ->
        (* nothing can issue this cycle: advance the clock, straight to
           the first cycle at which a ready node can issue when none has
           issued in this one *)
        cycle := if !issued_count = 0 then !soonest else !cycle + 1;
        issued_count := 0
    | i ->
        decr nready;
        ready.(!best_slot) <- ready.(!nready);
        result.(!filled) <- i;
        incr filled;
        release succs.(i);
        incr issued_count;
        if !issued_count >= 2 || nodes.(i).barrier then begin
          incr cycle;
          issued_count := 0
        end
        else issued_pipe := nodes.(i).pipe
  done;
  result

let is_valid_order nodes perm =
  let n = Array.length nodes in
  Array.length perm = n
  && (let seen = Array.make n false in
      Array.for_all
        (fun i -> i >= 0 && i < n && not seen.(i) && (seen.(i) <- true; true))
        perm)
  &&
  let position = Array.make n 0 in
  Array.iteri (fun slot i -> position.(i) <- slot) perm;
  let ok = ref true in
  for j = 0 to n - 1 do
    for i = 0 to j - 1 do
      (* only a pair the permutation inverts can break a dependence *)
      if position.(i) >= position.(j)
         && dep_weight ~a:nodes.(i) ~b:nodes.(j) >= 0
      then ok := false
    done
  done;
  !ok
