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
let dep_weight ~(a : node) ~(b : node) =
  if intersects a.defs b.uses then a.latency (* RAW: wait for result *)
  else if
    a.barrier || b.barrier
    || intersects a.uses b.defs (* WAR *)
    || intersects a.defs b.defs (* WAW *)
    || (a.writes_mem && (b.reads_mem || b.writes_mem))
    || (b.writes_mem && a.reads_mem)
  then 1
  else -1

(* Cycle-aware greedy list scheduling: at each machine cycle issue up to two
   ready nodes (different pipes), preferring the longest critical path.
   This mirrors what the production compilers of the era did — in
   particular it readily separates the two GP-setup instructions of a
   procedure prologue by pulling independent work between them, which is
   precisely the phenomenon the paper blames for OM-simple's missed
   prologue-skipping opportunities. *)
let order nodes =
  let n = Array.length nodes in
  (* successors with their separations, and unscheduled-predecessor
     counts *)
  let succs = Array.make n [] in
  let remaining = Array.make n 0 in
  for j = 0 to n - 1 do
    for i = 0 to j - 1 do
      let w = dep_weight ~a:nodes.(i) ~b:nodes.(j) in
      if w >= 0 then begin
        succs.(i) <- (j, w) :: succs.(i);
        remaining.(j) <- remaining.(j) + 1
      end
    done
  done;
  let height = Array.make n 0 in
  for i = n - 1 downto 0 do
    height.(i) <-
      List.fold_left
        (fun acc (j, w) -> max acc (w + height.(j)))
        nodes.(i).latency succs.(i)
  done;
  let ready_at = Array.make n 0 in
  let scheduled = Array.make n false in
  let result = Array.make n 0 in
  let filled = ref 0 in
  let cycle = ref 0 in
  (* nodes issued this cycle (0 or 1 here), and the pipe of that one *)
  let issued_count = ref 0 in
  let issued_pipe = ref Latency.E in
  while !filled < n do
    let best = ref (-1) in
    for i = n - 1 downto 0 do
      if
        (not scheduled.(i))
        && remaining.(i) = 0
        && ready_at.(i) <= !cycle
        && (!issued_count = 0
           || (nodes.(i).pipe <> !issued_pipe && not nodes.(i).barrier))
        && (!best = -1
           || height.(i) > height.(!best)
           || (height.(i) = height.(!best) && i < !best))
      then best := i
    done;
    match !best with
    | -1 ->
        (* nothing can issue this cycle: advance the clock *)
        incr cycle;
        issued_count := 0
    | i ->
        scheduled.(i) <- true;
        result.(!filled) <- i;
        incr filled;
        List.iter
          (fun (j, w) ->
            remaining.(j) <- remaining.(j) - 1;
            ready_at.(j) <- max ready_at.(j) (!cycle + w))
          succs.(i);
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
      if dep_weight ~a:nodes.(i) ~b:nodes.(j) >= 0
         && position.(i) >= position.(j)
      then ok := false
    done
  done;
  !ok
