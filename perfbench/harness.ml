(* Shared machinery of the benchmark: clocks, per-layer timers taken from
   outside the toolchain, whole-pass op loops, op statistics and the
   result line. *)

let now = Unix.gettimeofday

(* --- per-layer accounting ---

   A layer is charged the wall time and minor words of each call the
   benchmark makes into it. [sub] holds breakdowns of a layer (the OM
   passes inside [om.optimize]); they are reported but not summed again
   into the layer total. *)

type acc = { mutable s : float; mutable mw : float }

type layers = {
  tracing : bool;
  top : (string, acc) Hashtbl.t;
  sub : (string, acc) Hashtbl.t;
}

let layers tracing =
  { tracing; top = Hashtbl.create 16; sub = Hashtbl.create 16 }

let charge tbl name ~s ~mw =
  let a =
    match Hashtbl.find_opt tbl name with
    | Some a -> a
    | None ->
        let a = { s = 0.; mw = 0. } in
        Hashtbl.replace tbl name a;
        a
  in
  a.s <- a.s +. s;
  a.mw <- a.mw +. mw

(* [timed l name f] runs [f]; with tracing on it charges [f]'s wall time
   and minor words to layer [name]. *)
let timed l name f =
  if not l.tracing then f ()
  else begin
    let w0 = Gc.minor_words () in
    let t0 = now () in
    let v = f () in
    let s = now () -. t0 in
    charge l.top name ~s ~mw:(Gc.minor_words () -. w0);
    v
  end

let layer_s l name =
  match Hashtbl.find_opt l.top name with Some a -> a.s | None -> 0.

let layer_mw l name =
  match Hashtbl.find_opt l.top name with Some a -> a.mw | None -> 0.

let sub_s l name =
  match Hashtbl.find_opt l.sub name with Some a -> a.s | None -> 0.

let total_layer_s l = Hashtbl.fold (fun _ a acc -> acc +. a.s) l.top 0.

(* Self time of each span a collector saw: its duration minus the part
   its direct children cover. *)
let self_times (spans : Obs.Trace.span list) =
  List.map
    (fun (s : Obs.Trace.span) ->
      let children =
        List.fold_left
          (fun acc (c : Obs.Trace.span) ->
            if
              c.depth = s.depth + 1
              && c.start_us >= s.start_us
              && c.start_us < s.start_us +. s.dur_us
            then acc +. c.dur_us
            else acc)
          0. spans
      in
      (s.name, (s.dur_us -. children) /. 1e6))
    spans

(* --- statistics --- *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Percentile of sorted values, interpolated between the two nearest
   ranks; [None] unless at least [min_beyond] values lie beyond it. *)
let percentile ?(min_beyond = 10) sorted p =
  let n = Array.length sorted in
  let h = p *. float_of_int (n - 1) in
  let i = int_of_float h in
  if float_of_int n *. (1. -. p) < float_of_int min_beyond then None
  else Some (sorted.(i) +. ((h -. float_of_int i) *. (sorted.(i + 1) -. sorted.(i))))

let geomean = function
  | [] -> 0.
  | xs ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0. xs
        /. float_of_int (List.length xs))

(* Peak resident set of this process (VmHWM), in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> 0.
  in
  scan ()

(* --- set-up: done [reps] times, reported as the median --- *)

let setup ?(reps = 3) f =
  let rec go i times last =
    if i = reps then (Option.get last, median times)
    else
      let t0 = now () in
      let v = f () in
      go (i + 1) ((now () -. t0) :: times) (Some v)
  in
  go 0 [] None

(* --- the timed phase --- *)

type phase = {
  mutable ops : int;
  mutable failed : int;
  mutable lat_ms : float array;
      (** the first [ops] entries are op latencies. A float array is flat,
          so the GC never scans it; a growing list of boxed floats would
          slow every major collection more as the run goes on. *)
  mutable best_ms : float array;
      (** [run_passes]: op [i]'s lowest latency over the passes; empty
          otherwise *)
  mutable wall_s : float;  (** wall time of the ops themselves *)
  mutable op_mw : float;  (** minor words allocated inside ops *)
  mutable gc_s : float;  (** the full collections between ops *)
}

let phase () =
  { ops = 0; failed = 0; lat_ms = Array.make 4096 0.; best_ms = [||];
    wall_s = 0.; op_mw = 0.; gc_s = 0. }

let record ph ms =
  if ph.ops = Array.length ph.lat_ms then begin
    let a = Array.make (2 * ph.ops) 0. in
    Array.blit ph.lat_ms 0 a 0 ph.ops;
    ph.lat_ms <- a
  end;
  ph.lat_ms.(ph.ops) <- ms;
  ph.ops <- ph.ops + 1

let shuffle rng n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Whether to start another block of work (a pass or an epoch): until
   [min_ops] ops ran, and then while stopping after it would end nearer
   to [seconds] than stopping now. *)
let another ph ~min_ops ~seconds ~elapsed ~block_s =
  ph.ops < min_ops || elapsed +. (block_s /. 2.) < seconds

(* Whole passes over ops [0..n-1], each pass in a fresh order drawn from
   [rng], for about [seconds] and at least [min_ops] ops. So every run
   repeats the same work an exact number of times. [op i] is timed;
   [check i r] runs afterwards, off the clock. A full major collection,
   also off the clock, precedes every op: no op pays for the garbage of
   the one before it, which would make its time depend on the order. Its
   time is kept in [gc_s], so the garbage ops leave is still counted. *)
let run_passes ~rng ~n ~seconds ~min_ops ~op ~check =
  let ph = phase () in
  ph.best_ms <- Array.make n infinity;
  let start = now () in
  let off_clock = ref 0. in
  let pass_s = ref 0. in
  while another ph ~min_ops ~seconds ~elapsed:(now () -. start) ~block_s:!pass_s do
    let pass_start = now () in
    Array.iter
      (fun i ->
        let g0 = now () in
        Gc.full_major ();
        let gc_s = now () -. g0 in
        ph.gc_s <- ph.gc_s +. gc_s;
        off_clock := !off_clock +. gc_s;
        let w0 = Gc.minor_words () in
        let t0 = now () in
        let r = op i in
        let t1 = now () in
        ph.op_mw <- ph.op_mw +. (Gc.minor_words () -. w0);
        let ms = 1000. *. (t1 -. t0) in
        record ph ms;
        if ms < ph.best_ms.(i) then ph.best_ms.(i) <- ms;
        if not (check i r) then ph.failed <- ph.failed + 1;
        off_clock := !off_clock +. (now () -. t1))
      (shuffle rng n);
    pass_s := now () -. pass_start
  done;
  ph.wall_s <- now () -. start -. !off_clock;
  ph

let sorted_latencies ph =
  let a = Array.sub ph.lat_ms 0 ph.ops in
  Array.sort compare a;
  a

let ops_per_s ph = float_of_int ph.ops /. ph.wall_s

let mean_latency_ms ph =
  Array.fold_left ( +. ) 0. (Array.sub ph.lat_ms 0 ph.ops) /. float_of_int ph.ops

(* Mean time per op of the full collection [run_passes] makes before it:
   the major-GC cost of the garbage ops leave, which op times exclude. *)
let gc_ms ph = ("gc.ms", 1000. *. ph.gc_s /. float_of_int ph.ops, "ms")

(* --- results --- *)

type metric = string * float * string  (** name, value, unit *)

type report = {
  attempted : int;
  failed : int;
  metrics : metric list;
}

(* Ops per second, and op latency percentiles in ms, of an untraced run
   at its best. Every run repeats the same block of work (a pass, an
   epoch) at least three times, and a busy host only ever slows it down:
   on a shared host a burst of load slows everything by up to 1.7x for
   some fifteen seconds, and moves the median of all a run's timings
   whenever it covers much of the run. The best over the repeats is the
   figure such a burst moves least. *)
type summary = { ops_per_s : float; p50_ms : float; p90_ms : float }

(* The op set of [run_passes] at its best: each op's lowest latency over
   the passes, their percentiles over the op set, and the ops per second
   of a pass made of them (the ops run one at a time). The op set is the
   whole population, not a sample of it, so its percentiles need no
   values beyond them. *)
let best_of_passes ph =
  let best = Array.copy ph.best_ms in
  Array.sort compare best;
  let pct p = Option.get (percentile ~min_beyond:0 best p) in
  let pass_ms = Array.fold_left ( +. ) 0. best in
  { ops_per_s = 1000. *. float_of_int (Array.length best) /. pass_ms;
    p50_ms = pct 0.50;
    p90_ms = pct 0.90 }

(* The end-to-end metrics every workload reports from an untraced run. *)
let end_to_end ~setup_s b =
  [ ("setup_s", setup_s, "s");
    ("ops_per_s", b.ops_per_s, "1/s");
    ("op_ms_p50", b.p50_ms, "ms");
    ("op_ms_p90", b.p90_ms, "ms");
    ("peak_rss_mb", peak_rss_mb (), "MB") ]

(* Per-layer metrics shared by every workload's traced run: the untraced
   phase [plain] gives throughput, allocation and the tail; the traced
   phase [traced] gives the layer means, and [layer_ms] is their sum per
   op, so [other.ms] is what the timed calls do not cover. A p99 without
   ten samples beyond it is left out. *)
let accounting ~plain ~traced ~layer_ms =
  [ ("alloc_mw_per_op", plain.op_mw /. float_of_int plain.ops /. 1e6, "Mwords");
    ("other.ms", mean_latency_ms traced -. layer_ms, "ms");
    ("trace.ops_per_s_untraced", ops_per_s plain, "1/s");
    ("trace.ops_per_s_traced", ops_per_s traced, "1/s");
    ("trace.overhead_ratio", ops_per_s plain /. ops_per_s traced, "ratio") ]
  @ Option.to_list
      (Option.map
         (fun v -> ("op_ms_p99", v, "ms"))
         (percentile (sorted_latencies plain) 0.99))

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else invalid_arg "json_number: not a finite number"

let result_line ~correct r =
  let metrics =
    List.map
      (fun (name, v, u) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) u)
      r.metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct r.attempted r.failed
    (String.concat ", " metrics)
