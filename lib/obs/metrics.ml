(* The live metrics registry.

   Three instrument kinds — counters, gauges, latency histograms — live
   in a registry keyed by (name, labels). Counters and gauges are
   [Atomic] cells; histograms take a per-histogram mutex on [observe]
   (the hot callers are request- and task-grained, not per-instruction,
   so a mutex is cheap and keeps the bucket array, count, sum, min and
   max mutually consistent). Registration is get-or-create under the
   registry lock, so any domain may mint the same instrument and they
   all share one cell. *)

module StringMap = Map.Make (String)

(* --- the log-linear bucket layout ---

   HdrHistogram-lite: values 0..sub-1 get unit-width buckets; above
   that, each power-of-two tier [sub*2^(t-1), sub*2^t) is split into
   sub/2 buckets of width 2^t. Relative quantile error is bounded by
   2/sub (< 1%), and every integer below [sub] — and every bucket lower
   bound — is represented exactly, which is what makes quantiles over a
   scripted sequence of small values *exact* rather than approximate. *)

let sub_bits = 8
let sub = 1 lsl sub_bits (* 256 *)

let value_bits v =
  let rec go v n = if v = 0 then n else go (v lsr 1) (n + 1) in
  go v 0

let bucket_index v =
  let v = if v < 0 then 0 else v in
  if v < sub then v
  else
    let t = value_bits v - sub_bits in
    sub + ((t - 1) * (sub / 2)) + ((v - (sub lsl (t - 1))) lsr t)

let bucket_lower i =
  if i < sub then i
  else
    let i' = i - sub in
    let t = (i' / (sub / 2)) + 1 in
    let off = i' mod (sub / 2) in
    (sub lsl (t - 1)) + (off lsl t)

(* enough tiers to cover every non-negative OCaml int *)
let bucket_count = bucket_index max_int + 1

(* --- instruments --- *)

type counter = int Atomic.t
type gauge = float Atomic.t

type histogram = {
  h_lock : Mutex.t;
  h_buckets : int array;
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_min : int;
  mutable h_max : int;
}

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

type item = {
  i_name : string;
  i_labels : (string * string) list;
  i_help : string;
  i_inst : instrument;
}

type t = {
  lock : Mutex.t;
  mutable items : item list; (* reverse registration order *)
}

let create () = { lock = Mutex.create (); items = [] }

let default = create ()

let canon_labels labels =
  List.sort (fun (a, _) (b, _) -> compare a b) labels

let find_item t ~name ~labels =
  List.find_opt
    (fun i -> String.equal i.i_name name && i.i_labels = labels)
    t.items

let register t ~name ~labels ~help make =
  Mutex.protect t.lock @@ fun () ->
  match find_item t ~name ~labels with
  | Some i -> i.i_inst
  | None ->
      let inst = make () in
      t.items <-
        { i_name = name; i_labels = labels; i_help = help; i_inst = inst }
        :: t.items;
      inst

let counter ?(registry = default) ?(labels = []) ?(help = "") name =
  let labels = canon_labels labels in
  match
    register registry ~name ~labels ~help (fun () -> Counter (Atomic.make 0))
  with
  | Counter c -> c
  | _ -> invalid_arg (Printf.sprintf "metric %S is not a counter" name)

let gauge ?(registry = default) ?(labels = []) ?(help = "") name =
  let labels = canon_labels labels in
  match
    register registry ~name ~labels ~help (fun () -> Gauge (Atomic.make 0.))
  with
  | Gauge g -> g
  | _ -> invalid_arg (Printf.sprintf "metric %S is not a gauge" name)

let histogram ?(registry = default) ?(labels = []) ?(help = "") name =
  let labels = canon_labels labels in
  match
    register registry ~name ~labels ~help (fun () ->
        Histogram
          { h_lock = Mutex.create ();
            h_buckets = Array.make bucket_count 0;
            h_count = 0;
            h_sum = 0;
            h_min = 0;
            h_max = 0 })
  with
  | Histogram h -> h
  | _ -> invalid_arg (Printf.sprintf "metric %S is not a histogram" name)

(* --- counter / gauge operations --- *)

let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c by)
let set_counter c v = Atomic.set c v
let counter_value c = Atomic.get c

let set_gauge g v = Atomic.set g v

let add_gauge g d =
  (* CAS loop: atomic read-modify-write on a boxed float *)
  let rec go () =
    let old = Atomic.get g in
    if not (Atomic.compare_and_set g old (old +. d)) then go ()
  in
  go ()

(* --- histogram operations --- *)

let observe h v =
  let v = if v < 0 then 0 else v in
  Mutex.protect h.h_lock @@ fun () ->
  let i = bucket_index v in
  h.h_buckets.(i) <- h.h_buckets.(i) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum + v;
  if h.h_count = 1 || v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v

let observe_s h seconds =
  observe h (int_of_float (Float.round (seconds *. 1e6)))

let time h f =
  let t0 = Unix.gettimeofday () in
  let finish () = observe_s h (Unix.gettimeofday () -. t0) in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

type summary = {
  count : int;
  sum : int;
  min : int;
  max : int;
  p50 : int;
  p95 : int;
  p99 : int;
}

(* Rank-based: the q-quantile is the value of the sample at rank
   [ceil (q * count)] (1-based). Walking the cumulative bucket counts
   finds that sample's bucket; its lower bound is the reported value —
   exact whenever the sample landed on a bucket lower bound (in
   particular for any value below [sub]). The top rank reports the
   tracked maximum, which is always exact. *)
let quantile_locked h q =
  if h.h_count = 0 then 0
  else
    let rank =
      Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int h.h_count)))
    in
    if rank >= h.h_count then h.h_max
    else begin
      let n = Array.length h.h_buckets in
      let cum = ref 0 and i = ref 0 and res = ref h.h_max in
      (try
         while !i < n do
           cum := !cum + h.h_buckets.(!i);
           if !cum >= rank then begin
             res := bucket_lower !i;
             raise Exit
           end;
           Stdlib.incr i
         done
       with Exit -> ());
      !res
    end

let summary h =
  Mutex.protect h.h_lock @@ fun () ->
  { count = h.h_count;
    sum = h.h_sum;
    min = h.h_min;
    max = h.h_max;
    p50 = quantile_locked h 0.50;
    p95 = quantile_locked h 0.95;
    p99 = quantile_locked h 0.99 }

let buckets h =
  Mutex.protect h.h_lock @@ fun () ->
  let acc = ref [] in
  for i = Array.length h.h_buckets - 1 downto 0 do
    if h.h_buckets.(i) > 0 then acc := (bucket_lower i, h.h_buckets.(i)) :: !acc
  done;
  !acc

(* --- snapshots --- *)

let items t =
  Mutex.protect t.lock @@ fun () ->
  List.sort
    (fun a b -> compare (a.i_name, a.i_labels) (b.i_name, b.i_labels))
    t.items

let labels_json labels =
  Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) labels)

let to_json t =
  let counters = ref [] and gauges = ref [] and hists = ref [] in
  List.iter
    (fun i ->
      let base =
        [ ("name", Json.String i.i_name); ("labels", labels_json i.i_labels) ]
      in
      match i.i_inst with
      | Counter c ->
          counters := Json.Obj (base @ [ ("value", Json.Int (Atomic.get c)) ]) :: !counters
      | Gauge g ->
          gauges := Json.Obj (base @ [ ("value", Json.Float (Atomic.get g)) ]) :: !gauges
      | Histogram h ->
          let s = summary h in
          let bs = buckets h in
          hists :=
            Json.Obj
              (base
              @ [ ("count", Json.Int s.count);
                  ("sum", Json.Int s.sum);
                  ("min", Json.Int s.min);
                  ("max", Json.Int s.max);
                  ("p50", Json.Int s.p50);
                  ("p95", Json.Int s.p95);
                  ("p99", Json.Int s.p99);
                  ( "buckets",
                    Json.List
                      (List.map
                         (fun (lo, n) ->
                           Json.List [ Json.Int lo; Json.Int n ])
                         bs) ) ])
            :: !hists)
    (items t);
  Json.Obj
    [ ("counters", Json.List (List.rev !counters));
      ("gauges", Json.List (List.rev !gauges));
      ("histograms", Json.List (List.rev !hists)) ]

(* --- Prometheus text exposition --- *)

let escape_label_value s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let labels_prom ?extra labels =
  let labels = match extra with None -> labels | Some kv -> labels @ [ kv ] in
  if labels = [] then ""
  else
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v))
           labels)
    ^ "}"

let float_prom f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

let to_prometheus t =
  let b = Buffer.create 1024 in
  let seen_header = Hashtbl.create 16 in
  let header name kind help =
    if not (Hashtbl.mem seen_header name) then begin
      Hashtbl.add seen_header name ();
      if help <> "" then
        Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" name help);
      Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name kind)
    end
  in
  List.iter
    (fun i ->
      match i.i_inst with
      | Counter c ->
          header i.i_name "counter" i.i_help;
          Buffer.add_string b
            (Printf.sprintf "%s%s %d\n" i.i_name (labels_prom i.i_labels)
               (Atomic.get c))
      | Gauge g ->
          header i.i_name "gauge" i.i_help;
          Buffer.add_string b
            (Printf.sprintf "%s%s %s\n" i.i_name (labels_prom i.i_labels)
               (float_prom (Atomic.get g)))
      | Histogram h ->
          header i.i_name "histogram" i.i_help;
          let s = summary h in
          let bs = buckets h in
          let cum = ref 0 in
          List.iter
            (fun (lo, n) ->
              cum := !cum + n;
              (* [le] is the bucket's lower bound: every sample in the
                 bucket is >= lo, and the exposition stays cumulative *)
              Buffer.add_string b
                (Printf.sprintf "%s_bucket%s %d\n" i.i_name
                   (labels_prom ~extra:("le", string_of_int lo) i.i_labels)
                   !cum))
            bs;
          Buffer.add_string b
            (Printf.sprintf "%s_bucket%s %d\n" i.i_name
               (labels_prom ~extra:("le", "+Inf") i.i_labels)
               s.count);
          Buffer.add_string b
            (Printf.sprintf "%s_sum%s %d\n" i.i_name (labels_prom i.i_labels)
               s.sum);
          Buffer.add_string b
            (Printf.sprintf "%s_count%s %d\n" i.i_name (labels_prom i.i_labels)
               s.count);
          List.iter
            (fun (q, v) ->
              Buffer.add_string b
                (Printf.sprintf "%s%s %d\n" i.i_name
                   (labels_prom ~extra:("quantile", q) i.i_labels)
                   v))
            [ ("0.5", s.p50); ("0.95", s.p95); ("0.99", s.p99) ])
    (items t);
  Buffer.contents b
