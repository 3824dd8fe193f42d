let schema_version = 6

type bucket = { insns : int; cycles : int }
type attribution = (string * bucket) list

type host = { wall_s : float; mips : float }

type relink = { cold_s : float; warm_s : float }

type size = { text_bytes : int; data_bytes : int; gat_bytes : int }

type run = {
  level : string;
  cycles : int;
  insns : int;
  improvement_pct : float;
  counters : (string * int) list;
  attribution : attribution option;
  fault : string option;
  host : host option;
  size : size option;
}

type bench = {
  bench : string;
  build : string;
  std_cycles : int;
  std_insns : int;
  std_attribution : attribution option;
  std_fault : string option;
  outputs_agree : bool;
  runs : run list;
  std_host : host option;
  relink : relink option;
  std_size : size option;
}

type quantiles = {
  q_count : int;
  q_p50_us : int;
  q_p95_us : int;
  q_p99_us : int;
  q_max_us : int;
}

type load = {
  l_profile : string;
  l_level : string;
  l_clients : int;
  l_workers : int;
  l_requests : int;
  l_ok : int;
  l_failed : int;
  l_overloaded : int;
  l_timeouts : int;
  l_coalesced : int;
  l_mismatched : int;
  l_wall_s : float;
  l_throughput_rps : float;
  l_latency : quantiles;
}

type t = {
  tool : string;
  results : bench list;
  latency : quantiles option;
  metrics : Json.t option;
  load : load option;
}

let make ?(tool = "omlt") ?latency ?metrics ?load results =
  { tool; results; latency; metrics; load }

let attribution_of_profile (p : Attr.t) =
  List.map
    (fun c ->
      let b = Attr.bucket p.Attr.totals c in
      (Attr.category_name c, { insns = b.Attr.b_insns; cycles = b.Attr.b_cycles }))
    Attr.all_categories

let size_of_image (image : Linker.Image.t) =
  { text_bytes = Bytes.length image.Linker.Image.text;
    data_bytes = Bytes.length image.Linker.Image.data;
    gat_bytes = image.Linker.Image.gat_bytes }

(* --- to json --- *)

let opt_string = function None -> Json.Null | Some s -> Json.String s

let attribution_json = function
  | None -> Json.Null
  | Some a ->
      Json.Obj
        (List.map
           (fun (name, (b : bucket)) ->
             ( name,
               Json.Obj
                 [ ("insns", Json.Int b.insns); ("cycles", Json.Int b.cycles) ]
             ))
           a)

let relink_json = function
  | None -> Json.Null
  | Some r ->
      Json.Obj
        [ ("cold_s", Json.Float r.cold_s); ("warm_s", Json.Float r.warm_s) ]

let host_json = function
  | None -> Json.Null
  | Some h ->
      Json.Obj
        [ ("wall_s", Json.Float h.wall_s); ("mips", Json.Float h.mips) ]

let size_json = function
  | None -> Json.Null
  | Some s ->
      Json.Obj
        [ ("text_bytes", Json.Int s.text_bytes);
          ("data_bytes", Json.Int s.data_bytes);
          ("gat_bytes", Json.Int s.gat_bytes) ]

let run_json r =
  Json.Obj
    [ ("level", Json.String r.level);
      ("cycles", Json.Int r.cycles);
      ("insns", Json.Int r.insns);
      ("improvement_pct", Json.Float r.improvement_pct);
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) r.counters));
      ("attribution", attribution_json r.attribution);
      ("fault", opt_string r.fault);
      ("host", host_json r.host);
      ("size", size_json r.size) ]

let bench_json b =
  Json.Obj
    [ ("bench", Json.String b.bench);
      ("build", Json.String b.build);
      ("std_cycles", Json.Int b.std_cycles);
      ("std_insns", Json.Int b.std_insns);
      ("std_attribution", attribution_json b.std_attribution);
      ("std_fault", opt_string b.std_fault);
      ("outputs_agree", Json.Bool b.outputs_agree);
      ("runs", Json.List (List.map run_json b.runs));
      ("std_host", host_json b.std_host);
      ("relink", relink_json b.relink);
      ("std_size", size_json b.std_size) ]

let quantiles_json = function
  | None -> Json.Null
  | Some q ->
      Json.Obj
        [ ("count", Json.Int q.q_count);
          ("p50_us", Json.Int q.q_p50_us);
          ("p95_us", Json.Int q.q_p95_us);
          ("p99_us", Json.Int q.q_p99_us);
          ("max_us", Json.Int q.q_max_us) ]

let load_json = function
  | None -> Json.Null
  | Some l ->
      Json.Obj
        [ ("profile", Json.String l.l_profile);
          ("level", Json.String l.l_level);
          ("clients", Json.Int l.l_clients);
          ("workers", Json.Int l.l_workers);
          ("requests", Json.Int l.l_requests);
          ("ok", Json.Int l.l_ok);
          ("failed", Json.Int l.l_failed);
          ("overloaded", Json.Int l.l_overloaded);
          ("timeouts", Json.Int l.l_timeouts);
          ("coalesced", Json.Int l.l_coalesced);
          ("mismatched", Json.Int l.l_mismatched);
          ("wall_s", Json.Float l.l_wall_s);
          ("throughput_rps", Json.Float l.l_throughput_rps);
          ("latency", quantiles_json (Some l.l_latency)) ]

let to_json t =
  Json.Obj
    [ ("schema_version", Json.Int schema_version);
      ("tool", Json.String t.tool);
      ("results", Json.List (List.map bench_json t.results));
      ("latency", quantiles_json t.latency);
      ("metrics", (match t.metrics with None -> Json.Null | Some m -> m));
      ("load", load_json t.load) ]

(* --- from json --- *)

let ( let* ) = Result.bind

let field name conv j =
  match Json.member name j with
  | None -> Error (Printf.sprintf "missing field %S" name)
  | Some v -> (
      match conv v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "field %S has the wrong type" name))

let opt_string_of j name =
  match Json.member name j with
  | None | Some Json.Null -> Ok None
  | Some v -> (
      match Json.get_string v with
      | Some s -> Ok (Some s)
      | None -> Error (Printf.sprintf "field %S has the wrong type" name))

let attribution_of_json name j =
  match Json.member name j with
  | None | Some Json.Null -> Ok None
  | Some (Json.Obj fields) ->
      let* buckets =
        List.fold_left
          (fun acc (cat, v) ->
            let* acc = acc in
            let* insns = field "insns" Json.get_int v in
            let* cycles = field "cycles" Json.get_int v in
            Ok ((cat, { insns; cycles }) :: acc))
          (Ok []) fields
      in
      Ok (Some (List.rev buckets))
  | Some _ -> Error (Printf.sprintf "field %S has the wrong type" name)

let counters_of_json j =
  match Json.member "counters" j with
  | None -> Ok []
  | Some (Json.Obj fields) ->
      let* kv =
        List.fold_left
          (fun acc (k, v) ->
            let* acc = acc in
            match Json.get_int v with
            | Some n -> Ok ((k, n) :: acc)
            | None -> Error (Printf.sprintf "counter %S is not an int" k))
          (Ok []) fields
      in
      Ok (List.rev kv)
  | Some _ -> Error "field \"counters\" has the wrong type"

let host_of_json name j =
  match Json.member name j with
  | None | Some Json.Null -> Ok None
  | Some v ->
      let* wall_s = field "wall_s" Json.get_float v in
      let* mips = field "mips" Json.get_float v in
      Ok (Some { wall_s; mips })

let size_of_json name j =
  match Json.member name j with
  | None | Some Json.Null -> Ok None
  | Some v ->
      let* text_bytes = field "text_bytes" Json.get_int v in
      let* data_bytes = field "data_bytes" Json.get_int v in
      let* gat_bytes = field "gat_bytes" Json.get_int v in
      Ok (Some { text_bytes; data_bytes; gat_bytes })

let relink_of_json j =
  match Json.member "relink" j with
  | None | Some Json.Null -> Ok None
  | Some v ->
      let* cold_s = field "cold_s" Json.get_float v in
      let* warm_s = field "warm_s" Json.get_float v in
      Ok (Some { cold_s; warm_s })

let run_of_json j =
  let* level = field "level" Json.get_string j in
  let* cycles = field "cycles" Json.get_int j in
  let* insns = field "insns" Json.get_int j in
  let* improvement_pct = field "improvement_pct" Json.get_float j in
  let* counters = counters_of_json j in
  let* attribution = attribution_of_json "attribution" j in
  let* fault = opt_string_of j "fault" in
  let* host = host_of_json "host" j in
  let* size = size_of_json "size" j in
  Ok
    { level;
      cycles;
      insns;
      improvement_pct;
      counters;
      attribution;
      fault;
      host;
      size }

let bench_of_json j =
  let* bench = field "bench" Json.get_string j in
  let* build = field "build" Json.get_string j in
  let* std_cycles = field "std_cycles" Json.get_int j in
  let* std_insns = field "std_insns" Json.get_int j in
  let* std_attribution = attribution_of_json "std_attribution" j in
  let* std_fault = opt_string_of j "std_fault" in
  let* outputs_agree = field "outputs_agree" Json.get_bool j in
  let* run_list = field "runs" Json.get_list j in
  let* runs =
    List.fold_left
      (fun acc r ->
        let* acc = acc in
        let* r = run_of_json r in
        Ok (r :: acc))
      (Ok []) run_list
  in
  let* std_host = host_of_json "std_host" j in
  let* relink = relink_of_json j in
  let* std_size = size_of_json "std_size" j in
  Ok
    { bench;
      build;
      std_cycles;
      std_insns;
      std_attribution;
      std_fault;
      outputs_agree;
      runs = List.rev runs;
      std_host;
      relink;
      std_size }

let quantiles_fields v =
  let* q_count = field "count" Json.get_int v in
  let* q_p50_us = field "p50_us" Json.get_int v in
  let* q_p95_us = field "p95_us" Json.get_int v in
  let* q_p99_us = field "p99_us" Json.get_int v in
  let* q_max_us = field "max_us" Json.get_int v in
  Ok { q_count; q_p50_us; q_p95_us; q_p99_us; q_max_us }

let quantiles_of_json j =
  match Json.member "latency" j with
  | None | Some Json.Null -> Ok None
  | Some v ->
      let* q = quantiles_fields v in
      Ok (Some q)

let load_of_json j =
  match Json.member "load" j with
  | None | Some Json.Null -> Ok None
  | Some v ->
      let* l_profile = field "profile" Json.get_string v in
      let* l_level = field "level" Json.get_string v in
      let* l_clients = field "clients" Json.get_int v in
      let* l_workers = field "workers" Json.get_int v in
      let* l_requests = field "requests" Json.get_int v in
      let* l_ok = field "ok" Json.get_int v in
      let* l_failed = field "failed" Json.get_int v in
      let* l_overloaded = field "overloaded" Json.get_int v in
      let* l_timeouts = field "timeouts" Json.get_int v in
      let* l_coalesced = field "coalesced" Json.get_int v in
      let* l_mismatched = field "mismatched" Json.get_int v in
      let* l_wall_s = field "wall_s" Json.get_float v in
      let* l_throughput_rps = field "throughput_rps" Json.get_float v in
      let* l_latency =
        match Json.member "latency" v with
        | None | Some Json.Null -> Error "load record carries no latency"
        | Some q -> quantiles_fields q
      in
      Ok
        (Some
           { l_profile;
             l_level;
             l_clients;
             l_workers;
             l_requests;
             l_ok;
             l_failed;
             l_overloaded;
             l_timeouts;
             l_coalesced;
             l_mismatched;
             l_wall_s;
             l_throughput_rps;
             l_latency })

let of_json j =
  let* version = field "schema_version" Json.get_int j in
  if version <> schema_version then
    Error
      (Printf.sprintf
         "unsupported schema_version %d (this reader speaks only %d)" version
         schema_version)
  else
    let* tool = field "tool" Json.get_string j in
    let* result_list = field "results" Json.get_list j in
    let* results =
      List.fold_left
        (fun acc b ->
          let* acc = acc in
          let* b = bench_of_json b in
          Ok (b :: acc))
        (Ok []) result_list
    in
    let* latency = quantiles_of_json j in
    let metrics =
      match Json.member "metrics" j with
      | None | Some Json.Null -> None
      | Some m -> Some m
    in
    let* load = load_of_json j in
    Ok { tool; results = List.rev results; latency; metrics; load }

(* --- files --- *)

let write path t =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc (Json.to_string (to_json t));
  output_char oc '\n'

let read path =
  let* text =
    try
      let ic = open_in_bin path in
      Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
      Ok (really_input_string ic (in_channel_length ic))
    with Sys_error m -> Error m
  in
  let* j = Json.parse text in
  of_json j
