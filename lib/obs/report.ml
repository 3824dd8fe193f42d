let schema_version = 7
let standard_level = "standard"

type bucket = { insns : int; cycles : int }
type attribution = (string * bucket) list

type relink = { cold_s : float; warm_s : float }

type size = { text_bytes : int; data_bytes : int; gat_bytes : int }

type run = {
  level : string;
  cycles : int;
  insns : int;
  counters : (string * int) list;
  attribution : attribution option;
  fault : string option;
  wall_s : float option;
  size : size option;
}

type bench = {
  bench : string;
  build : string;
  outputs_agree : bool;
  runs : run list;
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
  l_image_hits : int;
  l_mismatched : int;
  l_wall_s : float;
  l_latency : quantiles;
}

type t = {
  tool : string;
  results : bench list;
  relinks : (string * relink) list;
  metrics : Json.t option;
  load : load option;
}

let make ?(tool = "omlt") ?(relinks = []) ?metrics ?load results =
  { tool; results; relinks; metrics; load }

(* --- derived numbers --- *)

let find_run b level =
  List.find_opt (fun r -> String.equal r.level level) b.runs

let improvement b r =
  match find_run b standard_level with
  | Some std when std.cycles > 0 && std.fault = None && r.fault = None ->
      100. *. float_of_int (std.cycles - r.cycles) /. float_of_int std.cycles
  | _ -> 0.

let mips r =
  match r.wall_s with
  | Some s when s > 0. -> Some (float_of_int r.insns /. s /. 1e6)
  | _ -> None

let throughput l =
  if l.l_wall_s <= 0. then 0. else float_of_int l.l_ok /. l.l_wall_s

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
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) r.counters));
      ("attribution", attribution_json r.attribution);
      ("fault", opt_string r.fault);
      ("wall_s", match r.wall_s with None -> Json.Null | Some s -> Json.Float s);
      ("size", size_json r.size) ]

let bench_json b =
  Json.Obj
    [ ("bench", Json.String b.bench);
      ("build", Json.String b.build);
      ("outputs_agree", Json.Bool b.outputs_agree);
      ("runs", Json.List (List.map run_json b.runs)) ]

let relinks_json relinks =
  Json.Obj
    (List.map
       (fun (name, r) ->
         ( name,
           Json.Obj
             [ ("cold_s", Json.Float r.cold_s); ("warm_s", Json.Float r.warm_s) ]
         ))
       relinks)

let quantiles_json q =
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
          ("image_hits", Json.Int l.l_image_hits);
          ("mismatched", Json.Int l.l_mismatched);
          ("wall_s", Json.Float l.l_wall_s);
          ("latency", quantiles_json l.l_latency) ]

let to_json t =
  Json.Obj
    [ ("schema_version", Json.Int schema_version);
      ("tool", Json.String t.tool);
      ("results", Json.List (List.map bench_json t.results));
      ("relinks", relinks_json t.relinks);
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

(* an optional field: absent or null is [None] *)
let opt_field name conv j =
  match Json.member name j with
  | None | Some Json.Null -> Ok None
  | Some _ -> Result.map Option.some (field name conv j)

(* [f] over every element, in order, stopping at the first error *)
let map_result f xs =
  let* ys =
    List.fold_left
      (fun acc x ->
        let* acc = acc in
        let* y = f x in
        Ok (y :: acc))
      (Ok []) xs
  in
  Ok (List.rev ys)

let attribution_of_json j =
  match Json.member "attribution" j with
  | None | Some Json.Null -> Ok None
  | Some (Json.Obj fields) ->
      let* buckets =
        map_result
          (fun (cat, v) ->
            let* insns = field "insns" Json.get_int v in
            let* cycles = field "cycles" Json.get_int v in
            Ok (cat, { insns; cycles }))
          fields
      in
      Ok (Some buckets)
  | Some _ -> Error "field \"attribution\" has the wrong type"

let counters_of_json j =
  match Json.member "counters" j with
  | None -> Ok []
  | Some (Json.Obj fields) ->
      map_result
        (fun (k, v) ->
          match Json.get_int v with
          | Some n -> Ok (k, n)
          | None -> Error (Printf.sprintf "counter %S is not an int" k))
        fields
  | Some _ -> Error "field \"counters\" has the wrong type"

let size_of_json j =
  match Json.member "size" j with
  | None | Some Json.Null -> Ok None
  | Some v ->
      let* text_bytes = field "text_bytes" Json.get_int v in
      let* data_bytes = field "data_bytes" Json.get_int v in
      let* gat_bytes = field "gat_bytes" Json.get_int v in
      Ok (Some { text_bytes; data_bytes; gat_bytes })

let run_of_json j =
  let* level = field "level" Json.get_string j in
  let* cycles = field "cycles" Json.get_int j in
  let* insns = field "insns" Json.get_int j in
  let* counters = counters_of_json j in
  let* attribution = attribution_of_json j in
  let* fault = opt_field "fault" Json.get_string j in
  let* wall_s = opt_field "wall_s" Json.get_float j in
  let* size = size_of_json j in
  Ok { level; cycles; insns; counters; attribution; fault; wall_s; size }

let bench_of_json j =
  let* bench = field "bench" Json.get_string j in
  let* build = field "build" Json.get_string j in
  let* outputs_agree = field "outputs_agree" Json.get_bool j in
  let* run_list = field "runs" Json.get_list j in
  let* runs = map_result run_of_json run_list in
  Ok { bench; build; outputs_agree; runs }

let relinks_of_json j =
  match Json.member "relinks" j with
  | None | Some Json.Null -> Ok []
  | Some (Json.Obj fields) ->
      map_result
        (fun (name, v) ->
          let* cold_s = field "cold_s" Json.get_float v in
          let* warm_s = field "warm_s" Json.get_float v in
          Ok (name, { cold_s; warm_s }))
        fields
  | Some _ -> Error "field \"relinks\" has the wrong type"

let quantiles_of_json v =
  let* q_count = field "count" Json.get_int v in
  let* q_p50_us = field "p50_us" Json.get_int v in
  let* q_p95_us = field "p95_us" Json.get_int v in
  let* q_p99_us = field "p99_us" Json.get_int v in
  let* q_max_us = field "max_us" Json.get_int v in
  Ok { q_count; q_p50_us; q_p95_us; q_p99_us; q_max_us }

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
      let* l_image_hits = field "image_hits" Json.get_int v in
      let* l_mismatched = field "mismatched" Json.get_int v in
      let* l_wall_s = field "wall_s" Json.get_float v in
      let* l_latency =
        match Json.member "latency" v with
        | None | Some Json.Null -> Error "load record carries no latency"
        | Some q -> quantiles_of_json q
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
             l_image_hits;
             l_mismatched;
             l_wall_s;
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
    let* results = map_result bench_of_json result_list in
    let* relinks = relinks_of_json j in
    let metrics =
      match Json.member "metrics" j with
      | None | Some Json.Null -> None
      | Some m -> Some m
    in
    let* load = load_of_json j in
    Ok { tool; results; relinks; metrics; load }

(* --- files --- *)

let write path t =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc (Json.to_string (to_json t));
  output_char oc '\n'

let read path =
  let named m =
    (* [open_in]'s own message already starts with the path *)
    if String.starts_with ~prefix:(path ^ ": ") m then m else path ^ ": " ^ m
  in
  Result.map_error named
    (let* text =
       try Ok (In_channel.with_open_bin path In_channel.input_all)
       with Sys_error m -> Error m
     in
     Result.bind (Json.parse text) of_json)
