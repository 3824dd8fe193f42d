(* The incremental link engine: the daemon's brain, usable in-process
   too (the bench harness and tests drive it directly).

   Every expensive artifact on the compile→lift→optimize→link pipeline
   is keyed by content digest in the store:

   - compiled units, keyed by their source text (and compile options);
   - per-module symbolic lifts, keyed by the unit's serialized bytes;
   - linked images, keyed by the digests of every participating unit
     plus the level and entry.

   A one-module edit therefore recompiles and re-lifts exactly one
   module: every unchanged module — including every libstd member — is a
   lift-cache hit, and only resolution, instantiation and the level's
   OM passes run again. Relinking with nothing changed is a single
   image-cache hit. *)

module Json = Obs.Json

type t = {
  store : Store.t;
  libstd : Objfile.Archive.t lazy_t;
  libstd_digest : string lazy_t;
  created_at : float;
  lock : Mutex.t;
  mutable requests : int;
  metrics : Obs.Metrics.t;
}

let create ?store ?(metrics = Obs.Metrics.default) () =
  let store = match store with Some s -> s | None -> Store.create () in
  let libstd = lazy (Runtime.libstd ()) in
  { store;
    libstd;
    libstd_digest = lazy (Store.Codec.archive_digest (Lazy.force libstd));
    created_at = Unix.gettimeofday ();
    lock = Mutex.create ();
    requests = 0;
    metrics }

let store t = t.store
let metrics t = t.metrics

(* Forcing the same lazy from two domains at once raises
   [CamlinternalLazy.Undefined]; the daemon warms libstd eagerly before
   its worker pool exists so every later [Lazy.force] is a cheap read. *)
let warmup t =
  ignore (Lazy.force t.libstd : Objfile.Archive.t);
  ignore (Lazy.force t.libstd_digest : string)

(* Store counters are maintained by [Store] itself; mirror them into the
   registry on demand so every exposition path (daemon metrics reply,
   [omlink metrics], report snapshots) sees fresh values without the
   store taking a registry dependency. *)
let sync_store_metrics t =
  List.iter
    (fun kind ->
      let label = [ ("kind", Store.kind_name kind) ] in
      let c = Store.counters t.store kind in
      List.iter
        (fun (field, v) ->
          Obs.Metrics.set_counter
            (Obs.Metrics.counter ~registry:t.metrics ~labels:label
               ~help:"Store counters mirrored from Store.counters"
               ("omlt_store_" ^ field))
            v)
        (Store.counters_to_alist c))
    [ Store.Cunit; Store.Lifted; Store.Image ];
  Obs.Metrics.set_counter
    (Obs.Metrics.counter ~registry:t.metrics
       ~help:"Attempted store filesystem operations"
       "omlt_store_disk_ops_total")
    (Store.disk_ops t.store)

let count_request t =
  Mutex.protect t.lock (fun () ->
      t.requests <- t.requests + 1;
      t.requests)

let uptime_s t = Unix.gettimeofday () -. t.created_at

(* --- levels --- *)

type level = Std | Om of Om.level

let level_of_string = function
  | "std" -> Ok Std
  | s -> (
      (* OM levels share one parser with the CLI, so a level added there
         is automatically speakable over the daemon protocol *)
      match Om.level_of_string s with
      | Some l -> Ok (Om l)
      | None -> Error (Printf.sprintf "unknown level %S" s))

let level_name = function Std -> "std" | Om l -> Om.level_name l

(* --- inputs --- *)

type input =
  | Source of { name : string; text : string }
  | Object of { name : string; bytes : string }

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    Ok (really_input_string ic (in_channel_length ic))
  with Sys_error m -> Error m

let input_of_file path =
  match read_file path with
  | Error m -> Error m
  | Ok contents ->
      let base = Filename.basename path in
      if Filename.check_suffix path ".mc" then
        Ok (Source { name = Filename.remove_extension base ^ ".o"; text = contents })
      else Ok (Object { name = base; bytes = contents })

(* --- cached compilation --- *)

let compile_unit t (input : input) =
  match input with
  | Object { name; bytes } -> (
      match Store.Codec.cunit_of_string bytes with
      | Ok u -> Ok (u, false)
      | Error m -> Error (Printf.sprintf "%s: %s" name m))
  | Source { name; text } -> (
      let key = Store.digest_string (Printf.sprintf "mc:O2:%s\x00%s" name text) in
      (* an undecodable cache entry is a miss: compile afresh *)
      match
        Option.bind
          (Store.get t.store Store.Cunit ~key)
          (fun payload -> Result.to_option (Store.Codec.cunit_of_string payload))
      with
      | Some u -> Ok (u, true)
      | None -> (
          match
            Minic.Driver.compile_module ~prelude:Runtime.prelude ~name text
          with
          | u ->
              Store.put t.store Store.Cunit ~key (Store.Codec.cunit_to_string u);
              Ok (u, false)
          | exception Minic.Driver.Error m -> Error m))

(* --- cached lifting --- *)

let lift_cached t (u : Objfile.Cunit.t) =
  let key = Store.Codec.cunit_digest u in
  match
    Option.bind
      (Store.get t.store Store.Lifted ~key)
      (fun payload -> Result.to_option (Store.Codec.lifted_of_string payload))
  with
  | Some ms -> Ok ms
  | None -> (
      match Om.Lift.lift_module u with
      | Ok ms ->
          Store.put t.store Store.Lifted ~key (Store.Codec.lifted_to_string ms);
          Ok ms
      | Error m -> Error m)

(* --- linking --- *)

type link_info = {
  li_level : string;
  li_image_bytes : string;
  li_image_digest : string;
  li_insns : int;
  li_elapsed_s : float;
  li_image_hit : bool;
  li_cunit : Store.counters;   (* per-request store counter deltas *)
  li_lifted : Store.counters;
  li_image : Store.counters;
  li_disk_ops : int;           (* filesystem ops this request caused *)
}

let info_counters_json (i : link_info) =
  Json.Obj
    (List.map
       (fun (name, c) ->
         (name, Json.Obj (List.map (fun (k, v) -> (k, Json.Int v))
                            (Store.counters_to_alist c))))
       [ ("cunit", i.li_cunit); ("lifted", i.li_lifted); ("image", i.li_image) ]
    @ [ ("disk_ops", Json.Int i.li_disk_ops) ])

let ( let* ) = Result.bind

let rec collect f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = collect f rest in
      Ok (y :: ys)

let link t ?entry ~level inputs =
  let t0 = Unix.gettimeofday () in
  let c0 k = Store.counters t.store k in
  let cunit0 = c0 Store.Cunit
  and lifted0 = c0 Store.Lifted
  and image0 = c0 Store.Image
  and disk0 = Store.disk_ops t.store in
  let* level = level_of_string level in
  let* units =
    Obs.Trace.span "engine:units" @@ fun () ->
    collect (fun i -> Result.map fst (compile_unit t i)) inputs
  in
  (* the image key covers everything the produced bytes depend on *)
  let image_key =
    Store.digest_string
      (String.concat "\x00"
         ([ "image"; level_name level; Option.value entry ~default:"__start";
            Lazy.force t.libstd_digest ]
         @ List.map Store.Codec.cunit_digest units))
  in
  let finish ~image_hit ~image_bytes image stats =
    let elapsed_s = Unix.gettimeofday () -. t0 in
    Obs.Metrics.observe_s
      (Obs.Metrics.histogram ~registry:t.metrics
         ~labels:[ ("level", level_name level) ]
         ~help:"Engine link latency in microseconds" "engine_link_us")
      elapsed_s;
    Obs.Metrics.incr
      (Obs.Metrics.counter ~registry:t.metrics
         ~labels:[ ("result", if image_hit then "hit" else "miss") ]
         ~help:"Whole-image cache outcomes" "engine_image_cache_total");
    let info =
      { li_level = level_name level;
        li_image_bytes = image_bytes;
        li_image_digest = Store.digest_string image_bytes;
        li_insns = Linker.Image.insn_count image;
        li_elapsed_s = elapsed_s;
        li_image_hit = image_hit;
        li_cunit = Store.counters_diff (c0 Store.Cunit) cunit0;
        li_lifted = Store.counters_diff (c0 Store.Lifted) lifted0;
        li_image = Store.counters_diff (c0 Store.Image) image0;
        li_disk_ops = Store.disk_ops t.store - disk0 }
    in
    Ok (image, stats, info)
  in
  (* the stored bytes are the image's canonical encoding, so a hit
     replies with them as they are *)
  match
    Option.bind
      (Store.get t.store Store.Image ~key:image_key)
      (fun payload ->
        Result.to_option
          (Result.map (fun image -> (image, payload))
             (Store.Codec.image_of_string payload)))
  with
  | Some (image, image_bytes) -> finish ~image_hit:true ~image_bytes image None
  | None -> (
      let* world =
        Obs.Trace.span "resolve" @@ fun () ->
        Linker.Resolve.run ?entry units ~archives:[ Lazy.force t.libstd ]
      in
      let* image, stats =
        match level with
        | Std ->
            let* image =
              Obs.Trace.span "link:std" @@ fun () ->
              Linker.Link.link_resolved world
            in
            Ok (image, None)
        | Om om_level ->
            (* per-module lifts come from the store: only modules whose
               content changed are re-lifted *)
            let* { Om.image; stats } =
              Om.optimize_resolved ~lift:(lift_cached t) om_level world
            in
            Ok (image, Some stats)
      in
      let image_bytes = Store.Codec.image_to_string image in
      Store.put t.store Store.Image ~key:image_key image_bytes;
      finish ~image_hit:false ~image_bytes image stats)

let link_files t ?entry ~level files =
  let* inputs = collect input_of_file files in
  link t ?entry ~level inputs

(* --- cold vs warm relink timing (the schema-v3 [relink] field) --- *)

let relink_timings ?(level = "full") (b : Workloads.Programs.benchmark) =
  (* hermetic: neither the store nor the metrics of the timing probe
     belong in the process-wide registry *)
  let engine =
    create ~store:(Store.in_memory ()) ~metrics:(Obs.Metrics.create ()) ()
  in
  let inputs srcs =
    List.map (fun (name, text) -> Source { name; text }) srcs
  in
  let srcs = b.Workloads.Programs.sources in
  let* _, _, cold = link engine ~level (inputs srcs) in
  (* a one-module edit: the first module's digest changes, every other
     lift (user modules and libstd members alike) stays warm *)
  let edited =
    match srcs with
    | (n, t) :: rest -> (n, t ^ "\n// relink probe\n") :: rest
    | [] -> []
  in
  let* _, _, warm = link engine ~level (inputs edited) in
  Ok { Obs.Report.cold_s = cold.li_elapsed_s; warm_s = warm.li_elapsed_s }
