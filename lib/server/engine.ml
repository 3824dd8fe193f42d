(* The incremental link engine: the daemon's brain, usable in-process
   too (the bench harness and tests drive it directly).

   Two artifacts on the compile→link pipeline are keyed by content
   digest in the store:

   - compiled units, keyed by their source text (and compile options);
   - linked images, keyed by the digests of every participating unit
     plus the level and entry.

   A one-module edit therefore recompiles exactly one module, then
   resolves, lifts and optimizes the whole program through the one-shot
   pipeline's own code, as the paper's OM does on every link. Relinking
   with nothing changed is a single image-cache hit. *)

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
    Store.all_kinds;
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

(* --- linking --- *)

type link_info = {
  li_level : string;
  li_image_bytes : string;
  li_image_digest : string;
  li_insns : int;
  li_elapsed_s : float;
  li_image_hit : bool;
}

let ( let* ) = Result.bind

let rec collect f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = collect f rest in
      Ok (y :: ys)

let link t ?entry ~level inputs =
  let t0 = Unix.gettimeofday () in
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
        li_image_hit = image_hit }
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
            let* { Om.image; stats; _ } = Om.optimize_resolved om_level world in
            Ok (image, Some stats)
      in
      let image_bytes = Store.Codec.image_to_string image in
      Store.put t.store Store.Image ~key:image_key image_bytes;
      finish ~image_hit:false ~image_bytes image stats)

(* --- cold vs warm relink timing (a report's [relinks] entry) --- *)

let relink_timings srcs =
  let inputs = List.map (fun (name, text) -> Source { name; text }) in
  (* a one-module edit: the first module recompiles, every other
     compiled unit stays warm *)
  let edited =
    List.mapi (fun i (n, t) -> (n, if i = 0 then t ^ "\n// relink probe\n" else t)) srcs
  in
  (* one pair on a fresh engine, libstd built before the clock starts;
     hermetic: neither its store nor its metrics belong in the
     process-wide registry *)
  let pair () =
    let engine =
      create ~store:(Store.in_memory ()) ~metrics:(Obs.Metrics.create ()) ()
    in
    warmup engine;
    let* _, _, cold = link engine ~level:"full" (inputs srcs) in
    let* _, _, warm = link engine ~level:"full" (inputs edited) in
    Ok (cold.li_elapsed_s, warm.li_elapsed_s)
  in
  let rec pairs k acc =
    if k = 0 then Ok acc else Result.bind (pair ()) (fun p -> pairs (k - 1) (p :: acc))
  in
  let median xs = List.nth (List.sort compare xs) (List.length xs / 2) in
  let* ps = pairs 5 [] in
  Ok { Obs.Report.cold_s = median (List.map fst ps); warm_s = median (List.map snd ps) }
