(* The baseline gate. A report's rows hold simulated and linked facts,
   which are deterministic for a source tree, so NEW must equal OLD leaf
   by leaf. What the host measured is skipped wherever it appears: *)

let host_fields = [ "wall_s" ]

type finding = {
  subject : string;
  field : string;
  old_value : string;
  new_value : string;
}

let finding subject field old_value new_value =
  { subject; field; old_value; new_value }

let text = function
  | None -> "absent"
  | Some j -> Json.to_string ~minify:true j

(* every leaf under [path] that differs; an object's fields are walked
   in OLD's order, then the ones only NEW has *)
let rec leaves subject path o n =
  match (o, n) with
  | Json.Obj os, Json.Obj ns ->
      let only_new = List.filter (fun (k, _) -> not (List.mem_assoc k os)) ns in
      List.concat_map
        (fun (k, _) ->
          let path = if path = "" then k else path ^ "." ^ k in
          if List.mem k host_fields then []
          else
            match (List.assoc_opt k os, List.assoc_opt k ns) with
            | Some o, Some n -> leaves subject path o n
            | o, n -> [ finding subject path (text o) (text n) ])
        (os @ only_new)
  | _ when o = n -> []
  | _ -> [ finding subject path (text (Some o)) (text (Some n)) ]

(* [olds] and [news] matched by [key]: a finding for each item on one
   side only and one when the shared items come in another order, then
   [pair] on each matched pair *)
let matched ~parent ~what ~subject ~key olds news pair =
  let keys = List.map key in
  let ok = keys olds and nk = keys news in
  let only a b ~was ~is =
    List.filter_map
      (fun k ->
        if List.mem k b then None else Some (finding (subject k) what was is))
      a
  in
  let shared a b = List.filter (fun k -> List.mem k b) a in
  let order =
    if shared ok nk = shared nk ok then []
    else
      [ finding parent "order"
          (String.concat ", " (shared ok nk))
          (String.concat ", " (shared nk ok)) ]
  in
  only ok nk ~was:"present" ~is:"absent"
  @ only nk ok ~was:"absent" ~is:"present"
  @ order
  @ List.concat_map
      (fun o ->
        match List.find_opt (fun n -> key n = key o) news with
        | Some n -> pair o n
        | None -> [])
      olds

let row_name (b : Report.bench) = b.Report.bench ^ "/" ^ b.Report.build

(* a row's own fields; its runs are matched by level *)
let row_json b = Report.bench_json { b with Report.runs = [] }

let compare_row (o : Report.bench) (n : Report.bench) =
  let row = row_name o in
  let subject level = row ^ " " ^ level in
  let level (r : Report.run) = r.Report.level in
  leaves row "" (row_json o) (row_json n)
  @ matched ~parent:row ~what:"run" ~subject ~key:level o.Report.runs
      n.Report.runs (fun orun nrun ->
        leaves (subject (level orun)) "" (Report.run_json orun)
          (Report.run_json nrun))

(* the one host-time check: an absolute floor on NEW's simulated MIPS,
   against the fused path degenerating to interpreter speed *)
let under_floor min_mips (r : Report.t) =
  List.concat_map
    (fun (b : Report.bench) ->
      List.filter_map
        (fun (run : Report.run) ->
          match Report.mips run with
          | Some m when m < min_mips ->
              Some
                (finding
                   (row_name b ^ " " ^ run.Report.level)
                   "mips"
                   (Printf.sprintf "min %g" min_mips)
                   (Printf.sprintf "%.2f" m))
          | _ -> None)
        b.Report.runs)
    r.Report.results

let compare ?min_mips ~old_r ~new_r () =
  matched ~parent:"rows" ~what:"row" ~subject:Fun.id ~key:row_name
    old_r.Report.results new_r.Report.results compare_row
  @ match min_mips with None -> [] | Some m -> under_floor m new_r

let pp_finding ppf f =
  Format.fprintf ppf "%s  %s: %s -> %s" f.subject f.field f.old_value
    f.new_value
