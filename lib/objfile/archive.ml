type t = { name : string; members : Cunit.t list }

let make ~name members = { name; members }

let select t ~undefined =
  let needed = Hashtbl.create 16 in
  List.iter (fun n -> Hashtbl.replace needed n ()) undefined;
  let selected = Hashtbl.create 16 in
  (* Iterate to a fixed point: archive members may reference each other in
     either direction, so a single ordered sweep is not enough. *)
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (m : Cunit.t) ->
        if not (Hashtbl.mem selected m.name) then
          let resolves =
            List.exists (Hashtbl.mem needed) (Cunit.defined_symbols m)
          in
          if resolves then begin
            Hashtbl.replace selected m.name ();
            List.iter (fun d -> Hashtbl.remove needed d)
              (Cunit.defined_symbols m);
            List.iter
              (fun u -> Hashtbl.replace needed u ())
              (Cunit.undefined_symbols m);
            changed := true
          end)
      t.members
  done;
  List.filter (fun (m : Cunit.t) -> Hashtbl.mem selected m.name) t.members
