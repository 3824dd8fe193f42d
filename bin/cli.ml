(* The terms more than one omlink command takes, each defined once. *)

open Cmdliner

let int_at_least lo =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | _ ->
        Error (`Msg (Printf.sprintf "expected an integer >= %d, got %S" lo s))
  in
  Arg.conv (parse, Format.pp_print_int)

let positive = int_at_least 1

let jobs =
  Arg.(value & opt (some positive) None
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Run on $(docv) parallel domains (default: the host's \
                 recommended domain count, and at least 2 for $(b,serve)'s \
                 worker pool). Results are identical to a serial run.")

let queue_limit =
  Arg.(value & opt (some positive) None
       & info [ "queue-limit" ] ~docv:"N"
           ~doc:"Bounded request-queue depth of the daemon; submissions past \
                 it get a structured overloaded error with retry_after_ms \
                 (default 64).")

let benchmark =
  let parse n =
    match Workloads.Programs.find n with
    | Some b -> Ok b
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown benchmark %s (know: %s)" n
                (String.concat ", " Workloads.Programs.names)))
  in
  Arg.conv
    (parse, fun ppf (b : Workloads.Programs.benchmark) ->
      Format.pp_print_string ppf b.name)

(* The request mix of both load commands; the fields they do not share
   (socket, deadline, pool shape) stay with each command. *)
let load_spec =
  let d = Load.default_spec in
  let profile =
    let mix =
      Arg.conv
        ( (fun s ->
            Result.map_error (fun m -> `Msg m) (Load.profile_of_string s)),
          fun ppf p -> Format.pp_print_string ppf (Load.profile_name p) )
    in
    Arg.(value & opt mix d.Load.profile
         & info [ "profile" ] ~docv:"MIX"
             ~doc:"Request mix: $(b,cold) (every request a distinct \
                   program), $(b,dup) (all requests the same program), or \
                   $(b,mixed) (a seeded 70/30 hot/cold blend).")
  in
  let clients =
    Arg.(value & opt positive d.Load.clients
         & info [ "clients" ] ~docv:"N" ~doc:"Concurrent client threads.")
  in
  let requests =
    Arg.(value & opt positive d.Load.requests
         & info [ "requests" ] ~docv:"N" ~doc:"Total requests to offer.")
  in
  let seed =
    Arg.(value & opt int d.Load.seed
         & info [ "seed" ] ~docv:"N"
             ~doc:"Drives program generation and the mix; the same seed \
                   replays the same request stream.")
  in
  let level =
    Arg.(value & opt string d.Load.level
         & info [ "l"; "level" ] ~docv:"LEVEL" ~doc:"Link level.")
  in
  let retries =
    Arg.(value & opt (int_at_least 0) d.Load.retries
         & info [ "retries" ] ~docv:"N"
             ~doc:"Per-request retries on an overloaded daemon.")
  in
  let spec profile clients requests seed level retries =
    { d with Load.profile; clients; requests; seed; level; retries }
  in
  Term.(const spec $ profile $ clients $ requests $ seed $ level $ retries)
