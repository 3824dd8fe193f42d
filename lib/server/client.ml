(* The client side of the wire: connect, one request/one reply, typed
   helpers for the common calls, and an opt-in retry policy for flaky
   moments (daemon restarting, queue full). *)

module P = Protocol
module Json = Obs.Json

let connect ?socket () =
  let path = match socket with Some s -> s | None -> Daemon.default_socket () in
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Ok fd
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error
        (Printf.sprintf "%s: %s (is omlinkd running? start it with `omlink serve`)"
           path (Unix.error_message e))

let close fd = try Unix.close fd with Unix.Unix_error _ -> ()

let with_connection ?socket f =
  match connect ?socket () with
  | Error m -> Error m
  | Ok fd -> Fun.protect ~finally:(fun () -> close fd) (fun () -> Ok (f fd))

let roundtrip fd (env : P.envelope) =
  match P.send fd (P.request_to_json env) with
  | () -> (
      match P.recv fd with
      | P.Frame j -> P.response_result j
      | P.Eof -> Error (P.err "connection" "server closed the connection")
      | P.Bad m -> Error (P.err "protocol" m))
  | exception Unix.Unix_error (e, _, _) ->
      Error (P.err "connection" (Unix.error_message e))

let field name fields = List.assoc_opt name fields

(* Link through the daemon and return the raw serialized image bytes
   alongside the full reply fields. *)
let link fd ?deadline_ms ?trace ?entry ?(sources = []) ~level files =
  let env =
    P.request ?deadline_ms ?trace (P.Link { files; sources; level; entry })
  in
  match roundtrip fd env with
  | Error e -> Error e
  | Ok fields -> (
      match Option.bind (field "image" fields) Json.get_string with
      | None -> Error (P.err "protocol" "link reply carries no image")
      | Some hex -> (
          match P.hex_decode hex with
          | Error m -> Error (P.err "protocol" ("bad image hex: " ^ m))
          | Ok bytes -> Ok (bytes, fields)))

let ping fd ?deadline_ms ?(delay_ms = 0) () =
  roundtrip fd (P.request ?deadline_ms (P.Ping { delay_ms }))

let stats fd = roundtrip fd (P.request P.Stats)

let metrics fd = roundtrip fd (P.request P.Metrics)

let shutdown fd = roundtrip fd (P.request P.Shutdown)

(* --- bounded retry with jittered exponential backoff ---

   Two failures are worth retrying: the daemon isn't there (connection
   refused — it may be restarting) and the daemon shed us (overloaded —
   it told us when to come back). Everything else returns immediately.
   Each attempt reconnects from scratch; the sleep is the larger of the
   jittered exponential backoff and the server's own [retry_after_ms]
   hint. Off unless [retries > 0]. *)

let retryable (e : P.err) = e.P.code = "connection" || e.P.code = "overloaded"

let with_retries ?(retries = 0) ?seed ?socket f =
  let rng =
    (* deterministic when seeded (tests); self-init otherwise *)
    match seed with
    | Some s -> Random.State.make [| s |]
    | None -> Random.State.make_self_init ()
  in
  let backoff_ms attempt hint =
    (* 50 ms, doubling up to 2 s *)
    let capped = Float.min 2000. (50. *. (2. ** float_of_int attempt)) in
    (* full jitter: uniform in [capped/2, capped] *)
    let jittered =
      (capped /. 2.) +. Random.State.float rng (capped /. 2.)
    in
    max (int_of_float jittered) (Option.value hint ~default:0)
  in
  let attempt () =
    match connect ?socket () with
    | Error m -> Error (P.err "connection" m)
    | Ok fd -> Fun.protect ~finally:(fun () -> close fd) (fun () -> f fd)
  in
  let rec go n =
    match attempt () with
    | Ok _ as ok -> ok
    | Error e when n < retries && retryable e ->
        let ms = backoff_ms n e.P.retry_after_ms in
        Obs.Log.debug "client_retry"
          ~fields:
            [ ("attempt", Json.Int (n + 1));
              ("code", Json.String e.P.code);
              ("sleep_ms", Json.Int ms) ];
        Unix.sleepf (float_of_int ms /. 1000.);
        go (n + 1)
    | Error _ as err -> err
  in
  go 0
