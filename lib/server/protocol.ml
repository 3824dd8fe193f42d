module Json = Obs.Json

(* --- framing ---

   Every message is a 4-byte big-endian payload length followed by that
   many bytes of JSON. Length-first framing keeps the reader total: it
   either gets a whole document or reports exactly what went wrong,
   and a runaway peer is cut off at [max_frame] instead of exhausting
   memory. *)

let max_frame = 256 * 1024 * 1024

let really_write fd s =
  let n = String.length s in
  let rec go off =
    if off < n then begin
      let w = Unix.write_substring fd s off (n - off) in
      go (off + w)
    end
  in
  go 0

(* [None] on EOF at a message boundary; [Error] on a torn read. *)
let really_read fd n =
  let buf = Bytes.create n in
  let rec go off =
    if off = n then Ok (Some (Bytes.unsafe_to_string buf))
    else
      match Unix.read fd buf off (n - off) with
      | 0 -> if off = 0 then Ok None else Error "unexpected EOF mid-frame"
      | r -> go (off + r)
  in
  go 0

let send fd j =
  let payload = Json.to_string ~minify:true j in
  let n = String.length payload in
  let hdr = Bytes.create 4 in
  Bytes.set_uint8 hdr 0 ((n lsr 24) land 0xff);
  Bytes.set_uint8 hdr 1 ((n lsr 16) land 0xff);
  Bytes.set_uint8 hdr 2 ((n lsr 8) land 0xff);
  Bytes.set_uint8 hdr 3 (n land 0xff);
  really_write fd (Bytes.unsafe_to_string hdr);
  really_write fd payload

type received = Frame of Json.t | Eof | Bad of string

let recv fd =
  match really_read fd 4 with
  | Error m -> Bad m
  | Ok None -> Eof
  | Ok (Some hdr) -> (
      let b i = Char.code hdr.[i] in
      let n = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
      if n < 0 || n > max_frame then
        Bad (Printf.sprintf "frame length %d out of bounds" n)
      else
        match really_read fd n with
        | Error m -> Bad m
        | Ok None -> Bad "unexpected EOF mid-frame"
        | Ok (Some payload) -> (
            match Json.parse payload with
            | Ok j -> Frame j
            | Error m -> Bad ("bad JSON payload: " ^ m)))

(* --- binary payloads in JSON strings ---

   The JSON layer re-encodes \uXXXX escapes as UTF-8, so raw bytes
   would not survive a round-trip; hex is boring and total. *)

let hex_digits = "0123456789abcdef"

let hex_encode s =
  let n = String.length s in
  let b = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Char.code s.[i] in
    Bytes.set b (2 * i) hex_digits.[c lsr 4];
    Bytes.set b ((2 * i) + 1) hex_digits.[c land 0xf]
  done;
  Bytes.unsafe_to_string b

(* the digit's value, or -1 for a byte that is not a hex digit *)
let hex_digit = function
  | '0' .. '9' as c -> Char.code c - Char.code '0'
  | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
  | _ -> -1

let hex_decode s =
  let n = String.length s in
  if n mod 2 <> 0 then Error "odd-length hex string"
  else
    let b = Bytes.create (n / 2) in
    let rec go i =
      if i = n / 2 then Ok (Bytes.unsafe_to_string b)
      else
        let hi = hex_digit s.[2 * i] and lo = hex_digit s.[(2 * i) + 1] in
        if hi < 0 then Error (Printf.sprintf "bad hex digit %C" s.[2 * i])
        else if lo < 0 then
          Error (Printf.sprintf "bad hex digit %C" s.[(2 * i) + 1])
        else begin
          Bytes.set b i (Char.chr ((hi lsl 4) lor lo));
          go (i + 1)
        end
    in
    go 0

(* --- requests --- *)

type source = { src_name : string; src_text : string }

type request =
  | Ping of { delay_ms : int }
      (** [delay_ms] makes the handler sleep — a deterministic way to
          exercise deadlines. *)
  | Compile of { files : string list; sources : source list }
  | Link of {
      files : string list;
      sources : source list;
      level : string;
      entry : string option;
    }
  | Stats
  | Metrics
  | Suite of { bench : string option; jobs : int option }
  | Shutdown

type envelope = {
  req : request;
  deadline_ms : int option;  (** overrides the daemon's default deadline *)
  trace : bool;              (** collect pass spans; replies carry a summary *)
}

let request ?deadline_ms ?(trace = false) req = { req; deadline_ms; trace }

let kind_of_request = function
  | Ping _ -> "ping"
  | Compile _ -> "compile"
  | Link _ -> "link"
  | Stats -> "stats"
  | Metrics -> "metrics"
  | Suite _ -> "suite"
  | Shutdown -> "shutdown"

let sources_field = function
  | [] -> []
  | sources ->
      [ ( "sources",
          Json.List
            (List.map
               (fun s ->
                 Json.Obj
                   [ ("name", Json.String s.src_name);
                     ("text", Json.String s.src_text) ])
               sources) ) ]

let files_field = function
  | [] -> []
  | files -> [ ("files", Json.List (List.map (fun f -> Json.String f) files)) ]

let request_to_json (e : envelope) =
  let base =
    match e.req with
    | Ping { delay_ms } ->
        if delay_ms = 0 then [] else [ ("delay_ms", Json.Int delay_ms) ]
    | Compile { files; sources } -> files_field files @ sources_field sources
    | Link { files; sources; level; entry } ->
        files_field files @ sources_field sources
        @ [ ("level", Json.String level) ]
        @ (match entry with
          | None -> []
          | Some e -> [ ("entry", Json.String e) ])
    | Stats | Metrics | Shutdown -> []
    | Suite { bench; jobs } ->
        (match bench with
        | None -> []
        | Some b -> [ ("bench", Json.String b) ])
        @ (match jobs with None -> [] | Some j -> [ ("jobs", Json.Int j) ])
  in
  Json.Obj
    (("kind", Json.String (kind_of_request e.req))
     :: base
    @ (match e.deadline_ms with
      | None -> []
      | Some d -> [ ("deadline_ms", Json.Int d) ])
    @ if e.trace then [ ("trace", Json.Bool true) ] else [])

let opt_member name conv j =
  match Json.member name j with
  | None | Some Json.Null -> Ok None
  | Some v -> (
      match conv v with
      | Some x -> Ok (Some x)
      | None -> Error (Printf.sprintf "field %S has the wrong type" name))

let string_list_field name j =
  match Json.member name j with
  | Some (Json.List l) ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | Json.String s :: rest -> go (s :: acc) rest
        | _ -> Error (Printf.sprintf "field %S must hold strings" name)
      in
      go [] l
  | Some _ -> Error (Printf.sprintf "field %S must be a list" name)
  | None -> Ok []

let sources_of_json j =
  match Json.member "sources" j with
  | None -> Ok []
  | Some (Json.List l) ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | item :: rest -> (
            match
              ( Option.bind (Json.member "name" item) Json.get_string,
                Option.bind (Json.member "text" item) Json.get_string )
            with
            | Some src_name, Some src_text ->
                go ({ src_name; src_text } :: acc) rest
            | _ -> Error "each source needs string fields \"name\" and \"text\"")
      in
      go [] l
  | Some _ -> Error "field \"sources\" must be a list"

let request_of_json j =
  let ( let* ) = Result.bind in
  let* kind =
    match Json.member "kind" j with
    | Some (Json.String k) -> Ok k
    | _ -> Error "missing request kind"
  in
  let* req =
    match kind with
    | "ping" ->
        let* delay = opt_member "delay_ms" Json.get_int j in
        Ok (Ping { delay_ms = Option.value delay ~default:0 })
    | "compile" ->
        let* files = string_list_field "files" j in
        let* sources = sources_of_json j in
        if files = [] && sources = [] then
          Error "compile needs \"files\" or \"sources\""
        else Ok (Compile { files; sources })
    | "link" ->
        let* files = string_list_field "files" j in
        let* sources = sources_of_json j in
        let* level = opt_member "level" Json.get_string j in
        let* entry = opt_member "entry" Json.get_string j in
        if files = [] && sources = [] then
          Error "link needs \"files\" or \"sources\""
        else
          Ok
            (Link
               { files;
                 sources;
                 level = Option.value level ~default:"full";
                 entry })
    | "stats" -> Ok Stats
    | "metrics" -> Ok Metrics
    | "suite" ->
        let* bench = opt_member "bench" Json.get_string j in
        let* jobs = opt_member "jobs" Json.get_int j in
        Ok (Suite { bench; jobs })
    | "shutdown" -> Ok Shutdown
    | k -> Error (Printf.sprintf "unknown request kind %S" k)
  in
  let* deadline_ms = opt_member "deadline_ms" Json.get_int j in
  let* trace = opt_member "trace" Json.get_bool j in
  Ok { req; deadline_ms; trace = Option.value trace ~default:false }

(* --- responses --- *)

type err = { code : string; message : string; retry_after_ms : int option }

let err ?retry_after_ms code message = { code; message; retry_after_ms }

let ok_response fields = Json.Obj (("ok", Json.Bool true) :: fields)

let error_response ?retry_after_ms ~code message =
  Json.Obj
    [ ("ok", Json.Bool false);
      ( "error",
        Json.Obj
          ([ ("code", Json.String code); ("message", Json.String message) ]
          @
          match retry_after_ms with
          | None -> []
          | Some ms -> [ ("retry_after_ms", Json.Int ms) ]) ) ]

let response_result j =
  match Json.member "ok" j with
  | Some (Json.Bool true) -> (
      match j with
      | Json.Obj fields ->
          Ok (List.filter (fun (k, _) -> k <> "ok") fields)
      | _ -> Ok [])
  | Some (Json.Bool false) -> (
      let e name conv =
        Option.bind (Json.member "error" j) (fun e ->
            Option.bind (Json.member name e) conv)
      in
      match (e "code" Json.get_string, e "message" Json.get_string) with
      | Some code, Some message ->
          Error
            { code; message; retry_after_ms = e "retry_after_ms" Json.get_int }
      | _ -> Error (err "protocol" "malformed error reply"))
  | _ -> Error (err "protocol" "reply carries no ok field")
