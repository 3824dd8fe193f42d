(** The omlinkd wire protocol.

    Length-framed JSON: every message is a 4-byte big-endian payload
    length followed by that many bytes of (minified) JSON. Requests are
    an envelope — a kind plus optional [deadline_ms] and [trace] — and
    replies are objects with an [ok] marker: [{"ok":true, ...fields}] or
    [{"ok":false,"error":{"code":...,"message":...}}]. Binary payloads
    (object files, images) travel hex-encoded inside JSON strings. *)

val max_frame : int
(** Frames longer than this are rejected without being read. *)

val send : Unix.file_descr -> Obs.Json.t -> unit
(** May raise [Unix.Unix_error] on a broken connection. *)

type received =
  | Frame of Obs.Json.t
  | Eof  (** clean EOF at a message boundary *)
  | Bad of string  (** torn frame, oversized length, or invalid JSON *)

val recv : Unix.file_descr -> received

val hex_encode : string -> string
(** Two lower-case hex digits per byte, in order. *)

val hex_decode : string -> (string, string) result
(** The inverse of {!hex_encode}; digits may be of either case. An odd
    length is [Error "odd-length hex string"], and otherwise the first
    byte that is not a hex digit is [Error "bad hex digit 'c'"] (the byte
    as an OCaml character literal). *)

type source = { src_name : string; src_text : string }
(** An inline compilation input: name + minic source text travelling in
    the request itself, so the daemon's request→image path never touches
    the filesystem. *)

type request =
  | Ping of { delay_ms : int }
      (** [delay_ms] makes the handler sleep before replying — a
          deterministic way to exercise deadlines. *)
  | Compile of { files : string list; sources : source list }
  | Link of {
      files : string list;
      sources : source list;
      level : string;
      entry : string option;
    }  (** [files] are daemon-side paths; [sources] are inline. *)
  | Stats
  | Metrics
      (** live registry snapshot: the reply carries [metrics] (JSON) and
          [prometheus] (text exposition) fields *)
  | Suite of { bench : string option; jobs : int option }
  | Shutdown

type envelope = {
  req : request;
  deadline_ms : int option;  (** overrides the daemon's default deadline *)
  trace : bool;  (** collect pass spans; the reply carries them *)
}

val request : ?deadline_ms:int -> ?trace:bool -> request -> envelope
val kind_of_request : request -> string

val request_to_json : envelope -> Obs.Json.t
val request_of_json : Obs.Json.t -> (envelope, string) result

type err = { code : string; message : string; retry_after_ms : int option }
(** [retry_after_ms] rides on [overloaded] errors: the server's estimate
    of when retrying is worthwhile. *)

val err : ?retry_after_ms:int -> string -> string -> err

val ok_response : (string * Obs.Json.t) list -> Obs.Json.t
val error_response : ?retry_after_ms:int -> code:string -> string -> Obs.Json.t

val response_result :
  Obs.Json.t -> ((string * Obs.Json.t) list, err) result
(** Split a reply on its [ok] marker; [Ok] carries the fields minus the
    marker. *)
