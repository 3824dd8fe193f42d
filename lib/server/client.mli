(** The client side of the omlinkd wire protocol. *)

val connect : ?socket:string -> unit -> (Unix.file_descr, string) result
(** Connect to the daemon's socket (default {!Daemon.default_socket}). *)

val close : Unix.file_descr -> unit

val with_connection :
  ?socket:string -> (Unix.file_descr -> 'a) -> ('a, string) result

val field : string -> (string * Obs.Json.t) list -> Obs.Json.t option

val link :
  Unix.file_descr -> ?deadline_ms:int -> ?trace:bool -> ?entry:string ->
  ?sources:Protocol.source list -> level:string -> string list ->
  (string * (string * Obs.Json.t) list, Protocol.err) result
(** Link through the daemon; [Ok (bytes, fields)] carries the image in
    its binary format (decode with {!Linker.Image.decode}, which
    {!Store.Codec.image_of_string} is) plus the reply fields: [level],
    [image_digest], [insns], [elapsed_s], [image_hit], [stats] for an OM
    link that missed the image cache, [coalesced] on a reply shared with
    an identical request, and [trace] when asked. [sources]
    travel inline in the request (no daemon-side file reads); the string
    list names daemon-side paths. *)

val ping :
  Unix.file_descr -> ?deadline_ms:int -> ?delay_ms:int -> unit ->
  ((string * Obs.Json.t) list, Protocol.err) result

val stats :
  Unix.file_descr -> ((string * Obs.Json.t) list, Protocol.err) result

val metrics :
  Unix.file_descr -> ((string * Obs.Json.t) list, Protocol.err) result
(** Live registry snapshot: the reply carries [metrics] (JSON) and
    [prometheus] (text) fields. *)

val shutdown :
  Unix.file_descr -> ((string * Obs.Json.t) list, Protocol.err) result

val with_retries :
  ?retries:int -> ?seed:int -> ?socket:string ->
  (Unix.file_descr -> ('a, Protocol.err) result) ->
  ('a, Protocol.err) result
(** Run [f] over a fresh connection, retrying up to [retries] times
    (default 0 — off) when the connection is refused or the daemon
    answers [overloaded]. Sleeps the larger of a jittered exponential
    backoff (50 ms doubling up to 2 s) and the server's [retry_after_ms]
    hint between attempts. [seed] makes the jitter deterministic. *)
