(** Structured JSON-lines logging to stderr.

    Disabled by default: nothing is emitted unless the [OMLT_LOG]
    environment variable names a level ([debug]/[info]/[warn]/[error])
    or {!set_level} is called (e.g. from a [--log-level] flag). Each
    record is one minified JSON object:
    [{"ts":<unix seconds>,"level":"info","event":"...",<fields...>}]. *)

type level = Debug | Info | Warn | Error

val level_of_string : string -> level option
(** Recognizes [debug]/[info]/[warn]/[warning]/[error]; [off]/[none]
    and unknown strings yield [None]. *)

val set_level : level option -> unit
(** [Some l] enables records at [l] and above; [None] disables
    logging. Overrides [OMLT_LOG]. *)

val debug : ?fields:(string * Json.t) list -> string -> unit
val info : ?fields:(string * Json.t) list -> string -> unit
val warn : ?fields:(string * Json.t) list -> string -> unit
val error : ?fields:(string * Json.t) list -> string -> unit
