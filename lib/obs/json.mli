(** A minimal JSON tree, printer and parser.

    The observability layer produces (and round-trips) three kinds of
    documents — Chrome trace-event files, suite reports, and profile
    dumps — and the toolchain has no external JSON dependency, so this
    module carries just enough of RFC 8259 for those: the full value
    grammar, string escapes including [\uXXXX] (decoded to UTF-8), and a
    printer whose output the parser reads back exactly. Numbers without a
    fraction or exponent parse as [Int]; everything else as [Float]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?minify:bool -> t -> string
(** Render; [minify] drops the two-space indentation (default [false]). *)

val parse : string -> (t, string) result
(** Errors carry a character offset and a short description. Arrays and
    objects nest at most 512 deep: an opening bracket past that bound is
    [Error "json: at offset N: nesting deeper than 512"], so a hostile
    document costs time linear in its length and a bounded stack. *)

(** {1 Accessors} — total, option-returning. *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] on missing field or non-object. *)

val get_int : t -> int option
val get_float : t -> float option
(** [get_float] accepts [Int] too (JSON does not distinguish them). *)

val get_bool : t -> bool option
val get_string : t -> string option
val get_list : t -> t list option
