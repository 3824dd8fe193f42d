(** Entries of a module's global address table (literal pool).

    Each entry is one 64-bit slot. Most slots hold the address of a program
    object — filled in by the linker — but the pool also holds 64-bit
    integer literals too wide to be built by an [LDAH]/[LDA] pair. The
    linker deduplicates entries when merging module GATs. *)

type t =
  | Addr of { symbol : string; addend : int }
      (** resolves to the address of [symbol] plus [addend] *)
  | Const of int64
      (** a raw 64-bit literal constant *)

val pp : Format.formatter -> t -> unit

val addr : ?addend:int -> string -> t
