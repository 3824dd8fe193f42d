(** Decoding 32-bit instruction words back into {!Insn.t}.

    [decode] is a left inverse of {!Encode.insn} on every encodable
    instruction (a property the test suite checks exhaustively by random
    round-trips). Words that do not correspond to any instruction in the
    modelled subset decode to [Error]. *)

type error =
  | Bad_opcode of int
  | Bad_function of { opcode : int; funct : int }
  | Trailing_bytes of int
      (** the stream ends in a partial word of this many (1-3) bytes *)

val pp_error : Format.formatter -> error -> unit

val decode : int -> (Insn.t, error) result
(** [decode w] decodes the instruction word [w] (taken modulo 2^32). *)

val word : Bytes.t -> int -> int
(** [word b i] is the [i]th little-endian 32-bit word of [b]. *)

val pp_word : Format.formatter -> int -> unit
(** [pp_word ppf w] prints the instruction [w] encodes, or [.word 0x…]
    when [w] decodes to nothing: a disassembly's line for one word. *)

val of_bytes_loc : Bytes.t -> (Insn.t array, int * error) result
(** Decode a little-endian instruction stream into one instruction per
    word. Total: an undecodable word, or a length that is not a multiple
    of 4 ([Trailing_bytes]), is an [Error] carrying the byte offset of
    the first undecodable word, or of the partial trailing word — so
    callers can report the real faulting address instead of the stream's
    base. *)

val validate : Bytes.t -> (unit, int * error) result
(** [of_bytes_loc] without the array: the same [Error] for the same
    stream, and on text that decodes no allocation at all. Validation
    scans with it and builds a message only on failure. *)
