(** Binary serialization of compilation units and archives.

    The on-disk format is a simple little-endian tagged layout with the
    magic ["WOF1"] (["WAR1"] for archives). [read] is a total inverse of
    [write]; malformed input yields [Error] rather than an exception. *)

val write : Cunit.t -> Bytes.t
val read : Bytes.t -> (Cunit.t, string) result

val write_archive : Archive.t -> Bytes.t
val read_archive : Bytes.t -> (Archive.t, string) result

val save : string -> Cunit.t -> unit
(** [save path unit] writes the unit to a file. *)

val load : string -> (Cunit.t, string) result

(** The primitives both formats are written in, shared with the linked
    image format ({!Linker.Image.encode}). Fields are little-endian; a
    string or byte block is a 32-bit length followed by its bytes. *)
module Wire : sig
  val w8 : Buffer.t -> int -> unit
  val w32 : Buffer.t -> int -> unit
  val w64 : Buffer.t -> int64 -> unit
  val wstr : Buffer.t -> string -> unit
  val wbytes : Buffer.t -> Bytes.t -> unit

  type reader
  (** A position in the input. The readers below check the bytes left
      before each read and escape through an exception private to this
      module on malformed input, so they are only for use inside
      {!read}, which turns that into [Error]. *)

  val r8 : reader -> int

  val r32 : reader -> int
  (** Sign-extended. *)

  val r64 : reader -> int64
  val rstr : reader -> string
  val rbytes : reader -> Bytes.t

  val rcount : reader -> string -> int
  (** A 32-bit count of entries that take at least one byte each: a
      negative count or one above the bytes left is malformed, so no
      count can size an allocation beyond the input. The string names
      the entries in the error. *)

  val malformed : string -> 'a
  (** Reject the input with this message. *)

  val read : magic:string -> (reader -> 'a) -> Bytes.t -> ('a, string) result
  (** Check the 4-byte [magic], run the reader over the rest and require
      it to consume every byte. Malformed input is [Error], never an
      exception. *)
end
