(** Linked executable images.

    An image is what the machine simulator runs: a text segment, a data
    segment (initialized bytes followed by zero-filled space), the entry
    point, and the loader metadata the optimizer and the measurement
    harness care about — per-procedure descriptors with resolved GP values,
    a symbol map, and the extent of the linked GAT. *)

type proc_info = {
  name : string;
  entry : int;           (** absolute address *)
  size : int;            (** bytes *)
  gp_value : int;        (** the GP this procedure's code expects *)
  module_name : string;
  exported : bool;
  uses_gp : bool;
  gp_setup_at_entry : bool;
}

type t = {
  text_base : int;
  text : Bytes.t;
  data_base : int;
  data : Bytes.t;        (** includes zero-filled .bss tail *)
  entry : int;
  procs : proc_info array;
      (** in entry order: each procedure starts at or past the end of the
          one before, as both linkers lay them out *)
  symbols : (string * int) list;  (** resolved data/procedure addresses *)
  heap_base : int;
  gat_base : int;
  gat_bytes : int;
  ngroups : int;
}

val find_proc : t -> string -> proc_info option
val proc_containing : t -> int -> proc_info option
(** The procedure whose [entry, entry+size) range contains the address,
    by binary search: [None] before the text, past it and in the gaps
    between procedures. Requires [procs] in entry order ({!validate}
    checks it); on a table out of order the answer may be wrong. *)

val symbol_address : t -> string -> int option

val insn_count : t -> int
(** Static number of instructions in the text segment. *)

val pp_disassembly : Format.formatter -> t -> unit
(** Text segment with procedure labels and addresses, one word per line;
    an undecodable word prints as [.word 0x…]. *)

(** {1 The decoded text and the structural check}

    {!decode_text} is the one text decoder: [Om.Verify] and the simulator
    call it, and whoever verified an image hands its result on. {!issues}
    is the one check of the table, the entry point and the GAT:
    {!validate} stops at the first issue, [Om.Verify] reports them all. *)

type decoded = {
  image : t;
  insns : Isa.Insn.t array;
      (** one per word: instruction [i] sits at [text_base + 4 * i].
          Treat it as read-only. *)
}

val decode_text : t -> (decoded, int * Isa.Decode.error) result
(** An error carries the absolute PC of the first undecodable word, or
    of a partial trailing one. *)

type issue = { at : int; what : string }

val issues : t -> issue list
(** Every structural problem, in this order: per descriptor, one that
    starts before the one ahead of it or inside it, and one whose extent
    is not inside the text (a negative size too); then an entry point
    that is not a procedure's entry, and a GAT extent not inside the
    data. The empty list means the table is in entry order, as
    {!proc_containing} requires. *)

val validate : t -> (unit, string) result
(** The text decodes (["undecodable text: …"] otherwise, checked without
    building instructions), then the first of {!issues}, if any. *)

(** {1 The image file format}

    An image's one binary encoding: what the artifact store keeps, what
    the link service sends and what [omlink client link -o] writes. The
    magic ["WIM1"] names the format and its version; the record's fields
    follow in declaration order, addresses as 64-bit words, with every
    length and count checked against the bytes left before it is read. *)

val encode : t -> string

val decode : string -> (t, string) result
(** The inverse of {!encode}. Malformed input — a bad magic, a length or
    count past the end, a flag byte other than 0 or 1, trailing bytes —
    is [Error], never an exception. *)
