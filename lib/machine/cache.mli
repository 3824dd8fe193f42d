(** A direct-mapped cache model (the 21064 had 8KB direct-mapped split
    instruction and data caches). Only hit/miss behaviour is modelled — no
    data is stored. *)

type t = private {
  line_shift : int;
  index_mask : int;
  tags : int array;  (** line number held by each slot; -1 = invalid *)
  mutable misses : int;
}
(** Read-only outside this module, so the fused simulator can test a
    tag inline and leave only the miss to {!fill}. *)

val create : size_bytes:int -> line_bytes:int -> t
(** Both sizes must be powers of two. *)

val access : t -> int -> bool
(** [access t addr] touches the line containing [addr] and reports whether
    it was a hit. A hit changes no state; a miss is {!fill}. *)

val fill : t -> int -> unit
(** [fill t addr] installs the line containing [addr] and counts a miss:
    {!access}'s miss path, for a caller that tested the tag itself. *)

val misses : t -> int
