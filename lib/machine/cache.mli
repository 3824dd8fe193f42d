(** A direct-mapped cache model (the 21064 had 8KB direct-mapped split
    instruction and data caches). Only hit/miss behaviour is modelled — no
    data is stored. *)

type t = private {
  line_shift : int;
  index_mask : int;
  tags : int array;  (** line number held by each slot; -1 = invalid *)
  mutable hits : int;
  mutable misses : int;
}
(** Read-only outside this module, so hot loops can load the counters as
    fields instead of calling {!hits}/{!misses} through the module
    block. *)

val create : size_bytes:int -> line_bytes:int -> t
(** Both sizes must be powers of two. *)

val access : t -> int -> bool
(** [access t addr] touches the line containing [addr] and reports whether
    it was a hit. *)

val hits : t -> int
val misses : t -> int
val reset : t -> unit
