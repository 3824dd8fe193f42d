(** Symbols and procedure descriptors.

    The loader format "identifies procedure boundaries and specifies the
    correct value of GP for each procedure" — that information is what makes
    link-time lifting of the code tractable, so procedure symbols carry a
    descriptor here. *)

type binding =
  | Local   (** visible only inside its compilation unit *)
  | Global  (** participates in cross-unit symbol resolution *)

type def =
  | Proc of proc_desc
      (** a procedure in [Text] at [offset], occupying [size] bytes *)
  | Object of { section : Section.t; offset : int; size : int }
      (** a data object at a fixed offset of one of the unit's sections *)
  | Common of { size : int }
      (** an uninitialized common block; the linker chooses its home
          (the optimizer sorts commons by size to pack small ones into the
          GP window) *)

and proc_desc = {
  offset : int;       (** byte offset of the entry point in [Text] *)
  size : int;         (** byte length of the procedure body *)
  exported : bool;    (** could be interposed upon by a shared library, so
                          the compiler must treat even same-unit calls to it
                          conservatively *)
  uses_gp : bool;     (** whether the body establishes/uses GP at all *)
  gp_setup_at_entry : bool;
      (** whether the two GP-setup instructions are the first two
          instructions of the body (compile-time scheduling often moves
          them, which blocks the simplest link-time optimizations) *)
}

type t = { name : string; binding : binding; def : def }

val proc :
  ?binding:binding -> ?exported:bool -> ?uses_gp:bool ->
  ?gp_setup_at_entry:bool -> name:string -> offset:int -> size:int -> unit ->
  t

val obj :
  ?binding:binding -> name:string -> section:Section.t -> offset:int ->
  size:int -> unit -> t

val common : name:string -> size:int -> t

val is_proc : t -> bool
val pp : Format.formatter -> t -> unit
