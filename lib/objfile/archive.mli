(** Static library archives.

    An archive is an ordered collection of pre-compiled units with classic
    [ar]-style link semantics: a member is pulled into the link only if it
    defines a symbol that is still undefined, and pulling a member may make
    further members needed. {!select} iterates to a fixed point. *)

type t = { name : string; members : Cunit.t list }

val make : name:string -> Cunit.t list -> t

val select : t -> undefined:string list -> Cunit.t list
(** [select archive ~undefined] returns the members (in archive order)
    needed to resolve [undefined], transitively: a member is selected when
    it defines a symbol undefined so far, and its own undefined references
    are added to the work set. *)
