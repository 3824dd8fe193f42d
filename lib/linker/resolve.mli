(** Symbol resolution: the front half of linking, shared by the standard
    linker and the optimizer.

    Pulls needed archive members, merges common blocks, indexes every
    procedure and data object of the final module list, and provides
    per-module name resolution (local symbols shadow globals). *)

type proc_rec = {
  p_module : int;       (** index into {!field-modules} *)
  p_name : string;
  p_offset : int;       (** byte offset in its module's text *)
  p_size : int;
  p_exported : bool;
  p_uses_gp : bool;
  p_gp_at_entry : bool;
}

type placement =
  | In_section of { s_module : int; section : Objfile.Section.t; offset : int }
  | Common
      (** merged common block; its address is chosen by data layout *)

type obj_rec = { o_name : string; o_placement : placement; o_size : int }

type target =
  | Tproc of int  (** index into {!field-procs} *)
  | Tobj of int   (** index into {!field-objs} *)

type t = {
  modules : Objfile.Cunit.t array;
  procs : proc_rec array;
      (** in text order: by module, then by offset in the module's text
          (procedures at one offset keep their symbol-table order) — the
          order both linkers lay procedures out in *)
  objs : obj_rec array;
  entry_proc : int;  (** index of the program entry procedure *)
  locals : (string, target) Hashtbl.t array;
      (** per-module local symbol scopes (use {!resolve} instead) *)
  globals : (string, target) Hashtbl.t;
}

val run :
  ?entry:string -> Objfile.Cunit.t list ->
  archives:Objfile.Archive.t list -> (t, string) result
(** Resolve a program: the given units plus any archive members needed
    (transitively). Errors on duplicate strong definitions, unresolved
    references, a missing entry procedure (default ["__start"]), or a
    common block colliding with a procedure name. *)

val resolve : t -> int -> string -> target option
(** [resolve t m name] resolves [name] as seen from module [m]: local
    definitions of [m] first, then global ones. *)

val resolve_exn : t -> int -> string -> target

val target_name : t -> target -> string

val proc_index_by_name : t -> string -> int option
(** Global procedure lookup by name. *)
