(** The optimizer's data layout.

    Differences from the standard linker's layout:

    - the GAT groups come {e first} in the data region, so the GP window
      (GP sits [0x7ff0] above a group's base) extends past the table over
      the small-data sections;
    - common symbols are sorted by size and the small ones packed right
      after [.sdata], inside the window ("we sort the common symbols by
      size and place them with the small data sections near the GAT, and
      use a simple heuristic to pick a good value for the GP");
    - GAT space is only {e reserved} here: OM-full shrinks the reservation
      to the entries that must survive, which pulls far more data inside
      the window. *)

type liveness = {
  live_section : int -> Objfile.Section.t -> bool;
      (** per (module, section); [Text]/[Gat] queries must return true *)
  live_target : Linker.Resolve.target -> bool;
}
(** What {!Gc} found reachable. Dead sections are assigned no space (the
    survivors renumber and relocate automatically), dead commons are
    dropped from the layout, and {!Lower} skips dead bytes, relocations
    and symbols. *)

val all_live : liveness
(** Everything live — the behaviour of every level below om-gc. *)

type plan = {
  group_of_module : int array;
  ngroups : int;
  group_gat_off : int array;     (** region offset of each group's table *)
  group_gat_bytes : int array;   (** reserved bytes per group *)
  gp_of_group : int array;       (** absolute GP values *)
  data_off : int array;          (** per-module section offsets, as in
                                     {!Linker.Link.layout_info} *)
  sdata_off : int array;
  sbss_off : int array;
  bss_off : int array;
  common_off : (string * int) list;  (** live commons only *)
  data_total : int;
  live : liveness;  (** carried through to {!Transform.run} and {!Lower} *)
}

val plan :
  ?live:liveness -> Linker.Resolve.t -> group_of_module:int array ->
  ngroups:int -> group_gat_bytes:int array -> plan
(** Region order: GAT groups, [.sdata], sorted commons, [.sbss], [.data],
    [.bss]. [live] defaults to {!all_live}. *)

val address_of : Linker.Resolve.t -> plan -> Linker.Resolve.target -> int

val gp_of_proc : plan -> sp_module:int -> int
(** The GP value procedures of a module use. *)

val in_window : plan -> group:int -> int -> bool
(** Whether an absolute address is within the signed 16-bit displacement
    window of a group's GP. *)
