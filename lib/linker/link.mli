(** The standard (non-optimizing) linker.

    Resolves symbols, merges GATs as literal pools, lays out the OSF/1-like
    address space, patches relocations and produces an executable
    {!Image.t}. This is the baseline every measurement in the paper
    compares against: it does no code transformation whatsoever — every
    conservative instruction the compilers emitted survives. *)

val link :
  ?entry:string -> ?gat_capacity:int -> Objfile.Cunit.t list ->
  archives:Objfile.Archive.t list -> (Image.t, string) result

val link_resolved :
  ?gat_capacity:int -> Resolve.t -> (Image.t, string) result
(** Link a program that has already been through {!Resolve.run}. *)

type layout_info = {
  text_off : int array;       (** per module *)
  data_off : int array;
  sdata_off : int array;
  sbss_off : int array;
  bss_off : int array;
  lita_off : int;             (** offset of the merged GAT in the data region *)
  common_off : (string * int) list;
  data_total : int;           (** data region size including zero fill *)
}
