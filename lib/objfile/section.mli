(** Section identifiers of the object format.

    The format follows the OSF/1 ECOFF conventions that matter to
    address-calculation optimization:

    - [Text] — instructions;
    - [Data] — initialized data too large for GP-relative addressing;
    - [Sdata] — small initialized data, a candidate for placement inside the
      GP window (the paper notes segregating small data helps the
      optimizer);
    - [Bss] / [Sbss] — zero-initialized counterparts;
    - [Gat] — the module's global address table (the ECOFF [.lita] literal
      pool): an array of 64-bit slots holding addresses of program objects
      and large literal constants, addressed GP-relative. *)

type t = Text | Data | Sdata | Bss | Sbss | Gat

val equal : t -> t -> bool
val name : t -> string
(** The conventional section name, e.g. [".text"], [".lita"]. *)

val pp : Format.formatter -> t -> unit
