(** Translating linked object code into the symbolic form.

    The lifter leans on exactly the loader hints the paper names: LITERAL
    relocations mark the address loads, LITUSE relocations link each use
    back to its address load, GPDISP relocations identify the GP-setup
    pairs and their anchor addresses, and procedure descriptors give
    boundaries. Everything else decodes to concrete instructions, with
    PC-relative branches re-expressed against labels so that code can move
    without breaking displacements.

    Every link lifts the whole program, one walk per world module: the
    walk decodes the module's text, checks that its procedures (its slice
    of the world's text-ordered table) cover it, folds its relocations
    into the instructions, resolves symbol names against the world and
    creates the module's nodes in text order. *)

val run : Linker.Resolve.t -> (Symbolic.program, string) result
(** Lift every procedure of the resolved program, modules in world
    order: the program's [k]th procedure is the world's, so its
    [sp_index] is [k]. Labels are numbered program-wide in first-use
    order within each module and node ids in text order. Fails with the
    first error met: a module's text not covered by its procedure
    symbols, an inconsistent relocation, a branch leaving the module
    text, or a symbol that does not resolve. *)
