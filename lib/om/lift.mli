(** Translating linked object code into the symbolic form.

    The lifter leans on exactly the loader hints the paper names: LITERAL
    relocations mark the address loads, LITUSE relocations link each use
    back to its address load, GPDISP relocations identify the GP-setup
    pairs and their anchor addresses, and procedure descriptors give
    boundaries. Everything else decodes to concrete instructions, with
    PC-relative branches re-expressed against labels so that code can move
    without breaking displacements.

    Lifting runs in two phases so that the expensive half can be reused
    across links. {!lift_module} sees a single compilation unit: it
    decodes the text, checks procedure coverage, and folds relocations
    into a module-local symbolic form in which symbols are still names and
    labels are module-local — the result depends only on the unit's
    content, so the artifact store caches it under the unit's digest.
    {!run} then stitches one such lift per module into a
    {!Symbolic.program} against a resolved world, resolving names to
    targets and renumbering labels and nodes program-wide. A caller that
    caches module lifts passes its cached lifter to {!run}, so an
    incremental relink re-lifts only the modules whose content changed
    and still goes through the one-shot path's code. *)

type module_sym
(** The module-local symbolic form of one compilation unit. Plain
    immutable data, independent of the rest of the program; serializable
    with [Marshal]. *)

val lift_module : Objfile.Cunit.t -> (module_sym, string) result
(** Lift one unit in isolation. Fails if the module's text is not fully
    covered by procedure symbols, a relocation is inconsistent, or a
    branch leaves the module text. *)

val run :
  ?lift:(Objfile.Cunit.t -> (module_sym, string) result) ->
  Linker.Resolve.t -> (Symbolic.program, string) result
(** Lift every procedure of the resolved program: [lift] over each world
    module in order (default {!lift_module}; the link service passes one
    backed by its artifact store), then instantiate the lifts against the
    world inside an ["instantiate"] trace span. Fails with the first
    failing module's lift error, or if a lift does not match its world module
    (e.g. a stale cache entry) or a symbol fails to resolve. *)
