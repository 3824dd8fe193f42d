(** The statically-linked runtime library ([libstd.a]) and program startup.

    These modules play the role of the pre-compiled system libraries in the
    paper's experiments: they were "compiled long before a particular
    application", so even a monolithic interprocedural compilation of the
    application cannot optimize calls into them — only the link-time
    optimizer can.

    The archive contains two hand-assembled modules (program startup and
    the system-call stubs) and several modules written in minic and built
    with the ordinary [-O2] compiler: integer division (the architecture
    has no divide instruction, so [/] and [%] become calls to [__divq] and
    [__remq]), quad-string output, string/block utilities, fixed-point
    math, a PRNG (whose 64-bit constants live in the literal pool), a bump
    allocator over [__sbrk], and sorting helpers that call through
    procedure variables. *)

val prelude : Minic.Ast.program
(** [extern] declarations for every public library routine, parsed once
    per process; pass it as the compiler's [prelude]. *)

val libstd : unit -> Objfile.Archive.t
(** The library archive (compiled once per process and cached). *)

val module_sources : (string * string) list
(** The minic sources of the library's compiled members, [(module, source)]
    — exposed so tests can compile them in other ways. *)
