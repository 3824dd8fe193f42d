(** The compiler driver: minic source text to relocatable object modules.

    Two build styles mirror the paper's §5 methodology:

    - {!compile_module} — "compile-each": one source file becomes one
      module, optimized intraprocedurally only. Every non-[static] procedure
      is exported (it could be interposed on by a shared library), so all
      calls to it are compiled conservatively.
    - {!compile_merged} — "compile-all": all the program's sources are
      merged and compiled as a single unit with interprocedural knowledge:
      every user procedure except [main] is internalized, so user-to-user
      calls become [bsr]s that skip GP setup, and small procedures are
      inlined. Calls into pre-compiled library modules remain conservative —
      the compiler cannot see them, which is the paper's point. *)

type opt_level = O0 | O2

exception Error of string
(** Raised on parse or semantic errors, with a formatted message. *)

val compile_module :
  ?opt:opt_level -> ?optimistic:bool -> ?prelude:Ast.program -> name:string ->
  string -> Objfile.Cunit.t
(** [compile_module ~name source] compiles one translation unit.
    [prelude] holds declarations, already parsed, that go before the
    source's own (typically the standard library's [extern] declarations,
    {!Runtime.prelude}); error positions count from the source's first
    line. Default [opt] is [O2].

    [optimistic] (default false) enables the paper's §6 "optimistic
    compilation" scheme (the MIPS [-G] option): scalar globals are
    addressed with a single direct GP-relative instruction instead of a
    GAT load, betting that the linker can place them inside the GP
    window. The final link fails with recompilation advice if the bet is
    lost — the usability burden the paper holds against this
    alternative. *)

val compile_merged :
  ?opt:opt_level -> ?optimistic:bool -> ?inline:bool -> ?prelude:Ast.program ->
  name:string -> (string * string) list -> Objfile.Cunit.t
(** [compile_merged ~name sources] compiles [(module_name, source)] pairs
    as one unit, internalizing all user procedures but [main].
    [inline] (default true) enables cross-module inlining of small
    procedures. *)

val parse_and_check :
  ?prelude:Ast.program -> string -> Ast.program * Check.env
(** Front-end only; raises {!Error} on bad input. *)
