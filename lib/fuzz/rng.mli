(** A tiny deterministic PRNG (splitmix64) for the fuzzer.

    The stdlib [Random] is avoided on purpose: the fuzzer's campaigns
    must replay bit-identically from a seed, across OCaml versions and
    across [-j N] domain counts, and the generator must never share
    hidden mutable state between concurrently-generated cases. Every
    case gets its own generator, derived from (campaign seed, case
    index) by {!derive}. *)

type t

val create : int -> t
(** A generator seeded with the given integer. *)

val derive : int -> int -> int
(** [derive seed index] mixes a campaign seed and a case index into an
    independent per-case seed. Pure: same inputs, same output. *)

val int : t -> int -> int
(** [int t n] is uniform in [0, n); requires [n > 0]. *)

val bool : t -> bool

val choose : t -> 'a list -> 'a
(** Uniform pick; requires a non-empty list. *)

val weighted : t -> (int * 'a) list -> 'a
(** Pick with the given relative integer weights (all > 0). *)
