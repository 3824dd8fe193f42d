(** The content-addressed artifact store.

    Link artifacts — compiled units and linked images — are cached under
    digest keys in two layers: an in-memory LRU (bytes bounded) over an
    optional on-disk cache directory. The daemon and the
    incremental relink engine share one store, so a one-module edit hits
    the cache for everything that did not change.

    Disk entries are written atomically (temp file + rename) and carry
    their payload's digest; a read re-hashes the payload and evicts the
    entry on mismatch, so a corrupted or truncated cache file degrades to
    a miss (the caller recomputes) instead of poisoning a link. Disk
    entries sit under a segment named by the digest of the running
    executable, computed once on first disk use, so a rebuilt toolchain
    misses instead of decoding what another build wrote; when the
    executable cannot be read the disk layer stays off. All
    operations are mutex-protected and safe to call from multiple
    domains. *)

type kind =
  | Cunit   (** compiled object modules, serialized with {!Objfile.Obj_io} *)
  | Image   (** linked/optimized executable images ({!Linker.Image.encode}) *)

val kind_name : kind -> string
val all_kinds : kind list

val digest_string : string -> string
(** Hex content digest (MD5). The one digest function of the system:
    artifact keys and cache re-validation use it. *)

type counters = {
  mem_hits : int;
  mem_misses : int;    (** in-memory miss (before consulting disk) *)
  disk_hits : int;
  disk_misses : int;   (** full miss: the caller had to recompute *)
  evictions : int;     (** LRU evictions from the memory layer *)
  corruptions : int;   (** disk entries evicted on digest mismatch *)
  puts : int;
}

val counters_diff : counters -> counters -> counters
val counters_add : counters -> counters -> counters
val counters_to_alist : counters -> (string * int) list

type t

val create : ?dir:string option -> ?mem_capacity:int -> unit -> t
(** [dir] defaults to [$OMLT_STORE], or ["_omstore"] when it is unset;
    [OMLT_STORE=none] (or the empty string) disables the disk layer.
    Pass [None] for a memory-only store. [mem_capacity] bounds the memory layer in payload bytes
    (default 256 MB); least-recently-used entries are evicted when an
    insertion overflows it. The directory is created lazily on first
    write. *)

val in_memory : unit -> t
(** [create ~dir:None ()]. *)

val dir : t -> string option

val put : t -> kind -> key:string -> string -> unit
(** Insert a payload under [key] in both layers. Disk failures (read-only
    directory, full disk) are swallowed: the store is a cache, not a
    database. *)

val get : t -> kind -> key:string -> string option
(** Memory first, then disk (promoting a disk hit into memory). *)

val counters : t -> kind -> counters
(** A snapshot of [kind]'s counters since the store was created. *)

val counters_total : t -> counters

val disk_ops : t -> int
(** Total attempted filesystem operations (reads and writes) since the
    store was created. A memory-only store reports 0 forever; on a
    disk-backed store the count does not move across a fully-warm
    request — the daemon's proof, through its [stats] reply, that its
    hot path never leaves memory. *)

val mem_entries : t -> int
val mem_bytes : t -> int

(** Typed serialization of store artifacts.

    The store itself traffics in opaque payload strings; this module maps
    the two artifact kinds to and from them. Each kind has one explicit,
    versioned binary format whose decoder is total: compilation units the
    object-file format ({!Objfile.Obj_io}), linked images the image format
    ({!Linker.Image.encode}). A payload that does not decode is [Error],
    which callers treat as a cache miss. *)
module Codec : sig
  val cunit_to_string : Objfile.Cunit.t -> string
  val cunit_of_string : string -> (Objfile.Cunit.t, string) result

  val cunit_digest : Objfile.Cunit.t -> string
  (** Digest of the unit's serialized form: each unit's part of an image
      key. *)

  val image_to_string : Linker.Image.t -> string
  val image_of_string : string -> (Linker.Image.t, string) result

  val image_digest : Linker.Image.t -> string
  (** Content digest of a linked image (over its encoding). *)

  val archive_digest : Objfile.Archive.t -> string
  (** Content digest of a library archive, for building link keys. *)
end
