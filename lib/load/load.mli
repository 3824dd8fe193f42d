(** A deterministic load generator for the concurrent link service.

    Replays seeded mixes of link requests against a running daemon from
    N concurrent client threads, each over its own connection, with all
    sources travelling inline (the daemon's request→image path stays in
    memory). Every distinct program is first linked serially in-process
    to get an oracle image digest, so the harness asserts bit-identity
    of every concurrent reply — not just success.

    Three request mixes:
    - [Cold]: every request links a distinct program (image-cache miss
      each time) — the throughput-scaling story;
    - [Dup]: every request links the same program concurrently — the
      coalescing story;
    - [Mixed]: a seeded 70/30 blend of a small hot set and cold
      one-offs — the realistic story. *)

type profile = Cold | Dup | Mixed

val profile_of_string : string -> (profile, string) result
val profile_name : profile -> string

type spec = {
  profile : profile;
  clients : int;  (** concurrent client threads *)
  requests : int;  (** total requests, sharded round-robin *)
  level : string;  (** link level, e.g. ["full"] *)
  seed : int;  (** drives program generation and the mix *)
  deadline_ms : int option;  (** per-request deadline, if any *)
  retries : int;  (** per-request retries on [overloaded] *)
}

val default_spec : spec
(** [Mixed], 4 clients, 48 requests, level ["full"], seed 42, no
    deadline, 4 retries. *)

val program : seed:int -> int -> Server.Protocol.source list
(** The deterministic two-module minic program with identity [id] under
    [seed]: distinct ids differ in arithmetic constants (and so in
    digest and image bytes). Exposed for tests. *)

val program_id : spec -> int -> int
(** Which program the [j]th request of the mix links. *)

type result = {
  load : Obs.Report.load;  (** the run, as the report stores it *)
  failures : string list;  (** a small sample of failure messages *)
}

val run_against : ?socket:string -> spec -> (result, string) Stdlib.result
(** Drive an already-running daemon. Builds the oracle serially first
    (in-process, hermetic store), then opens [clients] connections and
    fires. [l_workers] is read from the daemon's [stats] reply. *)

val run_selfhosted :
  ?workers:int -> ?queue_limit:int -> spec -> (result, string) Stdlib.result
(** Spawn a hermetic daemon (in-memory store, private metrics registry,
    temp socket) with the given pool shape, run {!run_against} on it,
    shut it down, and clean up. The workhorse behind [omlink bench load]. *)

val summary_lines : result -> string list
(** Human-readable one-liners for CLI output. *)
