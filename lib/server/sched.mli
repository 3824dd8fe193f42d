(** The request scheduler: the daemon's concurrency heart.

    A bounded request queue feeds a pool of worker {!Domain}s; the
    accept side stays free to multiplex many connections while the
    workers burn through link work in parallel. Three policies turn the
    pool into a service-grade scheduler:

    - {b Coalescing}: a submission may carry a content-digest key. If
      a request with the same key is already queued or running, the new
      submission attaches to the in-flight computation instead of
      enqueuing a duplicate — the store dedups {e artifacts}, the
      scheduler dedups {e work}. All attached waiters receive the
      identical reply value.
    - {b Backpressure}: when the queue is full the submission is shed
      immediately with a suggested [retry_after_ms] (derived from a
      decaying average of service times and the current backlog)
      instead of being accepted into an ever-growing backlog.
    - {b Deadlines}: waiting on a handle takes an absolute deadline and
      returns [Timed_out] the moment it passes, even while the request
      is still queued. A queued entry all of whose waiters gave up is
      discarded unrun.

    Every state change lands in the metrics registry:
    [omlt_srv_queue_depth], [omlt_srv_busy_workers] (gauges) and
    [omlt_srv_{submitted,completed,coalesced,shed,abandoned}_total]
    (counters). *)

type t

type handle
(** One submission's claim on a (possibly shared) computation. *)

type submitted =
  | Accepted of handle
  | Shed of { queue_depth : int; retry_after_ms : int }
      (** the queue is full; try again after [retry_after_ms] *)
  | Closed  (** the scheduler is draining or stopped *)

type outcome =
  | Reply of Obs.Json.t
  | Crashed of string  (** the job raised *)
  | Timed_out  (** the waiter's deadline passed; the job may still run *)
  | Aborted of string  (** the scheduler shut down before the job ran *)

val create :
  ?workers:int -> ?queue_limit:int -> ?registry:Obs.Metrics.t -> unit -> t
(** Spawn the worker pool. [workers] defaults to
    [max 2 (Domain.recommended_domain_count ())]; [queue_limit] defaults
    to 64. *)

val workers : t -> int
val queue_limit : t -> int

val submit : t -> ?key:string -> (unit -> Obs.Json.t) -> submitted
(** Enqueue a job. With [key], an identical in-flight request coalesces:
    the returned handle shares the original's computation and reply. *)

val was_coalesced : handle -> bool
(** Did this submission attach to an already-in-flight computation? *)

val wait : t -> ?deadline:float -> handle -> outcome
(** Block until the computation finishes or the absolute [deadline]
    (a [Unix.gettimeofday] timestamp) passes. May be called from any
    thread or domain; each waiter of a coalesced computation gets the
    same [Reply]. *)

type stats = {
  st_workers : int;
  st_queue_depth : int;
  st_busy : int;
  st_submitted : int;
  st_completed : int;
  st_coalesced : int;
  st_shed : int;
  st_abandoned : int;  (** queued entries dropped unrun: every waiter left *)
}

val stats : t -> stats

val seal : t -> unit
(** Stop accepting: every subsequent {!submit} returns [Closed]. *)

val drain : t -> deadline:float -> bool
(** Wait (until the absolute [deadline]) for all work anyone is still
    waiting on to finish. Returns [true] when the scheduler is fully
    idle — queued-but-abandoned entries do not count against draining. *)

val stop : t -> unit
(** Seal, abort everything still pending (waiters get [Aborted]) and
    shut the workers down. Idle workers are joined inline; workers stuck
    in an abandoned job are joined by a background thread so [stop]
    never blocks on a straggler. Idempotent. *)
