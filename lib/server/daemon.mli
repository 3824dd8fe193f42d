(** omlinkd: the persistent link service.

    Serves {!Protocol} requests over a Unix-domain socket from a single
    long-lived {!Engine.t}, so artifact caches persist across requests
    and a relink after a one-module edit only redoes that module's work.

    Connections are served concurrently: each gets a reader and a
    replier thread, and every piece of real work flows through a
    {!Sched} worker-domain pool that coalesces identical in-flight
    requests by content digest and sheds load with a structured
    [overloaded] error (carrying [retry_after_ms]) when its bounded
    queue is full. Deadlines are honored while a request is queued: on
    expiry the client receives a structured [timeout] error. Replies on
    one connection always come back in request order; up to 8 requests
    per connection pipeline through the pool at once. *)

val default_socket : unit -> string
(** [$OMLT_SOCKET], defaulting to ["omlinkd.sock"]. *)

val serve :
  ?engine:Engine.t ->
  ?socket:string ->
  ?default_deadline_ms:int ->
  ?workers:int ->
  ?queue_limit:int ->
  ?drain_ms:int ->
  unit ->
  (unit, string) result
(** Bind the socket and serve until a [shutdown] request or SIGTERM,
    then drain gracefully: stop accepting, finish queued and in-flight
    work for up to [drain_ms] (default 2000), flush replies, and tear
    down. A leftover socket file with no listener behind it (a crashed
    daemon) is removed and taken over; a live listener is an error.
    Returns after shutdown with the socket file removed.

    [workers] and [queue_limit] configure the {!Sched} pool (defaults:
    [max 2 (Domain.recommended_domain_count ())] and 64). Progress and
    failure diagnostics are {!Obs.Log} events (enable with [OMLT_LOG] or
    {!Obs.Log.set_level}); request latency, in-flight, queue-depth,
    coalesce/shed and error counters land in the engine's metrics
    registry. *)
