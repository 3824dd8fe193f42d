(** Pass-level span tracing.

    The OM pipeline (and anything else that wants to) wraps each phase in
    {!span}. When no collector is installed — the default — a span is a
    single match on a global ref and the traced function runs undisturbed,
    so instrumented code pays nothing in production. When a collector is
    installed the span records wall time and an optional bag of integer
    counters (the optimizer attaches per-pass {!Om.Stats} deltas).

    Completed traces export two ways: {!to_chrome_json} produces the
    Chrome/Perfetto trace-event format (load it at [chrome://tracing]),
    and {!pp_summary} prints an indented ASCII profile. *)

type span = {
  name : string;
  depth : int;           (** nesting depth at the time the span opened *)
  start_us : float;      (** microseconds since the collector was created *)
  dur_us : float;
  counters : (string * int) list;
  tid : int;             (** id of the domain that recorded the span *)
}

type collector

val spans : collector -> span list
(** Completed spans in start order — including spans recorded by worker
    collectors sharing this collector's sink. *)

val install : collector option -> unit
(** Set or clear the ambient collector {e for the current domain}.
    [None] is the default: spans become no-ops. Collectors are
    domain-local; installing one on the main domain does not make
    spawned domains trace. *)

val ambient : unit -> collector option
(** The collector installed on the current domain, if any. *)

val worker : collector -> collector
(** A fresh depth-0 collector feeding the same sink (and sharing the
    same time origin). Spawned domains install one of these so their
    spans merge into the parent trace without racing on its nesting
    depth. *)

val active : unit -> bool

val span : ?counters:(unit -> (string * int) list) -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f], recording a span around it when a collector is
    installed. [counters] is evaluated after [f] returns (or raises), so
    it can report deltas accumulated during the span. Exceptions
    propagate; the span is recorded either way. *)

val with_collector : (unit -> 'a) -> collector * 'a
(** Install a fresh collector for the duration of [f], restoring the
    previous one after — even on exceptions, which propagate. *)

val to_chrome_json : collector -> Json.t
(** Trace-event format: an array of complete ("ph":"X") events. *)

val pp_summary : Format.formatter -> collector -> unit
(** Indented ASCII profile: one line per span with duration and nonzero
    counters. *)
