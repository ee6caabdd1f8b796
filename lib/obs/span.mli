(** Nested timed spans with a process-global, mutex-guarded collector.

    A span measures one contiguous region of work ({!with_span}); spans
    opened while another is running nest under it.  Nesting is tracked
    {e per domain} (via [Domain.DLS]), so spans recorded concurrently by
    the {!Elk_util.Pool} workers of [Dse.evaluate_all] nest correctly
    within their own domain instead of racing on a shared
    stack.  Completed spans accumulate in one global collector until
    {!clear}; they can be aggregated into a per-phase table ({!totals})
    or exported as Chrome-trace events ({!chrome_events}) onto the same
    timeline format {!Elk_sim.Trace} emits, so compiler phases and
    simulated device activity can be viewed together in Perfetto.

    When {!Control.is_enabled} is false, {!with_span} runs its thunk
    directly — the disabled cost is one branch and one closure. *)

type t = {
  name : string;
  start : float;  (** {!Control.now} at entry, seconds. *)
  dur : float;
  depth : int;  (** nesting depth at entry (0 = top level), per domain. *)
  seq : int;  (** 1-based completion sequence number (global). *)
  domain : int;  (** id of the domain that recorded the span. *)
  attrs : (string * string) list;
}

val with_span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Run a thunk inside a span.  The span is recorded even if the thunk
    raises (the exception propagates). *)

val spans : unit -> t list
(** Completed spans in completion order (inner spans before the span
    that contains them). *)

val count : unit -> int

val totals : unit -> (string * int * float) list
(** Aggregate completed spans by name: [(name, calls, total_seconds)],
    ordered by each name's first start time — i.e. phase order for a
    deterministic program. *)

val wall : string -> float
(** Wall-clock seconds covered by the named spans: the measure of the
    union of their intervals.  Unlike the [total_seconds] of {!totals},
    spans that ran at once on several domains count once, so a phase's
    wall time never exceeds that of a span enclosing all of it. *)

val chrome_events : ?pid:int -> ?tid:int -> unit -> string list
(** Rendered Chrome-trace events for every completed span, preceded by
    one thread_name metadata event per recording domain; timestamps are
    rebased so the earliest span starts at 0.  Domains map to
    consecutive tracks from [tid] ordered by each domain's earliest
    span (a content-derived key, independent of domain spawn order and
    job count) — the main domain keeps the historical "compiler"
    track, pool workers appear as "compiler-wN".  Empty if nothing was
    collected.  Default [tid] is 3 — tracks 1 and 2 belong to
    {!Elk_sim.Trace}. *)

val clear : unit -> unit
(** Drop all completed spans and reset the {e calling} domain's nesting
    depth (other domains restore theirs as their open spans exit). *)
