(** Windowed time series over simulated time.

    Where {!Metrics} aggregates one number per run, this module answers
    "over time": queue depth, throughput, rolling latency percentiles.
    A [t] holds named series; each series is a ring of fixed-width
    windows laid edge to edge from [t = 0].  Recording appends a
    timestamped event to the series' two growable float arrays (times
    and values, unboxed) and notes whether events still arrive in time
    order.  All aggregation happens at export time, entirely
    deterministically (simulated timestamps in, pure folds out): the
    events are put in time order — as recorded when they arrived in
    order, else by a stable sort, so same-time events keep their
    recording order — and each window folds its index range.

    Window semantics are half-open: window [i] covers
    [[i*window, (i+1)*window)], so a sample landing exactly on an edge
    belongs to the window that edge opens. *)

type t

type kind = Counter | Gauge | Histogram

val kind_name : kind -> string

val create : ?window:float -> ?capacity:int -> unit -> t
(** [window] is the window width in (simulated) seconds, default 1 ms.
    [capacity] bounds the ring: only the newest [capacity] windows are
    retained at export (older events still seed gauge carry-in and
    counter totals).  Raises [Invalid_argument] on nonpositive values. *)

val window : t -> float

val add : t -> ?help:string -> string -> time:float -> float -> unit
(** Increment counter series [name] by the given amount at [time].
    Raises [Invalid_argument] on negative/non-finite timestamps, a
    non-finite value, or if [name] is already a different kind. *)

val set : t -> ?help:string -> string -> time:float -> float -> unit
(** Record a gauge change: the series holds the new value from [time]
    until the next change (piecewise constant). *)

val set_steps :
  t -> ?help:string -> string -> times:float array -> values:float array -> unit
(** {!set} of every [(times.(k), values.(k))] in turn, with the series'
    storage grown once to fit them all and no float boxed on the way.
    Raises [Invalid_argument] as {!set} does, or if the arrays differ in
    length; nothing is recorded then.  Empty arrays record nothing. *)

val observe : t -> ?help:string -> string -> time:float -> float -> unit
(** Record one sample into histogram series [name]'s window at [time]. *)

val names : t -> string list
(** Registration order. *)

val kind_of : t -> string -> kind option
val help_of : t -> string -> string option
val events_recorded : t -> string -> int

type point = {
  t0 : float;  (** window start, inclusive *)
  t1 : float;  (** window end, exclusive *)
  count : int;  (** events recorded inside the window *)
  sum : float;
      (** counter: summed increments; histogram: summed samples; gauge:
          time integral of the value over the window *)
  mean : float;
      (** counter: rate ([sum]/width); histogram: sample mean; gauge:
          time-weighted mean *)
  vmin : float;  (** smallest value seen (gauges include the carried-in value) *)
  vmax : float;
  last : float;
      (** value at window end: gauges carry forward, counters report the
          cumulative total, histograms the last sample *)
  p50 : float;  (** exact in-window percentile; histograms only, else 0 *)
  p99 : float;
}

val points : t -> ?horizon:float -> string -> point list
(** The series' windows in time order.  Windows tile [[0, H]] where [H]
    is the later of [horizon] and the last sample; empty windows are
    materialized (zero counters, carried gauges) so the tiling has no
    gaps.  Empty list for unknown names. *)

val n_windows : t -> ?horizon:float -> string -> int

val check_tiling : t -> horizon:float -> string -> (unit, string) result
(** Verify the exported windows tile [[0, horizon]]: start at 0, sit
    edge to edge with uniform width, and reach the horizon — to a
    [1e-6] tolerance (relative to the horizon above one second). *)

val to_json : t -> ?horizon:float -> unit -> string
(** [{"window":w,"series":{name:{"kind":…,"help":…,"points":[…]}}}] with
    per-kind point fields (counter: rate/total, gauge: mean/min/max/last,
    histogram: count/mean/p50/p99/max). *)

val series_json : t -> ?horizon:float -> string -> string

val chrome_counter_events : t -> ?horizon:float -> ?pid:int -> string -> string list
(** One Perfetto counter track per series: gauges emit their raw change
    points (crisp steps), counters the per-window rate, histograms the
    per-window p99. *)
