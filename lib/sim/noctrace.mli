(** Dynamic per-link interconnect recording for the simulator.

    When enabled ([Sim.run ~noc:true]), every link reservation the two
    fluid fabrics make is mirrored here as a booking — (traffic class,
    operator, link id, bytes, busy interval) — and every transfer as a
    route record — (class, operator, src, dst, bytes, hops, queueing
    wait, envelope).  Bookings are stored as columns: three ints and
    three unboxed floats each, in fixed-size chunks that are never
    copied.  Per-link volumes, class breakdowns, busy intervals, hop
    histograms and utilization timelines are all derived on demand.
    Each link's chronological per-class busy intervals and their
    two-class union are float arrays by link id, built in one pass on
    the first query after recording, as are per-operator waits.  Like
    every {!Probe} it is pure bookkeeping, never read back into any
    timing computation (the cram suite checks simulated output is
    byte-identical with recording on and off). *)

type cls = Probe.cls = Preload | Distribute | Exchange
type booking = Probe.booking
type transfer = Probe.transfer
type t

val create : Elk_noc.Noc.t -> t
val noc : t -> Elk_noc.Noc.t
val num_transfers : t -> int

val probe : t -> Probe.t
(** Records every link booking and transfer the event loop emits. *)

val bookings : t -> booking array
(** Emission order (simulation order). *)

val transfers : t -> transfer array
(** Emission order (simulation order). *)

(** Per-link aggregate over all bookings. *)
type link_stat = {
  ls_link : Elk_noc.Noc.link;
  ls_id : int;  (** dense link id ({!Elk_noc.Noc.link_id}). *)
  ls_bandwidth : float;  (** raw link capacity, B/s. *)
  ls_volume : float;  (** total booked bytes. *)
  ls_preload : float;
  ls_distribute : float;
  ls_exchange : float;
  ls_busy : float;  (** summed reservation time across both classes. *)
  ls_bookings : int;
}

val link_stats : t -> link_stat list
(** Every touched link in the canonical {!Elk_noc.Noc.compare_link}
    order. *)

val busy_intervals :
  t -> link:Elk_noc.Noc.link -> (float * float) list * (float * float) list
(** One link's busy intervals, chronological: (preload class,
    distribute+exchange class).  Within a class, intervals never
    overlap — the fabric serializes bookings per link.  Empty for a link
    the chip does not have.  The class arrays of {!busy}, as lists. *)

(** One link's busy intervals as parallel start/end arrays. *)
type busy = {
  pre_start : float array;  (** preload class, chronological. *)
  pre_end : float array;
  exch_start : float array;  (** distribute+exchange class, chronological. *)
  exch_end : float array;
  union_start : float array;
      (** the union of both classes: disjoint, ascending; an interval
          that starts where another ends joins it. *)
  union_end : float array;
}

val busy : t -> id:int -> busy
(** By dense link id; empty arrays for an untouched or unknown id.  The
    arrays are shared with the index: do not mutate them. *)

val class_bytes : t -> cls:cls -> float
(** Transfer bytes of one class, counted once per transfer. *)

val total_transfer_bytes : t -> float

val hop_histogram : t -> (int * int * float) list
(** [(hops, transfers, bytes)] rows sorted by hop count. *)

val max_wait : t -> op:int -> cls:cls -> float
(** Largest queueing wait among one operator's transfers of one class —
    the quantity {!Critpath} caps into an event's [port_wait]. *)
