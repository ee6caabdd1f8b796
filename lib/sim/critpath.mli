(** Causal event tracing and critical-path extraction for simulation runs.

    The simulator's device rules (§4.5) make every event's start time a
    [max] over the completion times of the events that gate it: a preload
    waits for every earlier execute and for the previous preload, an
    execute waits for the previous execute and for its own preload, and
    the three execution phases chain back to back.  When event recording
    is on ({!Sim.run} [~events:true]), the event loop emits one {!event}
    per simulated activity and records its {e causal parent} — the event
    whose completion actually enabled it (the argmax of the gate) — plus
    the full dependency list, forming a DAG over the run.

    This module consumes that DAG:

    - {!extract} walks backward from the terminal event to the root,
      producing the {e critical path}: a chain of events whose durations
      tile [0, makespan] exactly (any gap — which the gating rules make
      impossible in practice — is kept as an explicit scheduler-wait
      segment so the identity holds by construction);
    - each critical event is split into classified {!segment}s:
      HBM device time, interconnect transfer time, tile compute, port /
      link queuing, or scheduler-induced wait;
    - a forward/backward pass over {e all} dependency edges (not just
      causal parents) computes per-event and per-operator {e slack}: how
      long an event can be delayed without moving the makespan.  Events
      with zero slack are exactly the ones a perf PR must shorten.

    The classification follows the same convention as
    [Elk_sim.Perfcore] / [Elk_analyze]: HBM is the device-occupancy
    floor of a preload, delivery beyond that floor and all distribution /
    exchange communication is interconnect, and only queuing behind a
    busy link or SRAM port counts as port time — so the dominant
    critical resource is directly comparable with the dominant resource
    of the per-operator attribution. *)

type kind =
  | Preload_issue  (** zero-byte preload: a pure sequencing point. *)
  | Hbm_read  (** HBM device occupancy of a preload read. *)
  | Preload_deliver  (** controller-to-core delivery of preloaded bytes. *)
  | Distribute  (** preload-state to execute-state data distribution. *)
  | Tile_compute  (** per-core tile computation (slowest core binds). *)
  | Exchange  (** exchange / reduction of shared activations. *)
  | Sched_gap
      (** not emitted by the simulator: synthesized by {!extract} when a
          critical event starts after its parent ends, so the path still
          tiles the makespan. *)

val kind_name : kind -> string

type event = {
  id : int;  (** dense, in emission order; deps always have smaller ids. *)
  op : int;  (** operator the event belongs to. *)
  kind : kind;
  t_start : float;
  t_end : float;
  parent : int option;
      (** causal parent: the event whose completion enabled this one
          (the binding argument of the start-time [max]).  [None] only
          for the root event. *)
  deps : int list;  (** every gating event, parent included. *)
  port_wait : float;
      (** queuing delay inside this event (transfer waited on a busy
          link/port before moving bytes). *)
}

type recorder
(** The event-DAG builder behind [Sim.run ~events:true]. *)

val recorder : ops:int -> recorder
val probe : recorder -> Probe.t
(** Emits one event per preload phase (HBM read + delivery, or a
    zero-byte issue point) and three per execute (distribute, compute,
    exchange), each with its causal parent. *)

val recorded : recorder -> event array
(** The events recorded so far, in emission (= id) order. *)

val reaches : event array -> src:int -> dst:int -> bool
(** Is there a chain of gating ([deps]) edges from event [src] to event
    [dst]?  Used by the lint cross-check: a statically flagged race pair
    must be unordered (neither reaches the other) in the recorded causal
    DAG too. *)

val find_event : event array -> op:int -> kind:kind -> int option
(** First (lowest-id) event of [op] with the given [kind], if any. *)

type resource = Hbm | Interconnect | Compute | Port | Wait

val resource_name : resource -> string
(** ["hbm"], ["interconnect"], ["compute"], ["port"], ["wait"]. *)

val all_resources : resource list

type segment = {
  s_op : int;  (** -1 for synthesized scheduler-wait gaps. *)
  s_kind : kind;
  s_res : resource;
  s_start : float;
  s_dur : float;
}

type summary = {
  total : float;  (** makespan = the terminal event's end time. *)
  events : event array;
  crit_ids : int list;  (** causal chain, root first. *)
  segments : segment list;
      (** classified critical segments in time order; durations sum to
          [total] within float error. *)
  slack : float array;  (** per event id; 0 on the critical path. *)
  op_slack : float array;
      (** per operator: min slack over its events — how far the whole
          operator can slip without moving the makespan. *)
  op_crit : float array;  (** per operator: critical seconds. *)
  resource_seconds : (resource * float) list;
      (** critical seconds per resource; sums to [total]. *)
}

val extract : event array -> summary
(** Build the critical path, classified segments, and slack from a
    recorded event DAG.  Raises [Invalid_argument] on an empty array. *)

val check : event array -> total:float -> (unit, string) result
(** Verify the causal-DAG invariants the test suite relies on: exactly
    one root (the first event); every other event has a parent; parents
    complete no later than their children start (1e-9 tolerance);
    the critical-path length equals [total] within 1e-6 relative; and
    every event's slack is non-negative. *)

val dominant : summary -> resource
(** Largest of the four real resources (ties read compute-first, the
    same convention as [Elk_analyze.Analyze.classify]); [Wait] never
    dominates. *)

val blame : ?top:int -> summary -> (int * float * (resource * float) list) list
(** Top-[top] (default 10) operators by critical seconds:
    [(op, crit_seconds, per-resource split)]. *)

val tables :
  ?top:int -> ?top_segments:int -> Elk_model.Graph.t -> summary -> Elk_util.Table.t list
(** Text rendering: per-resource summary, the [top_segments] (default
    12) longest critical segments, and the [top] (default 10) operator
    blame/slack report. *)

val print : ?top:int -> ?top_segments:int -> Elk_model.Graph.t -> summary -> unit

val to_json : Elk_model.Graph.t -> summary -> string
(** One JSON document: makespan, per-resource critical seconds, the
    dominant resource, every critical segment (operator name, kind,
    resource, start, duration), and the per-operator slack/critical
    table.  This is the snapshot format [elk trace diff] consumes. *)
