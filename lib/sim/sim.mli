(** Event-driven ICCA chip simulator (paper §5, "Simulation framework").

    Interprets a compiled {!Elk.Program} under the device rules of §4.5 on
    a flow-level model of one chip: per-core compute pipelines with
    deterministic per-core skew, per-link reservations (injection/ejection
    ports on the all-to-all fabric; directed edges and boundary HBM entry
    strips on the mesh), and a channel/bank-state HBM device
    ({!Elk_hbm.Hbm}) with tensors placed sequentially, exactly as the
    paper's emulator places them.

    Each preload reads the operator's HBM bytes (advancing the HBM device
    state) and delivers every core's preload-space bytes from its
    controller over the interconnect; each execute runs the
    data-distribution phase (ring transfers from sharing-group peers),
    the per-core tile computation, and the exchange/reduction phase.
    Preloads queue behind earlier preloads and behind every earlier
    [execute] in program order; an [execute] waits for the previous
    execute and for its own preload — rules (1)-(3) of §4.5.

    Interconnect contention is emergent: preload deliveries reserve the
    same links that distribution and exchange transfers use, so overlap
    shows up as queuing delay, which the simulator accounts into the
    [interconnect] breakdown bucket (Fig 18a, Fig 20). *)

type op_trace = {
  pre_start : float;
  pre_end : float;
  exe_start : float;
  dist_end : float;  (** end of the data-distribution phase. *)
  compute_end : float;
  exe_end : float;  (** after the exchange/reduction phase. *)
  device_bytes : float;
  inject_bytes : float;
  dist_bytes : float;  (** total distribution bytes (all cores). *)
  exchange_bytes : float;  (** total exchange bytes (all cores). *)
}

type result = {
  total : float;
  bd : Elk.Timeline.breakdown;
  hbm_util : float;
  noc_util : float;
  noc_util_split : float * float;
      (** (inter-core, preload) components of [noc_util] — the stacked
          bars of Fig 18(c). *)
  intercore_volume : float;
  inject_volume : float;
  hbm_device_volume : float;
  achieved_flops : float;
  per_op : op_trace array;
  hbm_requests : int;  (** HBM device requests issued. *)
  perf : Perfcore.t;
      (** per-core bucket attribution, per-operator per-resource
          attribution, and HBM/NoC bandwidth-over-time series collected
          by the event loop.  [hbm_util]/[noc_util] are the time-averaged
          scalars derivable from the series. *)
  events : Critpath.event array option;
      (** causal event DAG, recorded only when {!run} is called with
          [~events:true]; [None] otherwise.  Feed to {!Critpath.extract}
          for the critical path. *)
  mem : Memtrace.t option;
      (** SRAM-residency record, only when {!run} is called with
          [~mem:true]; [None] otherwise.  Feed to {!Elk_analyze.Memprof}
          for occupancy timelines and wasted residency. *)
  noc : Noctrace.t option;
      (** per-link interconnect record, only when {!run} is called with
          [~noc:true]; [None] otherwise.  Feed to {!Elk_analyze.Nocprof}
          for per-link utilization timelines and congestion profiles. *)
}

val run :
  ?skew:float ->
  ?events:bool ->
  ?mem:bool ->
  ?noc:bool ->
  Elk_partition.Partition.ctx ->
  Elk.Schedule.t ->
  result
(** Simulate one chip executing a schedule.  [skew] (default 0.02) is the
    relative deterministic per-core compute-time perturbation.  [events],
    [mem] and [noc] (all default false) turn on the {!Critpath},
    {!Memtrace} and {!Noctrace} recorders; the event loop emits each
    preload, execute, link booking and transfer once to the active ones
    ({!Probe}).  Recording is pure bookkeeping — recorded times are never
    read back, so the simulated timeline is identical whichever recorders
    run.  The CLI selects them with [--record=events,mem,noc].  Raises
    [Invalid_argument] if the schedule fails validation. *)

val compare_with_timeline :
  Elk_partition.Partition.ctx -> Elk.Schedule.t -> float
(** Relative difference between the simulated and the analytic makespan,
    [|sim - analytic| / sim] — the validation the paper performs between
    its simulator and emulator. *)
