(** The simulator's recorder interface.

    The event loop of {!Sim.run} emits each preload, each execute, each
    link booking and each transfer once, to the list of active probes.
    {!Critpath}, {!Memtrace} and {!Noctrace} each implement one probe;
    a recorder ignores the events it does not need.  Probes are pure
    bookkeeping: nothing they record is read back into a timing
    computation, so the simulated timeline is bit-identical whichever
    probes run.  With no probe active the loop builds no event. *)

(** The communication phase a link booking belongs to.  [Preload] is the
    preload fabric's fluid share; [Distribute] and [Exchange] run in the
    execution share. *)
type cls = Preload | Distribute | Exchange

type preload = {
  p_op : int;
  p_exec_ready : float;
      (** end of the last execute issued before it (rule 1 of §4.5). *)
  p_pre_ready : float;  (** end of the previous preload (rule 2). *)
  p_gate : float;  (** issue time: the later of the two. *)
  p_reads_hbm : bool;
      (** false for a zero-byte preload, a pure sequencing point whose
          times all equal [p_gate]. *)
  p_hbm_done : float;  (** the HBM device read completes. *)
  p_finish : float;  (** delivery to every core completes. *)
  p_port_wait : float;  (** delivery time lost to interconnect contention. *)
  p_bytes : float;  (** preload-space bytes per core. *)
}

type execute = {
  e_op : int;
  e_prev_ready : float;  (** end of the previous execute. *)
  e_pre_end : float;  (** end of the operator's own preload. *)
  e_start : float;  (** the later of the two (rule 3). *)
  e_dist_end : float;  (** end of the data-distribution phase. *)
  e_compute_end : float;  (** end of the tile computation. *)
  e_end : float;  (** end of the exchange/reduction phase. *)
  e_dist_wait : float;  (** distribution time spent queueing on a link. *)
  e_ex_wait : float;  (** exchange time spent queueing on a link. *)
  e_bytes : float;  (** execute-space bytes per core. *)
  e_cores : int;  (** cores [0 .. e_cores-1] run the operator. *)
}

type booking = {
  b_cls : cls;
  b_op : int;
  b_link : int;
      (** the link's dense id ({!Elk_noc.Noc.link_id}), the index the
          fabrics already book by; {!Elk_noc.Noc.link_of_id} names it. *)
  b_bytes : float;
  b_start : float;  (** reservation begins occupying the link. *)
  b_end : float;  (** link frees: bytes over the class's fluid share. *)
}

type transfer = {
  t_cls : cls;
  t_op : int;
  t_src : Elk_noc.Noc.node;
  t_dst : Elk_noc.Noc.node;
  t_bytes : float;
  t_hops : int;  (** links traversed = route length. *)
  t_wait : float;  (** queueing delay: booked start - requested start. *)
  t_start : float;
  t_end : float;  (** completion: latency + bottleneck service. *)
}

type t = {
  preload : preload -> unit;
  execute : execute -> unit;
  links : links option;
      (** [None] for a recorder that ignores the interconnect; the loop
          builds booking and transfer events only when some probe has
          [links]. *)
}

and links = { booking : booking -> unit; transfer : transfer -> unit }

val ops : preload:(preload -> unit) -> execute:(execute -> unit) -> t
(** A probe of preloads and executes only. *)

(** Deliver one event to every probe of a list. *)

val emit_preload : t list -> preload -> unit
val emit_execute : t list -> execute -> unit
val emit_booking : links list -> booking -> unit
val emit_transfer : links list -> transfer -> unit
