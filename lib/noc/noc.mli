(** On-chip interconnect: topology, routing and link-load accounting.

    Elk targets two interconnect families (paper §5): the IPU-style
    all-to-all exchange, where any core reads any other core's SRAM at the
    link rate and concurrent transfers to/from one core serialize on that
    core's port; and the 2D mesh, where transfers traverse per-hop links
    under dimension-order (XY) routing and HBM controllers sit on the mesh
    edges.  This module gives both a common vocabulary: nodes, routes as
    link lists, per-link bandwidth, and a {!Load} accumulator that turns a
    set of transfers into per-link volumes and a makespan estimate — the
    quantity Elk's cost model uses for interconnect contention ("divide
    total traffic by link bandwidth", §4.3). *)

type node = Core of int | Hbm of int
(** Interconnect endpoints: cores and HBM controllers of one chip. *)

(** A unit of interconnect capacity that transfers serialize on.
    [Port_in]/[Port_out] are the per-node injection/ejection ports (the
    contended resource on the all-to-all fabric); [Edge] is a directed
    mesh link between adjacent cores; [Hbm_edge] attaches controller [h]
    to its boundary entry core. *)
type link =
  | Port_in of node
  | Port_out of node
  | Edge of { from_core : int; to_core : int }
  | Hbm_edge of { ctrl : int; entry : int }
  | L2_fabric
      (** the shared global fabric of a GPU-style clustered chip; carries
          all inter-cluster and HBM traffic. *)

type t
(** Routing tables and capacities for one chip. *)

val create : Elk_arch.Arch.chip -> t
(** Build the interconnect for a chip.  Raises [Invalid_argument] if the
    chip fails {!Elk_arch.Arch.validate_chip}. *)

val chip : t -> Elk_arch.Arch.chip
val cores : t -> int
val is_mesh : t -> bool

val validate_node : t -> node -> bool
(** Node exists on this chip. *)

val route : t -> src:node -> dst:node -> link list
(** Links traversed from [src] to [dst], in order.  The empty list when
    [src = dst].  Raises [Invalid_argument] on unknown nodes or on a
    core→HBM-controller route (controllers only send). *)

val hops : t -> src:node -> dst:node -> int
(** Length of {!route}. *)

val link_bandwidth : t -> link -> float
(** Capacity of one link in B/s.  Core ports run at the inter-core link
    rate; HBM controller ports and entry edges at the per-controller HBM
    rate. *)

val route_latency : t -> src:node -> dst:node -> float
(** Sum of per-hop latencies along the route. *)

val transfer_time : t -> src:node -> dst:node -> bytes:float -> float
(** Uncontended time to move [bytes]: route latency plus bytes over the
    bottleneck link bandwidth. *)

val hbm_ctrl_for_core : t -> int -> node
(** The controller that serves a core's preload requests (cores are
    striped over controllers). *)

val compare_link : link -> link -> int
(** A total order on links — the canonical ordering used by
    {!Load.fold}, deterministic across runs and worker counts. *)

(** {2 Dense link table}

    Every link of the chip has an integer id, and ids ascend in
    {!compare_link} order.  The links are those a route can traverse:
    core ports, controller ports and (clustered chips) the L2 fabric;
    on a mesh, the directed edges, controller entry edges and
    controller ports.  Nodes have ids too: [Core c] is [c], [Hbm h] is
    [cores + h].  Per (source, destination core) pair the table
    memoizes the route as link ids, filled on first use, so
    {!create} stays cheap and a simulator walks routes without
    rebuilding them. *)

val num_links : t -> int

val link_id : t -> link -> int
(** Raises [Invalid_argument] if the link is not one of the chip's. *)

val link_of_id : t -> int -> link

val node_id : t -> node -> int
(** Raises [Invalid_argument] on an unknown node. *)

val node_of_id : t -> int -> node

type path = private {
  links : int array;  (** link ids in route order. *)
  latency : float;  (** {!route_latency}. *)
  bottleneck : float;
      (** least raw {!link_bandwidth} along the route; [infinity] for
          the empty route. *)
  hops : int;  (** {!hops}. *)
}

val path : t -> src:int -> dst:int -> path
(** The memoized route from node id [src] to core [dst].  Raises
    [Invalid_argument] on an unknown id. *)

val path_time : path -> bytes:float -> float
(** {!transfer_time} over a path: 0 for the empty route. *)

val link_name : link -> string
(** Stable human-readable name, e.g. ["port_in(core 3)"],
    ["edge(3->4)"], ["hbm_edge(0->12)"]. *)

(** Accumulate a set of transfers into per-link volumes. *)
module Load : sig
  type loads

  val create : t -> loads
  val add : loads -> src:node -> dst:node -> bytes:float -> unit
  (** Attribute [bytes] to every link on the route. *)

  val volume_on : loads -> link -> float

  val fold : loads -> ('a -> link -> float -> 'a) -> 'a -> 'a
  (** [fold l f init] folds [f] over every (link, volume) pair of the
      links some transfer crossed, by ascending link id — the canonical
      {!compare_link} order, whatever the insertion order, so consumers
      never re-enumerate links by hand.
      {!busiest} and {!makespan} are folds over this. *)

  val total_volume : loads -> float
  (** Sum over transfers of [bytes] (counted once per transfer, not per
      hop). *)

  val makespan : loads -> float
  (** Lower bound on completion time with perfect scheduling: the maximum
      over links of [volume / bandwidth], plus the worst route latency
      seen. *)

  val busiest : loads -> (link * float) option
  (** Most loaded link by transfer time [volume / bandwidth]; ties
      resolve to the link earliest in the canonical {!compare_link}
      order. *)

  val mean_utilization : loads -> horizon:float -> float
  (** Average over {e core} ports of [volume / bandwidth / horizon] —
    the "interconnect bandwidth utilization" metric of Fig 18(c). *)
end

val broadcast_time : t -> src:node -> dsts:int list -> bytes_per_dst:float -> float
(** Time for [src] to deliver [bytes_per_dst] to every destination core:
    the {!Load.makespan} of the per-destination transfers. *)
