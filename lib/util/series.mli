(** Time-binned series accumulation.

    The paper's Figures 6-8 plot bandwidth *demand over time*: a volume of
    bytes attributed to a time interval, divided by the interval length.
    This module turns a set of [(t_start, t_end, volume)] contributions
    into a fixed number of bins covering the observed horizon, spreading
    each contribution uniformly over its interval. *)

type t
(** An accumulating series. *)

val create : unit -> t
(** Fresh empty series. *)

val add : t -> t_start:float -> t_end:float -> volume:float -> unit
(** Record [volume] units spread uniformly over [t_start, t_end].
    Zero-length intervals attribute the whole volume to the instant
    [t_start].  Raises [Invalid_argument] if [t_end < t_start]. *)

val add_from : t -> float array -> int -> unit
(** [add_from t a i] is [add t ~t_start:a.(i) ~t_end:a.(i+1)
    ~volume:a.(i+2)] with no float boxed on the way: a loop recording
    many contributions writes them to a scratch array first. *)

val horizon : t -> float * float
(** [(min_t, max_t)] over all contributions; [(0., 0.)] when empty. *)

val bins : t -> n:int -> (float * float) array
(** [bins t ~n] divides the horizon into [n] equal bins and returns
    [(bin_mid_time, rate)] pairs where [rate] is volume per unit time in
    the bin.  Raises [Invalid_argument] if [n <= 0]. *)

val total : t -> float
(** Sum of all recorded volumes. *)

val peak_rate : t -> n:int -> float
(** Maximum bin rate at resolution [n]; 0 when empty. *)

val mean_rate : t -> float
(** Total volume divided by horizon length; 0 on empty/degenerate. *)

val union_measure : (float * float) list -> float
(** Measure of the union of a set of [(start, end)] intervals: time
    covered at least once. *)
