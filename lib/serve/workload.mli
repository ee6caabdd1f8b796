(** Deterministic request-arrival workloads for the serving front-end.

    A workload pairs an arrival process with prompt- and output-length
    distributions.  Generation is fully seeded ({!Elk_util.Xrng}): the
    same seed yields the byte-identical request list on any machine —
    the SLO numbers computed downstream inherit
    that determinism.  Arrivals, prompt lengths, and output lengths
    draw from three independently split streams, so changing one
    distribution never shifts the samples of another. *)

type dist =
  | Fixed of int
  | Uniform of { lo : int; hi : int }  (** inclusive bounds *)
  | Lognormal of { mu : float; sigma : float; lo : int; hi : int }
      (** [exp(N(mu, sigma))], rounded and clamped into [[lo, hi]] *)

type arrival =
  | Poisson of { rate : float }  (** requests per second *)
  | Bursty of {
      rate_on : float;
      rate_off : float;  (** may be 0: fully silent gaps *)
      mean_on : float;  (** mean sojourn in the on state, seconds *)
      mean_off : float;
    }  (** Markov-modulated (on/off) Poisson process *)
  | Diurnal of { base_rate : float; peak_rate : float; period : float }
      (** raised-cosine rate curve, one peak per [period], sampled by
          Lewis–Shedler thinning *)

type spec = { arrival : arrival; prompt : dist; output : dist }

type request = {
  req_id : int;  (** 0-based, in arrival order *)
  arrival_s : float;  (** seconds since the start of the run *)
  prompt_len : int;  (** KV entries the prompt occupies *)
  output_len : int;  (** tokens to generate *)
}

val arrival_name : arrival -> string

val validate : spec -> unit
(** Raises [Invalid_argument] on nonsensical parameters (nonpositive
    rates/lengths, inverted bounds, …). *)

val generate : seed:int -> n:int -> spec -> request list
(** [n] requests in arrival order, with strictly increasing ids and
    nondecreasing arrival times.  Deterministic in [seed]. *)

val diurnal_rate :
  base_rate:float -> peak_rate:float -> period:float -> float -> float
(** The instantaneous diurnal rate at a given time (exposed for tests). *)

val preset :
  string -> rate:float -> prompt_mean:int -> output_mean:int -> spec option
(** Named mixes for the CLI: ["poisson"], ["bursty"] (2x/0.5x rate
    contrast), ["diurnal"] (0.5x–1.5x raised cosine).  Lengths become
    uniform bands [[mean/2, 3*mean/2]].  [None] for unknown names. *)

val preset_names : string list

val to_json : request list -> string
val pp_request : Format.formatter -> request -> unit
val total_output_tokens : request list -> int
