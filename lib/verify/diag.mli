(** Diagnostics: the unit of output of every static analysis in
    [Elk_verify].

    A diagnostic carries the id of the rule that produced it, a severity,
    an optional location (operator id, execution step, core), a
    human-readable message, and a machine-readable payload of named
    values, so that downstream tooling (CI gates, dashboards) can act on
    the numbers without parsing prose. *)

type severity = Error | Warning | Info

val severity_name : severity -> string
(** ["error"], ["warning"], ["info"]. *)

val severity_rank : severity -> int
(** Error = 0, Warning = 1, Info = 2 — ascending means less severe. *)

type value = Num of float | Int of int | Str of string

type location = {
  op : int option;  (** operator id in the chip graph. *)
  step : int option;  (** execution step (0-based; -1 = initial batch). *)
  core : int option;  (** core id, when an analysis is per-core. *)
}

val no_loc : location
val at_op : int -> location
val at_step : int -> location
val at_op_step : op:int -> step:int -> location

type t = {
  rule : string;  (** id of the rule that fired, e.g. ["mem.capacity"]. *)
  severity : severity;
  loc : location;
  message : string;
  payload : (string * value) list;
}

val make :
  rule:string ->
  severity:severity ->
  ?loc:location ->
  ?payload:(string * value) list ->
  string ->
  t

val order : t -> t -> int
(** Deterministic sort key for reports: rule id first, then core, then
    step, with (op, severity, message) as a total tiebreak — independent
    of emission order, so reports are byte-identical across runs. *)

val pp : Format.formatter -> t -> unit
(** One line: [error[mem.capacity] op 3 step 2: message]. *)

val to_json : t -> string
(** One self-contained JSON object. *)
