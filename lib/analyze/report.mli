(** One report shape for the simulator's recorders.

    [elk analyze], [critpath], [mem] and [noc] each simulate a plan with
    the recorders their analysis needs, then check, print and export the
    result.  Each analysis packs its report into a {!t}
    ({!Analyze.report}, {!Analyze.critpath_report}, {!Memprof.report},
    {!Nocprof.report}); {!emit} and the CLI treat all four alike. *)

type t = {
  what : string;  (** what the JSON snapshot holds, e.g. ["memory report"]. *)
  check : (unit, string) result;
      (** the analysis's invariants; the error names the broken one. *)
  warnings : string list;  (** printed to stderr when the check passes. *)
  print : unit -> unit;  (** the text report, to stdout. *)
  to_json : unit -> string;  (** the [--json-out] snapshot. *)
  trace_events : unit -> string list;
      (** Perfetto events to merge beside the device timeline. *)
  gauges : (string * string * float) list;
      (** [(name, help, value)] metrics gauges. *)
}

val emit : t -> (unit, string) result
(** A failed check comes back unchanged and nothing is printed.
    Otherwise print the warnings to stderr and the report to stdout, set
    the gauges, and return [Ok ()].  The CLI exits 1 on the error. *)

(** {1 Shared pieces} *)

val check_tiling :
  Elk_obs.Timeseries.t -> horizon:float -> string list -> (unit, string) result
(** {!Elk_obs.Timeseries.check_tiling} on every named series; the first
    error. *)

val segment : resource:string -> name:string -> kind:string -> float -> string
(** One {!Tracediff} segment object, its duration at 6 significant
    digits. *)

val tracediff_head :
  model:string -> total:float -> resource:string -> seconds:float -> string list -> string
(** The opening of a snapshot whose top level {!Tracediff} reads: brace,
    model, total, dominant resource, its seconds and the segments,
    followed by a comma for the report's own fields. *)
