type t = {
  what : string;
  check : (unit, string) result;
  warnings : string list;
  print : unit -> unit;
  to_json : unit -> string;
  trace_events : unit -> string list;
  gauges : (string * string * float) list;
}

let emit rep =
  Result.map
    (fun () ->
      List.iter prerr_endline rep.warnings;
      rep.print ();
      List.iter (fun (name, help, v) -> Elk_obs.Metrics.set ~help name v) rep.gauges)
    rep.check

let check_tiling series ~horizon names =
  List.fold_left
    (fun acc name ->
      Result.bind acc (fun () -> Elk_obs.Timeseries.check_tiling series ~horizon name))
    (Ok ()) names

module J = Elk_obs.Jsonx

let segment ~resource ~name ~kind dur =
  Printf.sprintf "{\"name\":%s,\"kind\":%s,\"resource\":%s,\"dur\":%s}" (J.quote name)
    (J.quote kind) (J.quote resource) (J.rounded dur)

let tracediff_head ~model ~total ~resource ~seconds segments =
  Printf.sprintf
    "{\"model\":%s,\"total\":%s,\"dominant\":%s,\"resource_seconds\":{%s:%s},\"segments\":[%s],"
    (J.quote model) (J.rounded total) (J.quote resource) (J.quote resource) (J.rounded seconds)
    (String.concat "," segments)
