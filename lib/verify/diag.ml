type severity = Error | Warning | Info

let severity_name = function Error -> "error" | Warning -> "warning" | Info -> "info"
let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

type value = Num of float | Int of int | Str of string

type location = { op : int option; step : int option; core : int option }

let no_loc = { op = None; step = None; core = None }
let at_op op = { no_loc with op = Some op }
let at_step step = { no_loc with step = Some step }
let at_op_step ~op ~step = { no_loc with op = Some op; step = Some step }

type t = {
  rule : string;
  severity : severity;
  loc : location;
  message : string;
  payload : (string * value) list;
}

let make ~rule ~severity ?(loc = no_loc) ?(payload = []) message =
  { rule; severity; loc; message; payload }

(* Deterministic report order, independent of emission order: primary key (rule, core, step), then
   (op, severity, message) as a total tiebreak so equal-location
   diagnostics cannot flip between runs. *)
let order a b =
  let key d =
    (d.rule, d.loc.core, d.loc.step, d.loc.op, severity_rank d.severity, d.message)
  in
  compare (key a) (key b)

let pp_loc fmt loc =
  let part name = function
    | None -> ()
    | Some v -> Format.fprintf fmt " %s %d" name v
  in
  part "op" loc.op;
  part "step" loc.step;
  part "core" loc.core

let pp fmt t =
  Format.fprintf fmt "%s[%s]%a: %s" (severity_name t.severity) t.rule pp_loc t.loc
    t.message

module J = Elk_obs.Jsonx

let value_to_json = function
  | Num f -> J.number f
  | Int i -> string_of_int i
  | Str s -> J.quote s

let opt_int = function None -> "null" | Some i -> string_of_int i

let to_json t =
  let payload =
    t.payload
    |> List.map (fun (k, v) -> Printf.sprintf "%s:%s" (J.quote k) (value_to_json v))
    |> String.concat ","
  in
  Printf.sprintf
    "{\"rule\":%s,\"severity\":%s,\"op\":%s,\"step\":%s,\"core\":%s,\"message\":%s,\"payload\":{%s}}"
    (J.quote t.rule)
    (J.quote (severity_name t.severity))
    (opt_int t.loc.op) (opt_int t.loc.step) (opt_int t.loc.core) (J.quote t.message)
    payload
