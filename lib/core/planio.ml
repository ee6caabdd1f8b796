module P = Elk_partition.Partition

let ints_csv a = String.concat "," (Array.to_list a |> List.map string_of_int)

let export ?layout (s : Schedule.t) =
  let b = Buffer.create 4096 in
  Buffer.add_string b "elk-plan v1\n";
  Buffer.add_string b (Elk_model.Gtext.export s.Schedule.graph);
  Buffer.add_string b "schedule\n";
  Buffer.add_string b (Printf.sprintf "order %s\n" (ints_csv s.Schedule.order));
  Buffer.add_string b (Printf.sprintf "windows %s\n" (ints_csv s.Schedule.windows));
  Array.iter
    (fun (e : Schedule.op_entry) ->
      Buffer.add_string b
        (Printf.sprintf "entry %d factors=%s frac=%g\n" e.Schedule.node_id
           (ints_csv e.Schedule.plan.P.factors)
           e.Schedule.popt.P.frac))
    s.Schedule.entries;
  (* Optional recorded SRAM address layout: one line per placed buffer.
     Bytes serialize as hex floats (%h) so the intervals round-trip
     bit-exactly — the race analysis compares them for overlap. *)
  (match layout with
  | None -> ()
  | Some allocs ->
      List.iter
        (fun (a : Alloc.allocation) ->
          Buffer.add_string b
            (Printf.sprintf "layout %d %s base=%h size=%h\n" a.Alloc.a_op
               (Residency.kind_name a.Alloc.a_kind)
               a.Alloc.a_base a.Alloc.a_size))
        allocs);
  Buffer.contents b

let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e

let parse_int_csv s =
  try Ok (String.split_on_char ',' s |> List.map int_of_string |> Array.of_list)
  with _ -> Error (Printf.sprintf "bad integer list %S" s)

let import_ext ctx text =
  let lines = String.split_on_char '\n' text in
  match lines with
  | header :: rest when String.trim header = "elk-plan v1" ->
      (* Split the document at the "schedule" marker. *)
      let rec split acc = function
        | [] -> Error "missing schedule section"
        | l :: tl when String.trim l = "schedule" -> Ok (List.rev acc, tl)
        | l :: tl -> split (l :: acc) tl
      in
      let* graph_lines, sched_lines = split [] rest in
      let* graph =
        Elk_model.Gtext.import (String.concat "\n" graph_lines)
      in
      let n = Elk_model.Graph.length graph in
      let order = ref None and windows = ref None in
      let factors = Array.make n None and fracs = Array.make n 1. in
      let layout = ref [] in
      let err = ref None in
      List.iter
        (fun raw ->
          if !err = None then
            let line = String.trim raw in
            if line = "" || line.[0] = '#' then ()
            else
              match String.split_on_char ' ' line |> List.filter (( <> ) "") with
              | [ "order"; csv ] -> (
                  match parse_int_csv csv with
                  | Ok a -> order := Some a
                  | Error m -> err := Some m)
              | [ "windows"; csv ] -> (
                  match parse_int_csv csv with
                  | Ok a -> windows := Some a
                  | Error m -> err := Some m)
              | [ "entry"; id_s; f_attr; frac_attr ] -> (
                  try
                    let id = int_of_string id_s in
                    if id < 0 || id >= n then failwith "entry id out of range";
                    (match String.split_on_char '=' f_attr with
                    | [ "factors"; csv ] -> (
                        match parse_int_csv csv with
                        | Ok a -> factors.(id) <- Some a
                        | Error m -> failwith m)
                    | _ -> failwith "expected factors=");
                    match String.split_on_char '=' frac_attr with
                    | [ "frac"; v ] ->
                        (* Exported fracs are 1/2^k; anything outside (0, 1]
                           would be silently snapped to some option. *)
                        let f = float_of_string v in
                        if not (Float.is_finite f && f > 0. && f <= 1.) then
                          failwith
                            (Printf.sprintf "entry for op %d: frac=%s outside (0, 1]" id v);
                        fracs.(id) <- f
                    | _ -> failwith "expected frac="
                  with
                  | Failure m -> err := Some m
                  | e -> err := Some (Printexc.to_string e))
              | [ "layout"; id_s; kind_s; base_attr; size_attr ] -> (
                  try
                    let a_op = int_of_string id_s in
                    if a_op < 0 || a_op >= n then failwith "layout op out of range";
                    let a_kind =
                      match kind_s with
                      | "preload" -> Residency.Preload
                      | "exec" -> Residency.Exec
                      | k -> failwith (Printf.sprintf "unknown buffer kind %S" k)
                    in
                    let attr name s =
                      match String.split_on_char '=' s with
                      | [ key; v ] when key = name -> float_of_string v
                      | _ -> failwith (Printf.sprintf "expected %s=" name)
                    in
                    let a_base = attr "base" base_attr in
                    let a_size = attr "size" size_attr in
                    if
                      (not (Float.is_finite a_base))
                      || (not (Float.is_finite a_size))
                      || a_base < 0. || a_size < 0.
                    then failwith "layout base/size must be finite and >= 0";
                    layout :=
                      { Alloc.a_op; a_kind; a_base; a_size } :: !layout
                  with e -> err := Some (Printexc.to_string e))
              | _ -> err := Some (Printf.sprintf "unrecognized plan line %S" line))
        sched_lines;
      (match !err with Some m -> Error m | None -> Ok ())
      |> fun r ->
      let* () = r in
      let* order =
        match !order with Some o -> Ok o | None -> Error "missing order line"
      in
      let* windows =
        match !windows with Some w -> Ok w | None -> Error "missing windows line"
      in
      let rec build id acc =
        if id < 0 then Ok (Array.of_list acc)
        else
          match factors.(id) with
          | None -> Error (Printf.sprintf "missing entry for op %d" id)
          | Some f ->
              let node = Elk_model.Graph.get graph id in
              let* plan = P.plan_with_factors ctx node.Elk_model.Graph.op f in
              let popt =
                P.preload_option_near ctx node.Elk_model.Graph.op plan ~frac:fracs.(id)
              in
              let entry =
                {
                  Schedule.node_id = id;
                  plan;
                  popt;
                  preload_len = popt.P.preload_len;
                  dist_time = popt.P.dist_time;
                }
              in
              build (id - 1) (entry :: acc)
      in
      let* entries = build (n - 1) [] in
      let sched = { Schedule.graph; order; windows; entries; est_total = 0. } in
      let* () = Schedule.validate sched in
      let layout = match !layout with [] -> None | l -> Some (List.rev l) in
      Ok (sched, layout)
  | _ -> Error "not an elk-plan v1 document"

let import ctx text = Result.map fst (import_ext ctx text)

let save ?layout ~path s =
  let oc = open_out path in
  output_string oc (export ?layout s);
  close_out oc

let load_ext ctx ~path =
  try
    let ic = open_in path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    import_ext ctx s
  with Sys_error m -> Error m

let load ctx ~path = Result.map fst (load_ext ctx ~path)
