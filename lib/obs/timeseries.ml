(* Windowed time series over *simulated* time.

   The metrics registry (Metrics) aggregates over a whole run; serving
   studies need "over time": queue depth, throughput, rolling latency
   percentiles.  A [t] is a set of named series, each a ring of
   fixed-width windows laid edge to edge from t = 0.  Recording is
   cheap: a series keeps its events in two growable float arrays, times
   and values, in recording order, and notes whether they arrived in
   time order.  All aggregation happens at export, so the same recorded
   events can be replayed into any report: the events are put in time
   order (a stable index sort, skipped when they arrived in order) and
   each window folds its index range.  Everything is deterministic:
   simulated timestamps in, pure folds out. *)

type kind = Counter | Gauge | Histogram

let kind_name = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram -> "histogram"

type series = {
  s_kind : kind;
  s_help : string;
  mutable times : float array;  (* recording order; the first [s_count] are events *)
  mutable values : float array;
  mutable s_count : int;
  mutable in_order : bool;  (* no event is earlier than the one before it *)
}

type t = {
  width : float;
  capacity : int;  (* ring size: windows older than the newest [capacity] drop *)
  tbl : (string, series) Hashtbl.t;
  mutable order : string list;  (* newest first *)
}

let create ?(window = 1e-3) ?(capacity = max_int) () =
  if not (Float.is_finite window) || window <= 0. then
    invalid_arg "Timeseries.create: window must be positive";
  if capacity <= 0 then invalid_arg "Timeseries.create: capacity must be positive";
  { width = window; capacity; tbl = Hashtbl.create 16; order = [] }

let window t = t.width

let find_or_add t name kind help =
  match Hashtbl.find t.tbl name with
  | s ->
      if s.s_kind <> kind then
        invalid_arg
          (Printf.sprintf "Timeseries: %S is a %s, not a %s" name
             (kind_name s.s_kind) (kind_name kind));
      s
  | exception Not_found ->
      let s =
        { s_kind = kind; s_help = help; times = [||]; values = [||]; s_count = 0;
          in_order = true }
      in
      Hashtbl.add t.tbl name s;
      t.order <- name :: t.order;
      s

(* Room for [room] events in all: the arrays grow to exactly that. *)
let reserve s room =
  if room > Array.length s.times then begin
    let grow a =
      let b = Array.make room 0. in
      Array.blit a 0 b 0 s.s_count;
      b
    in
    s.times <- grow s.times;
    s.values <- grow s.values
  end

(* Raises on an event the series must refuse. *)
let check_event name ~time v =
  if not (Float.is_finite time) || time < 0. then
    invalid_arg (Printf.sprintf "Timeseries: bad timestamp %g for %S" time name);
  if not (Float.is_finite v) then
    invalid_arg (Printf.sprintf "Timeseries: non-finite value for %S" name)

let record t name kind help ~time v =
  check_event name ~time v;
  let s = find_or_add t name kind help in
  let n = s.s_count in
  if n = Array.length s.times then reserve s (max 16 (2 * n));
  s.times.(n) <- time;
  s.values.(n) <- v;
  if n > 0 && time < s.times.(n - 1) then s.in_order <- false;
  s.s_count <- n + 1

let add t ?(help = "") name ~time by = record t name Counter help ~time by
let set t ?(help = "") name ~time v = record t name Gauge help ~time v
let observe t ?(help = "") name ~time v = record t name Histogram help ~time v

let set_steps t ?(help = "") name ~times ~values =
  let n = Array.length times in
  if Array.length values <> n then
    invalid_arg (Printf.sprintf "Timeseries.set_steps: %S: times and values differ in length" name);
  for k = 0 to n - 1 do
    if not (Float.is_finite times.(k) && times.(k) >= 0. && Float.is_finite values.(k)) then
      check_event name ~time:times.(k) values.(k)
  done;
  if n > 0 then begin
    let s = find_or_add t name Gauge help in
    let m = s.s_count in
    reserve s (m + n);
    Array.blit times 0 s.times m n;
    Array.blit values 0 s.values m n;
    s.s_count <- m + n;
    for k = max 1 m to m + n - 1 do
      if s.times.(k) < s.times.(k - 1) then s.in_order <- false
    done
  end

let names t = List.rev t.order
let kind_of t name = Option.map (fun s -> s.s_kind) (Hashtbl.find_opt t.tbl name)
let help_of t name = Option.map (fun s -> s.s_help) (Hashtbl.find_opt t.tbl name)
let events_recorded t name =
  match Hashtbl.find_opt t.tbl name with Some s -> s.s_count | None -> 0

(* ---- window aggregation ---------------------------------------------- *)

type point = {
  t0 : float;  (* window start (inclusive) *)
  t1 : float;  (* window end (exclusive) *)
  count : int;  (* events recorded inside the window *)
  sum : float;  (* counter: summed increments; histogram: summed samples;
                   gauge: time integral of the value over the window *)
  mean : float;  (* counter: rate (sum/width); histogram: sample mean;
                    gauge: time-weighted mean *)
  vmin : float;  (* smallest value seen (gauges include the carried-in value) *)
  vmax : float;
  last : float;  (* value at window end: gauges carry forward, counters
                    report the cumulative total, histograms the last sample *)
  p50 : float;  (* histogram windows only; 0 elsewhere *)
  p99 : float;
}

(* Half-open windows [i*w, (i+1)*w): a sample landing exactly on an edge
   belongs to the window the edge *opens*. *)
let index t time = int_of_float (Float.floor (time /. t.width))

(* Exact percentile over one window's samples (sorted-array
   interpolation, the same rule as Stats.percentile; duplicated here so
   the base observability library stays dependency-free). *)
let percentile p arr =
  let n = Array.length arr in
  if n = 0 then 0.
  else begin
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    let frac = rank -. Float.floor rank in
    (arr.(lo) *. (1. -. frac)) +. (arr.(hi) *. frac)
  end

(* Total windows needed to cover every recorded sample and the horizon.
   A sample exactly on edge k*w opens window k, so coverage must extend
   one past its index; an exactly-covered horizon must not. *)
let total_windows t ?horizon s =
  let n = s.s_count in
  let latest =
    if s.in_order then if n = 0 then 0. else s.times.(n - 1)
    else begin
      let m = ref 0. in
      for k = 0 to n - 1 do
        m := Float.max !m s.times.(k)
      done;
      !m
    end
  in
  let covering = if n = 0 then 0 else index t latest + 1 in
  let for_horizon =
    match horizon with
    | None -> 0
    | Some h -> int_of_float (Float.ceil (h /. t.width *. (1. -. 1e-12)))
  in
  max 1 (max for_horizon covering)

let n_windows t ?horizon name =
  match Hashtbl.find_opt t.tbl name with
  | None -> 0
  | Some s -> min t.capacity (total_windows t ?horizon s)

(* The events in time order, as [(times, values)] arrays of length
   [s_count]: the recorded arrays themselves when they arrived in order,
   else gathered through a stable sort, so same-time events keep their
   recording order. *)
let chronological s =
  if s.in_order then (s.times, s.values)
  else Elk_util.Fsort.sort_with s.times s.values s.s_count

(* The windows exported for [s]: the index of the first one and how
   many there are. *)
let ring t ?horizon s =
  let total = total_windows t ?horizon s in
  let n = min t.capacity total in
  (total - n, n)

(* Window [k]'s edges. *)
let edge t k = float_of_int k *. t.width

let points t ?horizon name =
  match Hashtbl.find_opt t.tbl name with
  | None -> []
  | Some s ->
      let first, n = ring t ?horizon s in
      let times, values = chronological s in
      let m = s.s_count in
      (* carried state across windows; events older than the ring still
         seed it so a truncated gauge enters with its true value *)
      let gauge_v = ref 0. (* gauge value entering the window *)
      and cum = ref 0. (* counter cumulative total *)
      and last_sample = ref 0. in
      let k = ref 0 in
      while !k < m && index t times.(!k) < first do
        let v = values.(!k) in
        gauge_v := v;
        cum := !cum +. v;
        last_sample := v;
        incr k
      done;
      (* Time order makes each window's events one index range
         [lo, hi), folded left to right. *)
      let window i =
        let t0 = edge t (first + i) and t1 = edge t (first + i + 1) in
        let lo = !k in
        while !k < m && index t times.(!k) - first <= i do
          incr k
        done;
        let hi = !k in
        let count = hi - lo in
        match s.s_kind with
        | Counter ->
            let sum = ref 0. and vmin = ref 0. and vmax = ref 0. in
            for j = lo to hi - 1 do
              sum := !sum +. values.(j);
              vmin := Float.min !vmin values.(j);
              vmax := Float.max !vmax values.(j)
            done;
            cum := !cum +. !sum;
            { t0; t1; count; sum = !sum; mean = !sum /. t.width; vmin = !vmin;
              vmax = !vmax; last = !cum; p50 = 0.; p99 = 0. }
        | Gauge ->
            (* integrate the piecewise-constant value over [t0, t1) *)
            let enter = !gauge_v in
            let integral = ref 0. and v = ref enter and tprev = ref t0 in
            let vmin = ref enter and vmax = ref enter in
            for j = lo to hi - 1 do
              integral := !integral +. (!v *. (times.(j) -. !tprev));
              v := values.(j);
              tprev := times.(j);
              vmin := Float.min !vmin values.(j);
              vmax := Float.max !vmax values.(j)
            done;
            let v_end = !v in
            let integral = !integral +. (v_end *. (t1 -. !tprev)) in
            gauge_v := v_end;
            { t0; t1; count; sum = integral; mean = integral /. t.width;
              vmin = !vmin; vmax = !vmax; last = v_end; p50 = 0.; p99 = 0. }
        | Histogram ->
            let sum = ref 0. in
            for j = lo to hi - 1 do
              sum := !sum +. values.(j)
            done;
            let arr = Array.sub values lo count in
            Elk_util.Fsort.sort arr;
            if count > 0 then last_sample := values.(hi - 1);
            { t0; t1; count; sum = !sum;
              mean = (if count = 0 then 0. else !sum /. float_of_int count);
              vmin = (if count = 0 then 0. else arr.(0));
              vmax = (if count = 0 then 0. else arr.(count - 1));
              last = !last_sample;
              p50 = percentile 50. arr;
              p99 = percentile 99. arr }
      in
      (* [window] advances the shared cursor: build in window order. *)
      let pts = ref [] in
      for i = 0 to n - 1 do
        pts := window i :: !pts
      done;
      List.rev !pts

(* ---- invariants ------------------------------------------------------ *)

(* The exported windows must tile [0, horizon]: start at 0, sit edge to
   edge, and the last edge must reach the horizon.  Tolerance 1e-6
   relative to the horizon (absolute when the horizon is sub-second). *)
let check_tiling t ~horizon name =
  let tol = 1e-6 *. Float.max 1. horizon in
  match Hashtbl.find_opt t.tbl name with
  | None -> Error (Printf.sprintf "series %S has no windows" name)
  | Some s ->
      (* The windows' edges are those [points] exports, computed here
         without folding any event; window [i] ends where [i + 1]
         starts by construction. *)
      let first, n = ring t ~horizon s in
      let rec walk i =
        let t0 = edge t (first + i) and t1 = edge t (first + i + 1) in
        if i = n - 1 then
          if t1 +. tol < horizon then
            Error
              (Printf.sprintf "series %S: windows end at %g, short of horizon %g" name t1
                 horizon)
          else Ok ()
        else if t1 -. t0 -. t.width > tol then
          Error (Printf.sprintf "series %S: window width drift at %g" name t0)
        else walk (i + 1)
      in
      let start = edge t first in
      if Float.abs start > tol then
        Error (Printf.sprintf "series %S: first window starts at %g, not 0" name start)
      else walk 0

(* ---- export ---------------------------------------------------------- *)

let point_json kind p =
  let f = Jsonx.number in
  let shared = [ ("t0", f p.t0); ("t1", f p.t1) ] in
  let fields =
    match kind with
    | Counter ->
        shared
        @ [ ("count", string_of_int p.count); ("sum", f p.sum);
            ("rate", f p.mean); ("total", f p.last) ]
    | Gauge ->
        shared
        @ [ ("mean", f p.mean); ("min", f p.vmin); ("max", f p.vmax);
            ("last", f p.last) ]
    | Histogram ->
        shared
        @ [ ("count", string_of_int p.count); ("sum", f p.sum);
            ("mean", f p.mean); ("p50", f p.p50); ("p99", f p.p99);
            ("max", f p.vmax) ]
  in
  "{" ^ String.concat "," (List.map (fun (k, v) -> Jsonx.quote k ^ ":" ^ v) fields) ^ "}"

let series_json t ?horizon name =
  match Hashtbl.find_opt t.tbl name with
  | None -> "null"
  | Some s ->
      let pts = points t ?horizon name in
      Printf.sprintf "{\"kind\":%s,\"help\":%s,\"points\":[%s]}"
        (Jsonx.quote (kind_name s.s_kind))
        (Jsonx.quote s.s_help)
        (String.concat "," (List.map (point_json s.s_kind) pts))

let to_json t ?horizon () =
  let entries =
    List.map
      (fun name -> Jsonx.quote name ^ ":" ^ series_json t ?horizon name)
      (names t)
  in
  Printf.sprintf "{\"window\":%s,\"series\":{%s}}"
    (Jsonx.number t.width)
    (String.concat "," entries)

(* One Perfetto counter track per series.  Gauges emit their raw change
   points (crisp steps in the UI); counters emit the per-window rate and
   histograms the per-window p99, both at window starts. *)
let chrome_counter_events t ?horizon ?(pid = 9) name =
  match Hashtbl.find_opt t.tbl name with
  | None -> []
  | Some s -> (
      match s.s_kind with
      | Gauge ->
          let times, values = chronological s in
          List.init s.s_count (fun k ->
              Chrome.counter_event ~pid ~name ~ts:times.(k) ~value:values.(k) ())
      | Counter | Histogram ->
          List.map
            (fun p ->
              let v = match s.s_kind with Counter -> p.mean | _ -> p.p99 in
              Chrome.counter_event ~pid ~name ~ts:p.t0 ~value:v ())
            (points t ?horizon name))
