(* Timeseries: half-open window semantics, tiling invariants, per-kind
   aggregation, ring truncation.  The window-edge and tiling cases are
   the acceptance checks for the serving time series: a sample exactly
   on a window edge must land in the window the edge opens, and the
   exported windows must tile [0, horizon] with no gaps. *)

module T = Elk_obs.Timeseries

let feq = Alcotest.(check (float 1e-9))

let test_edge_sample_opens_next_window () =
  (* Half-open [i, i+1): a sample exactly at t = 1.0 belongs to window 1,
     not window 0. *)
  let ts = T.create ~window:1.0 () in
  T.add ts "c" ~time:1.0 7.;
  let pts = T.points ts ~horizon:2.0 "c" in
  Alcotest.(check int) "two windows" 2 (List.length pts);
  let w0 = List.nth pts 0 and w1 = List.nth pts 1 in
  Alcotest.(check int) "edge sample not in window 0" 0 w0.T.count;
  Alcotest.(check int) "edge sample in window 1" 1 w1.T.count;
  feq "w1 sum" 7. w1.T.sum

let test_edge_sample_extends_coverage () =
  (* A sample on the horizon's closing edge opens one more window: the
     tiling grows rather than dropping the sample. *)
  let ts = T.create ~window:1.0 () in
  T.add ts "c" ~time:2.0 1.;
  Alcotest.(check int) "three windows" 3 (T.n_windows ts ~horizon:2.0 "c");
  match T.check_tiling ts ~horizon:2.0 "c" with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let test_exact_horizon_no_extra_window () =
  let ts = T.create ~window:1.0 () in
  T.add ts "c" ~time:0.5 1.;
  Alcotest.(check int) "exactly covered" 10 (T.n_windows ts ~horizon:10.0 "c")

let test_tiling () =
  let ts = T.create ~window:0.25 () in
  T.set ts "g" ~time:0. 1.;
  T.set ts "g" ~time:2.5 3.;
  (match T.check_tiling ts ~horizon:10. "g" with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  let pts = T.points ts ~horizon:10. "g" in
  Alcotest.(check int) "40 windows" 40 (List.length pts);
  feq "starts at 0" 0. (List.hd pts).T.t0;
  feq "reaches horizon" 10. (List.nth pts 39).T.t1;
  List.iteri
    (fun i p ->
      feq (Printf.sprintf "window %d start" i) (0.25 *. float_of_int i) p.T.t0;
      feq (Printf.sprintf "window %d width" i) 0.25 (p.T.t1 -. p.T.t0))
    pts;
  (match T.check_tiling ts ~horizon:10. "missing" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unknown series should not tile")

let test_counter_semantics () =
  let ts = T.create ~window:1.0 () in
  T.add ts "c" ~time:0.5 2.;
  T.add ts "c" ~time:0.7 3.;
  T.add ts "c" ~time:1.2 5.;
  let pts = T.points ts ~horizon:3.0 "c" in
  Alcotest.(check int) "windows" 3 (List.length pts);
  let w0 = List.nth pts 0 and w1 = List.nth pts 1 and w2 = List.nth pts 2 in
  feq "w0 sum" 5. w0.T.sum;
  feq "w0 rate" 5. w0.T.mean;
  feq "w0 running total" 5. w0.T.last;
  feq "w1 running total" 10. w1.T.last;
  Alcotest.(check int) "w2 empty" 0 w2.T.count;
  feq "w2 rate 0" 0. w2.T.mean;
  feq "w2 keeps total" 10. w2.T.last

let test_gauge_carry_forward () =
  let ts = T.create ~window:1.0 () in
  T.set ts "g" ~time:0.5 4.;
  let pts = T.points ts ~horizon:3.0 "g" in
  let w0 = List.nth pts 0 and w1 = List.nth pts 1 in
  (* value 0 for the first half of window 0, then 4: time-weighted mean 2 *)
  feq "w0 time-weighted mean" 2. w0.T.mean;
  feq "w0 min includes carry-in" 0. w0.T.vmin;
  feq "w0 max" 4. w0.T.vmax;
  feq "w0 last" 4. w0.T.last;
  (* empty window: the gauge holds its value *)
  Alcotest.(check int) "w1 no events" 0 w1.T.count;
  feq "w1 carried mean" 4. w1.T.mean;
  feq "w1 carried last" 4. w1.T.last

let test_histogram_percentiles () =
  let ts = T.create ~window:1.0 () in
  for i = 1 to 100 do
    T.observe ts "h" ~time:0.5 (float_of_int i)
  done;
  let w0 = List.hd (T.points ts "h") in
  Alcotest.(check int) "count" 100 w0.T.count;
  feq "p50 interpolated" 50.5 w0.T.p50;
  feq "p99 interpolated" 99.01 w0.T.p99;
  feq "max" 100. w0.T.vmax;
  feq "mean" 50.5 w0.T.mean

let test_ring_truncation () =
  (* capacity 2 keeps the newest two windows, but the dropped window
     still seeds the running total. *)
  let ts = T.create ~window:1.0 ~capacity:2 () in
  T.add ts "c" ~time:0.5 1.;
  T.add ts "c" ~time:1.5 2.;
  T.add ts "c" ~time:2.5 4.;
  let pts = T.points ts "c" in
  Alcotest.(check int) "ring keeps two" 2 (List.length pts);
  feq "ring starts at window 1" 1.0 (List.hd pts).T.t0;
  feq "dropped window still counted in total" 7.
    (List.nth pts 1).T.last

let test_kind_clash_and_bad_inputs () =
  let ts = T.create () in
  T.add ts "x" ~time:0. 1.;
  let bad f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  bad (fun () -> T.set ts "x" ~time:0. 1.);
  bad (fun () -> T.add ts "x" ~time:(-1.) 1.);
  bad (fun () -> T.add ts "x" ~time:0. Float.nan);
  bad (fun () -> ignore (T.create ~window:0. ()));
  bad (fun () -> ignore (T.create ~capacity:0 ()))

let test_json_and_chrome_export () =
  let ts = T.create ~window:1.0 () in
  T.add ts "c" ~time:0.5 2.;
  T.set ts "g" ~time:0.25 1.;
  T.observe ts "h" ~time:0.75 0.5;
  let j = T.to_json ts ~horizon:2.0 () in
  (match Elk_obs.Jsonx.parse j with
  | Ok v ->
      (match Elk_obs.Jsonx.member "series" v with
      | Some (Elk_obs.Jsonx.Obj kvs) ->
          Alcotest.(check (list string)) "all series exported" [ "c"; "g"; "h" ]
            (List.sort compare (List.map fst kvs))
      | _ -> Alcotest.fail "series object missing")
  | Error m -> Alcotest.fail ("invalid JSON: " ^ m));
  (* gauges: one counter event per change point; counters: one per window *)
  Alcotest.(check int) "gauge change points" 1
    (List.length (T.chrome_counter_events ts ~horizon:2.0 "g"));
  Alcotest.(check int) "counter per window" 2
    (List.length (T.chrome_counter_events ts ~horizon:2.0 "c"));
  List.iter
    (fun e ->
      match Elk_obs.Jsonx.parse e with
      | Ok _ -> ()
      | Error m -> Alcotest.fail ("invalid chrome event: " ^ m))
    (T.chrome_counter_events ts ~horizon:2.0 "h")

(* A gauge change exactly on a window edge: the old value carries fully
   through the earlier window, the new value holds from the edge — so
   the boundary window's time-weighted mean sees only the new value. *)
let test_gauge_set_at_window_boundary () =
  let ts = T.create ~window:1.0 () in
  T.set ts "g" ~time:0.0 2.;
  T.set ts "g" ~time:2.0 10.;
  let pts = T.points ts ~horizon:3.0 "g" in
  Alcotest.(check int) "three windows" 3 (List.length pts);
  let w1 = List.nth pts 1 and w2 = List.nth pts 2 in
  (* window [1,2): entirely the carried-in old value *)
  feq "carry-in mean" 2. w1.T.mean;
  feq "carry-in last" 2. w1.T.last;
  Alcotest.(check int) "no event in carried window" 0 w1.T.count;
  (* window [2,3): the edge change belongs to the window it opens *)
  Alcotest.(check int) "edge change in window 2" 1 w2.T.count;
  feq "boundary mean is all new value" 10. w2.T.mean;
  feq "boundary min includes carry" 2. w2.T.vmin;
  feq "boundary last" 10. w2.T.last

(* Counter-track export of a series that was never recorded: an empty
   list, not a crash and not a spurious zero track. *)
let test_chrome_counter_events_empty_series () =
  let ts = T.create ~window:1.0 () in
  T.set ts "present" ~time:0.5 1.;
  Alcotest.(check (list string)) "unknown series exports nothing" []
    (T.chrome_counter_events ts ~horizon:2.0 "absent");
  Alcotest.(check bool) "known series exports" true
    (T.chrome_counter_events ts ~horizon:2.0 "present" <> [])

(* ---- the array-backed series against a list reference ---------------- *)

(* The list implementation the array-backed series replaced, kept as
   the reference its exports must match bit for bit: events consed
   newest first, stable-sorted by time at export, bucketed into
   per-window lists. *)
module Ref = struct
  type series = { kind : T.kind; help : string; mutable events : (float * float) list }

  type t = {
    width : float;
    capacity : int;
    tbl : (string, series) Hashtbl.t;
    mutable order : string list;
  }

  let create ~window ?(capacity = max_int) () =
    { width = window; capacity; tbl = Hashtbl.create 8; order = [] }

  let record t kind name ~time v =
    let s =
      match Hashtbl.find_opt t.tbl name with
      | Some s -> s
      | None ->
          let s = { kind; help = ""; events = [] } in
          Hashtbl.add t.tbl name s;
          t.order <- name :: t.order;
          s
    in
    s.events <- (time, v) :: s.events

  let index t time = int_of_float (Float.floor (time /. t.width))

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

  let total_windows t ?horizon s =
    let latest = List.fold_left (fun a (time, _) -> Float.max a time) 0. s.events in
    let covering = if s.events = [] then 0 else index t latest + 1 in
    let for_horizon =
      match horizon with
      | None -> 0
      | Some h -> int_of_float (Float.ceil (h /. t.width *. (1. -. 1e-12)))
    in
    max 1 (max for_horizon covering)

  let sorted s = List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) (List.rev s.events)

  let points t ?horizon name =
    match Hashtbl.find_opt t.tbl name with
    | None -> []
    | Some s ->
        let total = total_windows t ?horizon s in
        let n = min t.capacity total in
        let first = total - n in
        let buckets = Array.make n [] and counts = Array.make n 0 in
        let gauge_v = ref 0. and cum = ref 0. and last_sample = ref 0. in
        List.iter
          (fun (time, v) ->
            let i = index t time - first in
            if i >= 0 && i < n then begin
              buckets.(i) <- (time, v) :: buckets.(i);
              counts.(i) <- counts.(i) + 1
            end
            else if i < 0 then begin
              gauge_v := v;
              cum := !cum +. v;
              last_sample := v
            end)
          (sorted s);
        List.init n (fun i ->
            let t0 = float_of_int (first + i) *. t.width in
            let t1 = float_of_int (first + i + 1) *. t.width in
            let evs = List.rev buckets.(i) in
            let vals = List.map snd evs in
            match s.kind with
            | T.Counter ->
                let sum = List.fold_left ( +. ) 0. vals in
                cum := !cum +. sum;
                { T.t0; t1; count = counts.(i); sum; mean = sum /. t.width;
                  vmin = List.fold_left Float.min 0. vals;
                  vmax = List.fold_left Float.max 0. vals; last = !cum; p50 = 0.; p99 = 0. }
            | T.Gauge ->
                let enter = !gauge_v in
                let integral, _, tprev =
                  List.fold_left
                    (fun (acc, v, tp) (time, v') -> (acc +. (v *. (time -. tp)), v', time))
                    (0., enter, t0) evs
                in
                let v_end = match List.rev vals with v :: _ -> v | [] -> enter in
                let integral = integral +. (v_end *. (t1 -. tprev)) in
                gauge_v := v_end;
                { T.t0; t1; count = counts.(i); sum = integral; mean = integral /. t.width;
                  vmin = List.fold_left Float.min enter vals;
                  vmax = List.fold_left Float.max enter vals; last = v_end; p50 = 0.; p99 = 0. }
            | T.Histogram ->
                let sum = List.fold_left ( +. ) 0. vals in
                let arr = Array.of_list vals in
                Array.sort Float.compare arr;
                (match List.rev vals with v :: _ -> last_sample := v | [] -> ());
                { T.t0; t1; count = counts.(i); sum;
                  mean = (if counts.(i) = 0 then 0. else sum /. float_of_int counts.(i));
                  vmin = (if arr = [||] then 0. else arr.(0));
                  vmax = (if arr = [||] then 0. else arr.(Array.length arr - 1));
                  last = !last_sample; p50 = percentile 50. arr; p99 = percentile 99. arr })

  let check_tiling t ~horizon name =
    let tol = 1e-6 *. Float.max 1. horizon in
    match points t ~horizon name with
    | [] -> Error (Printf.sprintf "series %S has no windows" name)
    | first :: _ as pts ->
        let rec walk = function
          | a :: (b :: _ as rest) ->
              if Float.abs (b.T.t0 -. a.T.t1) > tol then
                Error
                  (Printf.sprintf "series %S: gap between windows at %g..%g" name a.T.t1 b.T.t0)
              else if a.T.t1 -. a.T.t0 -. t.width > tol then
                Error (Printf.sprintf "series %S: window width drift at %g" name a.T.t0)
              else walk rest
          | [ last ] ->
              if last.T.t1 +. tol < horizon then
                Error
                  (Printf.sprintf "series %S: windows end at %g, short of horizon %g" name
                     last.T.t1 horizon)
              else Ok ()
          | [] -> Ok ()
        in
        if Float.abs first.T.t0 > tol then
          Error (Printf.sprintf "series %S: first window starts at %g, not 0" name first.T.t0)
        else walk pts

  let point_json kind (p : T.point) =
    let f = Elk_obs.Jsonx.number in
    let shared = [ ("t0", f p.T.t0); ("t1", f p.T.t1) ] in
    let fields =
      match kind with
      | T.Counter ->
          shared
          @ [ ("count", string_of_int p.T.count); ("sum", f p.T.sum); ("rate", f p.T.mean);
              ("total", f p.T.last) ]
      | T.Gauge ->
          shared
          @ [ ("mean", f p.T.mean); ("min", f p.T.vmin); ("max", f p.T.vmax);
              ("last", f p.T.last) ]
      | T.Histogram ->
          shared
          @ [ ("count", string_of_int p.T.count); ("sum", f p.T.sum); ("mean", f p.T.mean);
              ("p50", f p.T.p50); ("p99", f p.T.p99); ("max", f p.T.vmax) ]
    in
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Elk_obs.Jsonx.quote k ^ ":" ^ v) fields)
    ^ "}"

  let to_json t ?horizon () =
    let series name =
      let s = Hashtbl.find t.tbl name in
      Printf.sprintf "{\"kind\":%s,\"help\":%s,\"points\":[%s]}"
        (Elk_obs.Jsonx.quote (T.kind_name s.kind))
        (Elk_obs.Jsonx.quote s.help)
        (String.concat "," (List.map (point_json s.kind) (points t ?horizon name)))
    in
    Printf.sprintf "{\"window\":%s,\"series\":{%s}}" (Elk_obs.Jsonx.number t.width)
      (String.concat ","
         (List.map (fun name -> Elk_obs.Jsonx.quote name ^ ":" ^ series name) (List.rev t.order)))

  let chrome_counter_events t ?horizon name =
    match Hashtbl.find_opt t.tbl name with
    | None -> []
    | Some s -> (
        match s.kind with
        | T.Gauge ->
            List.map
              (fun (time, v) -> Elk_obs.Chrome.counter_event ~pid:9 ~name ~ts:time ~value:v ())
              (sorted s)
        | T.Counter | T.Histogram ->
            List.map
              (fun p ->
                let v = match s.kind with T.Counter -> p.T.mean | _ -> p.T.p99 in
                Elk_obs.Chrome.counter_event ~pid:9 ~name ~ts:p.T.t0 ~value:v ())
              (points t ?horizon name))
end

(* One recording step: an event of series [k] (0-1 counters, 2-3
   gauges, 4-5 histograms), or a batch of gauge changes given to
   [set_steps] (one [set] each in the reference). *)
type step = Event of int * float * float | Steps of int * (float * float) list

let series_name k = [| "c0"; "c1"; "g0"; "g1"; "h0"; "h1" |].(k)

(* Times on a 1/8 grid over [0, 6]: window edges, same-time events and
   out-of-order arrivals are all common. *)
let gen_case =
  let open QCheck2.Gen in
  let time = map (fun k -> float_of_int k /. 8.) (int_range 0 48) in
  let value = map float_of_int (int_range (-8) 20) in
  let step =
    frequency
      [
        (6, map3 (fun k t v -> Event (k, t, v)) (int_range 0 5) time value);
        (1, map2 (fun k evs -> Steps (k, evs)) (int_range 2 3) (list_size (int_range 0 6) (pair time value)));
      ]
  in
  tup4 (oneofl [ 0.25; 0.5; 1.0 ]) (opt (int_range 1 4))
    (opt (map (fun k -> float_of_int k /. 4.) (int_range 0 24)))
    (list_size (int_range 0 40) step)

let show_point (p : T.point) =
  Printf.sprintf "%h %h %d %h %h %h %h %h %h %h" p.T.t0 p.T.t1 p.T.count p.T.sum p.T.mean
    p.T.vmin p.T.vmax p.T.last p.T.p50 p.T.p99

let matches_reference (window, capacity, horizon, steps) =
  let ts = T.create ~window ?capacity () and r = Ref.create ~window ?capacity () in
  let event k ~time v =
    let name = series_name k in
    (match k / 2 with
    | 0 -> T.add ts name ~time v
    | 1 -> T.set ts name ~time v
    | _ -> T.observe ts name ~time v);
    Ref.record r [| T.Counter; T.Gauge; T.Histogram |].(k / 2) name ~time v
  in
  List.iter
    (function
      | Event (k, time, v) -> event k ~time v
      | Steps (k, evs) ->
          let name = series_name k in
          T.set_steps ts name ~times:(Array.of_list (List.map fst evs))
            ~values:(Array.of_list (List.map snd evs));
          List.iter (fun (time, v) -> Ref.record r T.Gauge name ~time v) evs)
    steps;
  let names = T.names ts in
  names = List.rev r.Ref.order
  && T.to_json ts ?horizon () = Ref.to_json r ?horizon ()
  && List.for_all
       (fun name ->
         List.map show_point (T.points ts ?horizon name)
         = List.map show_point (Ref.points r ?horizon name)
         && T.chrome_counter_events ts ?horizon name = Ref.chrome_counter_events r ?horizon name
         &&
         match horizon with
         | Some horizon -> T.check_tiling ts ~horizon name = Ref.check_tiling r ~horizon name
         | None -> true)
       names

let print_case (window, capacity, horizon, steps) =
  let step = function
    | Event (k, t, v) -> Printf.sprintf "%s@%g=%g" (series_name k) t v
    | Steps (k, evs) ->
        Printf.sprintf "%s steps [%s]" (series_name k)
          (String.concat "; " (List.map (fun (t, v) -> Printf.sprintf "%g=%g" t v) evs))
  in
  Printf.sprintf "window %g, capacity %s, horizon %s: %s" window
    (match capacity with Some c -> string_of_int c | None -> "-")
    (match horizon with Some h -> string_of_float h | None -> "-")
    (String.concat ", " (List.map step steps))

let qcheck_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"array series match the list reference"
       ~print:print_case gen_case matches_reference)

let suite =
  [
    Alcotest.test_case "edge sample opens next window" `Quick
      test_edge_sample_opens_next_window;
    Alcotest.test_case "edge sample extends coverage" `Quick
      test_edge_sample_extends_coverage;
    Alcotest.test_case "exact horizon no extra window" `Quick
      test_exact_horizon_no_extra_window;
    Alcotest.test_case "tiling" `Quick test_tiling;
    Alcotest.test_case "counter semantics" `Quick test_counter_semantics;
    Alcotest.test_case "gauge carry forward" `Quick test_gauge_carry_forward;
    Alcotest.test_case "histogram percentiles" `Quick test_histogram_percentiles;
    Alcotest.test_case "ring truncation" `Quick test_ring_truncation;
    Alcotest.test_case "kind clash and bad inputs" `Quick
      test_kind_clash_and_bad_inputs;
    Alcotest.test_case "json and chrome export" `Quick test_json_and_chrome_export;
    Alcotest.test_case "gauge set at window boundary" `Quick
      test_gauge_set_at_window_boundary;
    Alcotest.test_case "counter export of empty series" `Quick
      test_chrome_counter_events_empty_series;
    qcheck_matches_reference;
  ]
