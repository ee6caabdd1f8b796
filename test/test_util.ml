open Elk_util

(* ------------------------------------------------------------------ *)
(* Units                                                              *)
(* ------------------------------------------------------------------ *)

let test_byte_units () =
  Tu.check_float "kib" 1024. (Units.kib 1.);
  Tu.check_float "mib" (1024. *. 1024.) (Units.mib 1.);
  Tu.check_float "gib" (1024. *. 1024. *. 1024.) (Units.gib 1.);
  Tu.check_float "kb" 1e3 (Units.kb 1.);
  Tu.check_float "mb" 2e6 (Units.mb 2.);
  Tu.check_float "gb" 5e8 (Units.gb 0.5);
  Tu.check_float "tb" 1e12 (Units.tb 1.)

let test_rate_units () =
  Tu.check_float "gbps" 5.5e9 (Units.gbps 5.5);
  Tu.check_float "tbps" 1.6e13 (Units.tbps 16.);
  Tu.check_float "tflops" 1e15 (Units.tflops 1000.)

let test_time_units () =
  Tu.check_float "us" 1e-6 (Units.us 1.);
  Tu.check_float "ms" 2.5e-3 (Units.ms 2.5);
  Tu.check_float "ns" 1.5e-7 (Units.ns 150.)

let test_pp_bytes () =
  let s v = Format.asprintf "%a" Units.pp_bytes v in
  Alcotest.(check string) "bytes" "512.00B" (s 512.);
  Alcotest.(check string) "kb" "1.50KB" (s 1500.);
  Alcotest.(check string) "mb" "2.00MB" (s 2e6);
  Alcotest.(check string) "tb" "3.00TB" (s 3e12)

let test_pp_time () =
  let s v = Format.asprintf "%a" Units.pp_time v in
  Alcotest.(check string) "s" "2.000s" (s 2.);
  Alcotest.(check string) "ms" "1.500ms" (s 1.5e-3);
  Alcotest.(check string) "us" "12.000us" (s 12e-6);
  Alcotest.(check string) "ns" "120.0ns" (s 1.2e-7)

(* ------------------------------------------------------------------ *)
(* Pareto                                                             *)
(* ------------------------------------------------------------------ *)

let pt x y = { Pareto.x; y; payload = () }

let test_pareto_empty () =
  Alcotest.(check int) "empty" 0 (List.length (Pareto.frontier []))

let test_pareto_single () =
  Alcotest.(check int) "single" 1 (List.length (Pareto.frontier [ pt 1. 1. ]))

let test_pareto_dominated_dropped () =
  let f = Pareto.frontier [ pt 1. 1.; pt 2. 2. ] in
  Alcotest.(check int) "size" 1 (List.length f);
  Tu.check_float "x" 1. (List.hd f).Pareto.x

let test_pareto_keeps_tradeoffs () =
  let f = Pareto.frontier [ pt 1. 3.; pt 2. 2.; pt 3. 1. ] in
  Alcotest.(check int) "all kept" 3 (List.length f)

let test_pareto_sorted_and_canonical () =
  let f = Pareto.frontier [ pt 3. 1.; pt 1. 3.; pt 2. 2.; pt 2.5 2.5 ] in
  Alcotest.(check bool) "canonical" true (Pareto.is_frontier f);
  let xs = List.map (fun p -> p.Pareto.x) f in
  Alcotest.(check (list (float 0.))) "sorted" [ 1.; 2.; 3. ] xs

let test_pareto_equal_x_keeps_min_y () =
  let f = Pareto.frontier [ pt 1. 5.; pt 1. 2. ] in
  Alcotest.(check int) "size" 1 (List.length f);
  Tu.check_float "y" 2. (List.hd f).Pareto.y

(* The tuple-comparator frontier that [Pareto.frontier] replaced. *)
let tuple_frontier pts =
  let sorted = List.stable_sort (fun a b -> compare (a.Pareto.x, a.Pareto.y) (b.Pareto.x, b.Pareto.y)) pts in
  let rec scan best acc = function
    | [] -> List.rev acc
    | p :: rest -> if p.Pareto.y < best then scan p.Pareto.y (p :: acc) rest else scan best acc rest
  in
  scan infinity [] sorted

let test_pareto_nan_and_ties () =
  (* NaN coordinates sort first, -0 and 0 tie, equal points keep the
     first: the frontier and its order match the tuple comparator. *)
  let pts =
    List.mapi
      (fun i (x, y) -> { Pareto.x; y; payload = i })
      [ (2., 1.); (nan, 3.); (1., nan); (1., 2.); (1., 2.); (-0., 5.); (0., 4.); (2., nan);
        (nan, nan); (3., 0.5); (0., 6.) ]
  in
  let ids f = List.map (fun p -> p.Pareto.payload) f in
  Alcotest.(check (list int)) "pinned" [ 1; 3; 0; 9 ] (ids (Pareto.frontier pts));
  Alcotest.(check (list int)) "tuple comparator" (ids (tuple_frontier pts)) (ids (Pareto.frontier pts));
  let signed = [ { Pareto.x = 0.; y = 1.; payload = 0 }; { Pareto.x = -0.; y = 1.; payload = 1 } ] in
  Alcotest.(check (list int)) "signed zeros tie" (ids (tuple_frontier signed)) (ids (Pareto.frontier signed))

let qcheck_frontier_matches_tuple_comparator =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 18 |]) @@
  QCheck2.Test.make ~count:500 ~name:"pareto: frontier matches the tuple comparator"
    QCheck2.Gen.(
      list_size (int_bound 30)
        (pair
           (oneof [ oneofl [ nan; -0.; 0.; 1.; infinity ]; float_bound_inclusive 4. ])
           (oneof [ oneofl [ nan; -0.; 0.; 1.; infinity ]; float_bound_inclusive 4. ])))
    (fun xys ->
      let pts = List.mapi (fun i (x, y) -> { Pareto.x; y; payload = i }) xys in
      List.map (fun p -> p.Pareto.payload) (Pareto.frontier pts)
      = List.map (fun p -> p.Pareto.payload) (tuple_frontier pts))

let test_is_frontier_rejects_unsorted () =
  Alcotest.(check bool) "unsorted" false (Pareto.is_frontier [ pt 2. 1.; pt 1. 2. ]);
  Alcotest.(check bool) "flat y" false (Pareto.is_frontier [ pt 1. 2.; pt 2. 2. ])

let test_best_y_under_x () =
  let f = Pareto.frontier [ pt 1. 3.; pt 2. 2.; pt 3. 1. ] in
  (match Pareto.best_y_under_x f 2.5 with
  | Some p -> Tu.check_float "best y" 2. p.Pareto.y
  | None -> Alcotest.fail "expected a point");
  Alcotest.(check bool) "below all" true (Pareto.best_y_under_x f 0.5 = None)

let test_min_x_min_y () =
  let f = [ pt 1. 3.; pt 2. 2.; pt 3. 1. ] in
  (match (Pareto.min_x f, Pareto.min_y f) with
  | Some a, Some b ->
      Tu.check_float "min x" 1. a.Pareto.x;
      Tu.check_float "min y" 1. b.Pareto.y
  | _ -> Alcotest.fail "nonempty");
  Alcotest.(check bool) "empty" true (Pareto.min_x [] = None)

let qcheck_frontier_canonical =
  Tu.qtest "pareto: frontier is canonical"
    QCheck2.Gen.(list_size (int_bound 40) (pair (float_bound_inclusive 100.) (float_bound_inclusive 100.)))
    (fun pts ->
      let f = Pareto.frontier (List.map (fun (x, y) -> pt x y) pts) in
      Pareto.is_frontier f)

let qcheck_frontier_subset_undominated =
  Tu.qtest "pareto: no frontier point dominated by any input"
    QCheck2.Gen.(list_size (int_bound 30) (pair (float_bound_inclusive 10.) (float_bound_inclusive 10.)))
    (fun pts ->
      let all = List.map (fun (x, y) -> pt x y) pts in
      let f = Pareto.frontier all in
      List.for_all
        (fun p ->
          not
            (List.exists
               (fun q ->
                 q.Pareto.x <= p.Pareto.x && q.Pareto.y < p.Pareto.y)
               all))
        f)

(* ------------------------------------------------------------------ *)
(* Stats                                                              *)
(* ------------------------------------------------------------------ *)

let test_mean_stdev () =
  Tu.check_float "mean empty" 0. (Stats.mean []);
  Tu.check_float "mean" 2. (Stats.mean [ 1.; 2.; 3. ]);
  Tu.check_float "stdev const" 0. (Stats.stdev [ 5.; 5.; 5. ]);
  Tu.check_close ~eps:1e-9 "stdev" (sqrt (2. /. 3.)) (Stats.stdev [ 1.; 2.; 3. ])

let test_percentile () =
  Tu.check_float "p0" 1. (Stats.percentile 0. [ 3.; 1.; 2. ]);
  Tu.check_float "p100" 3. (Stats.percentile 100. [ 3.; 1.; 2. ]);
  Tu.check_float "p50" 2. (Stats.percentile 50. [ 3.; 1.; 2. ]);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty list")
    (fun () -> ignore (Stats.percentile 50. []));
  Alcotest.check_raises "range" (Invalid_argument "Stats.percentile: p out of range")
    (fun () -> ignore (Stats.percentile 101. [ 1. ]))

let test_geomean () =
  Tu.check_close ~eps:1e-9 "geomean" 2. (Stats.geomean [ 1.; 2.; 4. ]);
  Tu.check_float "empty" 0. (Stats.geomean [])

let test_mape_r2 () =
  Tu.check_float "perfect mape" 0. (Stats.mape [ (1., 1.); (2., 2.) ]);
  Tu.check_close ~eps:1e-9 "10%% mape" 0.1 (Stats.mape [ (10., 11.) ]);
  Tu.check_float "zero measured skipped" 0. (Stats.mape [ (0., 5.) ]);
  Tu.check_float "perfect r2" 1. (Stats.r2 [ (1., 1.); (2., 2.); (3., 3.) ])

let test_ols_exact_line () =
  (* y = 3x + 1 must be recovered exactly. *)
  let samples = List.init 10 (fun i -> ([| float_of_int i |], (3. *. float_of_int i) +. 1.)) in
  let c = Stats.ols samples in
  Tu.check_close ~eps:1e-6 "slope" 3. c.(0);
  Tu.check_close ~eps:1e-5 "intercept" 1. c.(1)

let test_ols_two_features () =
  let samples =
    List.init 20 (fun i ->
        let x = float_of_int i and y = float_of_int (i * i mod 7) in
        ([| x; y |], (2. *. x) -. (0.5 *. y) +. 4.))
  in
  let c = Stats.ols samples in
  Tu.check_close ~eps:1e-5 "w0" 2. c.(0);
  Tu.check_close ~eps:1e-5 "w1" (-0.5) c.(1);
  Tu.check_close ~eps:1e-4 "b" 4. c.(2)

let test_ols_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.ols: no samples") (fun () ->
      ignore (Stats.ols []));
  Alcotest.check_raises "dims" (Invalid_argument "Stats.ols: inconsistent feature dims")
    (fun () -> ignore (Stats.ols [ ([| 1. |], 1.); ([| 1.; 2. |], 2.) ]))

let test_predict () =
  Tu.check_float "predict" 11. (Stats.predict [| 2.; 3. |] [| 4. |])

let qcheck_ols_fits_linear =
  Tu.qtest ~count:50 "stats: ols recovers random affine functions"
    QCheck2.Gen.(triple (float_range (-5.) 5.) (float_range (-5.) 5.) (int_range 5 30))
    (fun (w, b, n) ->
      let samples =
        List.init n (fun i -> ([| float_of_int i |], (w *. float_of_int i) +. b))
      in
      let c = Stats.ols samples in
      Float.abs (c.(0) -. w) < 1e-4 && Float.abs (c.(1) -. b) < 1e-3)

(* ------------------------------------------------------------------ *)
(* Series                                                             *)
(* ------------------------------------------------------------------ *)

let test_series_empty () =
  let s = Series.create () in
  Tu.check_float "total" 0. (Series.total s);
  Tu.check_float "mean" 0. (Series.mean_rate s);
  let lo, hi = Series.horizon s in
  Tu.check_float "lo" 0. lo;
  Tu.check_float "hi" 0. hi

let test_series_uniform_rate () =
  let s = Series.create () in
  Series.add s ~t_start:0. ~t_end:10. ~volume:100.;
  let bins = Series.bins s ~n:5 in
  Array.iter (fun (_, r) -> Tu.check_close ~eps:1e-6 "rate" 10. r) bins;
  Tu.check_close ~eps:1e-9 "mean" 10. (Series.mean_rate s)

let test_series_two_phases () =
  let s = Series.create () in
  Series.add s ~t_start:0. ~t_end:1. ~volume:10.;
  Series.add s ~t_start:1. ~t_end:2. ~volume:30.;
  let bins = Series.bins s ~n:2 in
  Tu.check_close ~eps:1e-6 "first" 10. (snd bins.(0));
  Tu.check_close ~eps:1e-6 "second" 30. (snd bins.(1));
  Tu.check_close ~eps:1e-9 "peak" 30. (Series.peak_rate s ~n:2)

let test_series_instant () =
  let s = Series.create () in
  Series.add s ~t_start:5. ~t_end:5. ~volume:7.;
  Series.add s ~t_start:0. ~t_end:10. ~volume:0.;
  Tu.check_float "total" 7. (Series.total s)

let test_series_errors () =
  let s = Series.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Series.add: negative interval")
    (fun () -> Series.add s ~t_start:2. ~t_end:1. ~volume:1.);
  Alcotest.check_raises "bins" (Invalid_argument "Series.bins: n must be positive")
    (fun () -> ignore (Series.bins s ~n:0))

let qcheck_series_conserves_volume =
  Tu.qtest ~count:60 "series: binning conserves volume"
    QCheck2.Gen.(
      list_size (int_range 1 20)
        (triple (float_bound_inclusive 50.) (float_bound_inclusive 10.)
           (float_bound_inclusive 100.)))
    (fun contribs ->
      let s = Series.create () in
      List.iter
        (fun (t0, dt, v) -> Series.add s ~t_start:t0 ~t_end:(t0 +. dt) ~volume:v)
        contribs;
      let total = List.fold_left (fun a (_, _, v) -> a +. v) 0. contribs in
      let lo, hi = Series.horizon s in
      let width = if hi > lo then (hi -. lo) /. 16. else 1. in
      let binned =
        Array.fold_left (fun a (_, r) -> a +. (r *. width)) 0. (Series.bins s ~n:16)
      in
      Float.abs (binned -. total) <= 1e-6 +. (0.02 *. total))

(* ------------------------------------------------------------------ *)
(* Xrng                                                               *)
(* ------------------------------------------------------------------ *)

let test_xrng_deterministic () =
  let a = Xrng.create 1 and b = Xrng.create 1 in
  for _ = 1 to 20 do
    Alcotest.(check int) "same stream" (Xrng.int a 1000) (Xrng.int b 1000)
  done

let test_xrng_seeds_differ () =
  let a = Xrng.create 1 and b = Xrng.create 2 in
  let la = List.init 10 (fun _ -> Xrng.int a 1_000_000) in
  let lb = List.init 10 (fun _ -> Xrng.int b 1_000_000) in
  Alcotest.(check bool) "different" true (la <> lb)

let test_xrng_bounds () =
  let r = Xrng.create 7 in
  for _ = 1 to 500 do
    let v = Xrng.int r 13 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 13)
  done;
  Alcotest.check_raises "bound" (Invalid_argument "Xrng.int: bound must be positive")
    (fun () -> ignore (Xrng.int r 0))

let test_xrng_float_range () =
  let r = Xrng.create 3 in
  for _ = 1 to 500 do
    let v = Xrng.float r 2.5 in
    Alcotest.(check bool) "in range" true (v >= 0. && v < 2.5)
  done

let test_xrng_split_independent () =
  let r = Xrng.create 5 in
  let s = Xrng.split r in
  let a = List.init 5 (fun _ -> Xrng.int s 1000) in
  let b = List.init 5 (fun _ -> Xrng.int r 1000) in
  Alcotest.(check bool) "streams differ" true (a <> b)

let test_xrng_gaussian_moments () =
  let r = Xrng.create 11 in
  let xs = List.init 4000 (fun _ -> Xrng.gaussian r) in
  Tu.check_rel "mean ~ 0" ~tolerance:1. 0.05 (Float.abs (Stats.mean xs) +. 0.001);
  Tu.check_rel "stdev ~ 1" ~tolerance:0.1 1. (Stats.stdev xs)

let test_xrng_pick_shuffle () =
  let r = Xrng.create 13 in
  Alcotest.(check int) "singleton" 42 (Xrng.pick r [ 42 ]);
  Alcotest.check_raises "empty" (Invalid_argument "Xrng.pick: empty list") (fun () ->
      ignore (Xrng.pick r []));
  let xs = [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let sh = Xrng.shuffle r xs in
  Alcotest.(check (list int)) "permutation" xs (List.sort compare sh)

(* ------------------------------------------------------------------ *)
(* Table                                                              *)
(* ------------------------------------------------------------------ *)

let test_table_render () =
  let t = Table.create ~title:"demo" ~columns:[ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_rowf t "%d|%s" 3 "four";
  let s = Table.render t in
  Alcotest.(check bool) "has title" true (String.length s > 0 && String.sub s 0 4 = "== d");
  Alcotest.(check bool) "has row" true
    (String.split_on_char '\n' s |> List.exists (fun l -> l = "3  four  "))

let test_table_mismatch () =
  let t = Table.create ~title:"t" ~columns:[ "a"; "b" ] in
  Alcotest.check_raises "cells"
    (Invalid_argument "Table.add_row: 1 cells for 2 columns (table \"t\")") (fun () ->
      Table.add_row t [ "x" ])

let suite =
  [
    ("units: byte conversions", `Quick, test_byte_units);
    ("units: rate conversions", `Quick, test_rate_units);
    ("units: time conversions", `Quick, test_time_units);
    ("units: pretty bytes", `Quick, test_pp_bytes);
    ("units: pretty time", `Quick, test_pp_time);
    ("pareto: empty", `Quick, test_pareto_empty);
    ("pareto: single", `Quick, test_pareto_single);
    ("pareto: dominated dropped", `Quick, test_pareto_dominated_dropped);
    ("pareto: tradeoffs kept", `Quick, test_pareto_keeps_tradeoffs);
    ("pareto: sorted canonical", `Quick, test_pareto_sorted_and_canonical);
    ("pareto: equal x keeps min y", `Quick, test_pareto_equal_x_keeps_min_y);
    ("pareto: is_frontier rejects", `Quick, test_is_frontier_rejects_unsorted);
    ("pareto: NaN and equal-x ties", `Quick, test_pareto_nan_and_ties);
    qcheck_frontier_matches_tuple_comparator;
    ("pareto: best under budget", `Quick, test_best_y_under_x);
    ("pareto: min_x/min_y", `Quick, test_min_x_min_y);
    qcheck_frontier_canonical;
    qcheck_frontier_subset_undominated;
    ("stats: mean/stdev", `Quick, test_mean_stdev);
    ("stats: percentile", `Quick, test_percentile);
    ("stats: geomean", `Quick, test_geomean);
    ("stats: mape/r2", `Quick, test_mape_r2);
    ("stats: ols exact line", `Quick, test_ols_exact_line);
    ("stats: ols two features", `Quick, test_ols_two_features);
    ("stats: ols errors", `Quick, test_ols_errors);
    ("stats: predict", `Quick, test_predict);
    qcheck_ols_fits_linear;
    ("series: empty", `Quick, test_series_empty);
    ("series: uniform rate", `Quick, test_series_uniform_rate);
    ("series: two phases", `Quick, test_series_two_phases);
    ("series: instantaneous", `Quick, test_series_instant);
    ("series: errors", `Quick, test_series_errors);
    qcheck_series_conserves_volume;
    ("xrng: deterministic", `Quick, test_xrng_deterministic);
    ("xrng: seeds differ", `Quick, test_xrng_seeds_differ);
    ("xrng: int bounds", `Quick, test_xrng_bounds);
    ("xrng: float range", `Quick, test_xrng_float_range);
    ("xrng: split independence", `Quick, test_xrng_split_independent);
    ("xrng: gaussian moments", `Quick, test_xrng_gaussian_moments);
    ("xrng: pick/shuffle", `Quick, test_xrng_pick_shuffle);
    ("table: render", `Quick, test_table_render);
    ("table: arity mismatch", `Quick, test_table_mismatch);
  ]
