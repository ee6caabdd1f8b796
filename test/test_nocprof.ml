(* Interconnect observability: Noctrace recording and the Nocprof
   report that cross-checks it against the static Load mirror,
   Perfcore's port attribution and Critpath's interconnect segments. *)

module Nt = Elk_sim.Noctrace
module Np = Elk_analyze.Nocprof
module N = Elk_noc.Noc

let ctx () = Lazy.force Tu.default_ctx
let sched () = Lazy.force Tu.tiny_schedule
let mctx () = Lazy.force Tu.mesh_ctx
let msched () = Lazy.force Tu.mesh_schedule

(* Events on too, so check exercises the Critpath reconciliation. *)
let result = lazy (Elk_sim.Sim.run ~events:true ~noc:true (ctx ()) (sched ()))
let report = lazy (Np.analyze (sched ()) (Lazy.force result))

let mresult =
  lazy (Elk_sim.Sim.run ~events:true ~noc:true (mctx ()) (msched ()))

let mreport = lazy (Np.analyze (msched ()) (Lazy.force mresult))

(* Recording is opt-in and pure bookkeeping: off-mode runs carry no
   record, and the simulated timeline is identical either way. *)
let test_off_by_default () =
  let r = Elk_sim.Sim.run ~noc:false (ctx ()) (sched ()) in
  Alcotest.(check bool) "no record" true (r.Elk_sim.Sim.noc = None)

let test_zero_cost () =
  let r_off = Elk_sim.Sim.run ~noc:false (ctx ()) (sched ()) in
  let r_on = Lazy.force result in
  Tu.check_float "total identical" r_off.Elk_sim.Sim.total
    r_on.Elk_sim.Sim.total;
  Alcotest.(check bool) "record present" true (r_on.Elk_sim.Sim.noc <> None)

let test_zero_cost_mesh () =
  let r_off = Elk_sim.Sim.run ~noc:false (mctx ()) (msched ()) in
  let r_on = Lazy.force mresult in
  Tu.check_float "total identical" r_off.Elk_sim.Sim.total
    r_on.Elk_sim.Sim.total

(* The interconnect invariants, as `elk noc` enforces them, on both
   fabrics. *)
let test_check_passes () =
  match Np.check (Lazy.force report) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "check failed: %s" m

let test_check_passes_mesh () =
  match Np.check (Lazy.force mreport) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "mesh check failed: %s" m

(* Dynamic per-link volumes equal the static mirror's, link by link. *)
let test_static_mirror_exact () =
  let rep = Lazy.force mreport in
  Alcotest.(check bool) "has links" true (rep.Np.rows <> []);
  List.iter
    (fun (r : Np.link_row) ->
      Tu.check_rel r.Np.l_name ~tolerance:1e-9 r.Np.l_static r.Np.l_volume)
    rep.Np.rows

(* Recorded class totals equal the schedule-side expectations. *)
let test_class_totals () =
  let rep = Lazy.force report in
  Tu.check_rel "preload bytes" ~tolerance:1e-9 rep.Np.expect_pre
    rep.Np.pre_bytes;
  Tu.check_rel "distribute bytes" ~tolerance:1e-9 rep.Np.expect_dist
    rep.Np.dist_bytes;
  Tu.check_rel "exchange bytes" ~tolerance:1e-9 rep.Np.expect_ex
    rep.Np.ex_bytes

(* Queueing waits recomputed from the trace coincide with Perfcore's
   per-op port bucket — the acceptance criterion's 1e-6 sum check. *)
let test_port_attrib_matches_perfcore () =
  let rep = Lazy.force report in
  Array.iteri
    (fun op (recomputed, perfcore) ->
      Tu.check_close ~eps:1e-6
        (Printf.sprintf "op %d port attribution" op)
        perfcore recomputed)
    rep.Np.port_attrib

(* The hop histogram partitions the transfers: counts sum to the number
   of transfers, bytes to the total transfer volume. *)
let test_hop_histogram_partitions () =
  let t = Option.get (Lazy.force result).Elk_sim.Sim.noc in
  let rows = Nt.hop_histogram t in
  let n = List.fold_left (fun a (_, c, _) -> a + c) 0 rows in
  let b = List.fold_left (fun a (_, _, v) -> a +. v) 0. rows in
  Alcotest.(check int) "transfer count" (Nt.num_transfers t) n;
  Tu.check_rel "transfer bytes" ~tolerance:1e-9 (Nt.total_transfer_bytes t) b;
  let rec mono = function
    | (h1, _, _) :: ((h2, _, _) :: _ as rest) -> h1 < h2 && mono rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted by hops" true (mono rows)

(* Per-link stats are canonically ordered and tie out against the raw
   bookings. *)
let test_link_stats_consistent () =
  let t = Option.get (Lazy.force mresult).Elk_sim.Sim.noc in
  let stats = Nt.link_stats t in
  let rec sorted = function
    | a :: (b :: _ as rest) ->
        N.compare_link a.Nt.ls_link b.Nt.ls_link < 0 && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "canonical order" true (sorted stats);
  let booked =
    Array.fold_left (fun a b -> a +. b.Elk_sim.Probe.b_bytes) 0. (Nt.bookings t)
  in
  let stat_vol = List.fold_left (fun a s -> a +. s.Nt.ls_volume) 0. stats in
  Tu.check_rel "volumes tie out" ~tolerance:1e-9 booked stat_vol;
  List.iter
    (fun s ->
      Tu.check_close ~eps:1e-6 "class split sums to volume"
        s.Nt.ls_volume
        (s.Nt.ls_preload +. s.Nt.ls_distribute +. s.Nt.ls_exchange))
    stats

(* Busy intervals are chronological and non-overlapping within a
   class. *)
let test_busy_intervals_sane () =
  let t = Option.get (Lazy.force result).Elk_sim.Sim.noc in
  List.iter
    (fun s ->
      let pre, ex = Nt.busy_intervals t ~link:s.Nt.ls_link in
      let check_ivs name ivs =
        let rec go = function
          | (s1, e1) :: (((s2, _) :: _) as rest) ->
              if e1 > s2 +. 1e-9 then
                Alcotest.failf "%s: overlap [%g,%g] then %g" name s1 e1 s2;
              go rest
          | [ (s1, e1) ] ->
              Alcotest.(check bool) "well formed" true (e1 >= s1)
          | [] -> ()
        in
        go ivs
      in
      check_ivs "preload" pre;
      check_ivs "exec" ex)
    (Nt.link_stats t)

(* Mesh topologies render a heatmap; all-to-all has no 2D layout. *)
let test_heatmap () =
  Alcotest.(check bool) "mesh has heatmap" true
    (Np.heatmap (Lazy.force mreport) <> None);
  Alcotest.(check bool) "a2a has none" true
    (Np.heatmap (Lazy.force report) = None)

(* The JSON snapshot is deterministic: two independent simulations of
   the same schedule serialize to the same bytes. *)
let test_json_deterministic () =
  let mk () =
    let r = Elk_sim.Sim.run ~events:true ~noc:true (ctx ()) (sched ()) in
    Np.to_json ~top:6 (Np.analyze (sched ()) r)
  in
  Alcotest.(check string) "byte-identical" (mk ()) (mk ())

let test_analyze_requires_record () =
  let r = Elk_sim.Sim.run ~noc:false (ctx ()) (sched ()) in
  Alcotest.check_raises "needs record"
    (Invalid_argument
       "Nocprof.analyze: simulator run has no interconnect record (run with \
        ~noc:true)")
    (fun () -> ignore (Np.analyze (sched ()) r))

let suite =
  [
    Alcotest.test_case "noc recording off by default" `Quick test_off_by_default;
    Alcotest.test_case "recording does not perturb the timeline" `Quick
      test_zero_cost;
    Alcotest.test_case "recording does not perturb the mesh timeline" `Quick
      test_zero_cost_mesh;
    Alcotest.test_case "nocprof check passes (all-to-all)" `Quick
      test_check_passes;
    Alcotest.test_case "nocprof check passes (mesh)" `Quick
      test_check_passes_mesh;
    Alcotest.test_case "static mirror matches dynamic volumes" `Quick
      test_static_mirror_exact;
    Alcotest.test_case "class totals match the schedule" `Quick
      test_class_totals;
    Alcotest.test_case "port attribution matches Perfcore" `Quick
      test_port_attrib_matches_perfcore;
    Alcotest.test_case "hop histogram partitions the transfers" `Quick
      test_hop_histogram_partitions;
    Alcotest.test_case "link stats canonical and consistent" `Quick
      test_link_stats_consistent;
    Alcotest.test_case "per-class busy intervals never overlap" `Quick
      test_busy_intervals_sane;
    Alcotest.test_case "heatmap only on 2D meshes" `Quick test_heatmap;
    Alcotest.test_case "nocprof JSON deterministic" `Quick
      test_json_deterministic;
    Alcotest.test_case "analyze requires an interconnect record" `Quick
      test_analyze_requires_record;
  ]
