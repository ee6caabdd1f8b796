open Elk_sim

let ctx () = Lazy.force Tu.default_ctx
let sched () = Lazy.force Tu.tiny_schedule

let result = lazy (Sim.run (Lazy.force Tu.default_ctx) (Lazy.force Tu.tiny_schedule))

let test_total_positive () =
  Alcotest.(check bool) "positive" true ((Lazy.force result).Sim.total > 0.)

let test_executes_sequential () =
  let r = Lazy.force result in
  Array.iteri
    (fun i (o : Sim.op_trace) ->
      if i > 0 then
        Alcotest.(check bool) "sequential" true
          (r.Sim.per_op.(i - 1).Sim.exe_end <= o.Sim.exe_start +. 1e-12))
    r.Sim.per_op

let test_preload_before_exec () =
  let r = Lazy.force result in
  Array.iter
    (fun (o : Sim.op_trace) ->
      Alcotest.(check bool) "preload completes first" true
        (o.Sim.pre_end <= o.Sim.exe_start +. 1e-12))
    r.Sim.per_op

let test_phases_ordered () =
  let r = Lazy.force result in
  Array.iter
    (fun (o : Sim.op_trace) ->
      Alcotest.(check bool) "dist then compute then exchange" true
        (o.Sim.exe_start <= o.Sim.dist_end
        && o.Sim.dist_end <= o.Sim.compute_end
        && o.Sim.compute_end <= o.Sim.exe_end))
    r.Sim.per_op

let test_preloads_sequential_in_order () =
  let r = Lazy.force result in
  let s = sched () in
  let order = s.Elk.Schedule.order in
  for k = 1 to Array.length order - 1 do
    Alcotest.(check bool) "hbm channel sequential" true
      (r.Sim.per_op.(order.(k - 1)).Sim.pre_end
      <= r.Sim.per_op.(order.(k)).Sim.pre_start +. 1e-12)
  done

let test_volumes_match_schedule () =
  let r = Lazy.force result in
  let s = sched () in
  Tu.check_rel "hbm volume" ~tolerance:0.01
    (Elk_model.Graph.total_hbm_bytes s.Elk.Schedule.graph)
    r.Sim.hbm_device_volume;
  Alcotest.(check bool) "hbm requests issued" true (r.Sim.hbm_requests > 0)

let test_breakdown_nonnegative () =
  let b = (Lazy.force result).Sim.bd in
  Alcotest.(check bool) "nonneg" true
    (b.Elk.Timeline.preload_only >= 0. && b.Elk.Timeline.execute_only >= 0.
   && b.Elk.Timeline.overlapped >= 0. && b.Elk.Timeline.interconnect >= 0.)

let test_utilizations_bounded () =
  let r = Lazy.force result in
  Alcotest.(check bool) "hbm <= 1" true (r.Sim.hbm_util > 0. && r.Sim.hbm_util <= 1.0001);
  Alcotest.(check bool) "noc bounded" true (r.Sim.noc_util > 0. && r.Sim.noc_util <= 1.2)

let test_deterministic () =
  let a = Sim.run (ctx ()) (sched ()) in
  let b = Sim.run (ctx ()) (sched ()) in
  Tu.check_float "same total" a.Sim.total b.Sim.total

let test_skew_increases_makespan () =
  let base = Sim.run ~skew:0. (ctx ()) (sched ()) in
  let skewed = Sim.run ~skew:0.1 (ctx ()) (sched ()) in
  (* Max over cores of a 1-centered perturbation only grows. *)
  Alcotest.(check bool) "skew slows" true (skewed.Sim.total >= base.Sim.total *. 0.999)

let test_agrees_with_timeline_roughly () =
  (* The paper validates the simulator against the emulator; we require the
     analytic evaluator to land within 2x of the simulator. *)
  let diff = Sim.compare_with_timeline (ctx ()) (sched ()) in
  Alcotest.(check bool) "within 50%" true (diff < 0.5)

(* Resource attribution must tile the makespan exactly: every core's five
   buckets and every operator's four attribution shares are accumulated
   independently in the event loop, so any leak in the decomposition shows
   up as a sum that misses [total]. *)
let check_perf_invariant name (r : Sim.result) =
  (match Perfcore.check r.Sim.perf ~total:r.Sim.total with
  | Ok () -> ()
  | Error m -> Alcotest.failf "%s: %s" name m);
  Array.iteri
    (fun c b ->
      Tu.check_rel
        (Printf.sprintf "%s: core %d buckets sum to makespan" name c)
        ~tolerance:1e-6 r.Sim.total (Perfcore.bucket_sum b))
    r.Sim.perf.Perfcore.per_core;
  let op_total =
    Array.fold_left (fun acc a -> acc +. Perfcore.attrib_sum a) 0. r.Sim.perf.Perfcore.per_op
  in
  Tu.check_rel (name ^ ": op attributions sum to makespan") ~tolerance:1e-6
    r.Sim.total op_total

let test_attrib_tiles_makespan () = check_perf_invariant "a2a" (Lazy.force result)

let test_attrib_tiles_makespan_mesh () =
  let mctx = Lazy.force Tu.mesh_ctx in
  let s = Elk.Scheduler.run mctx (Lazy.force Tu.tiny_llama_chip_graph) in
  check_perf_invariant "mesh" (Sim.run mctx s)

let test_mesh_runs () =
  let mctx = Lazy.force Tu.mesh_ctx in
  let g = Lazy.force Tu.tiny_llama_chip_graph in
  let s = Elk.Scheduler.run mctx g in
  let r = Sim.run mctx s in
  Alcotest.(check bool) "mesh sim positive" true (r.Sim.total > 0.)

let test_mesh_not_faster_than_a2a () =
  (* Same per-link bandwidth: the mesh pays multi-hop delivery, so it
     cannot beat all-to-all on the same schedule family (Fig 21's
     "mesh always experiences higher interconnect utilization"). *)
  let actx = ctx () and mctx = Lazy.force Tu.mesh_ctx in
  let g = Lazy.force Tu.tiny_llama_chip_graph in
  let ra = Sim.run actx (Elk.Scheduler.run actx g) in
  let rm = Sim.run mctx (Elk.Scheduler.run mctx g) in
  Alcotest.(check bool) "mesh >= a2a * 0.9" true (rm.Sim.total >= 0.9 *. ra.Sim.total)

(* Recorders are pure bookkeeping: every subset of {events, mem, noc}
   leaves the simulated timeline bit-identical to the plain run, and
   each recorder runs exactly when selected. *)
let check_recorder_subsets name ctx s =
  let bits (r : Sim.result) =
    Marshal.to_string (r.Sim.total, r.Sim.bd, r.Sim.per_op, r.Sim.perf) [ Marshal.No_sharing ]
  in
  let plain = bits (Sim.run ctx s) in
  List.iter
    (fun (events, mem, noc) ->
      let r = Sim.run ~events ~mem ~noc ctx s in
      let label = Printf.sprintf "%s events=%b mem=%b noc=%b" name events mem noc in
      Alcotest.(check bool) (label ^ ": bit-identical") true (bits r = plain);
      Alcotest.(check (list bool)) (label ^ ": records") [ events; mem; noc ]
        [ r.Sim.events <> None; r.Sim.mem <> None; r.Sim.noc <> None ])
    (List.concat_map
       (fun e -> List.concat_map (fun m -> [ (e, m, false); (e, m, true) ]) [ false; true ])
       [ false; true ])

let test_recorder_subsets () =
  check_recorder_subsets "a2a" (ctx ()) (sched ());
  let mctx = Lazy.force Tu.mesh_ctx in
  check_recorder_subsets "mesh" mctx
    (Elk.Scheduler.run mctx (Lazy.force Tu.tiny_llama_chip_graph))

let suite =
  [
    ("sim: positive total", `Quick, test_total_positive);
    ("sim: every recorder subset bit-identical", `Quick, test_recorder_subsets);
    ("sim: executes sequential", `Quick, test_executes_sequential);
    ("sim: preload before exec", `Quick, test_preload_before_exec);
    ("sim: phase ordering", `Quick, test_phases_ordered);
    ("sim: preload channel sequential", `Quick, test_preloads_sequential_in_order);
    ("sim: volumes conserved", `Quick, test_volumes_match_schedule);
    ("sim: breakdown nonnegative", `Quick, test_breakdown_nonnegative);
    ("sim: utilizations bounded", `Quick, test_utilizations_bounded);
    ("sim: deterministic", `Quick, test_deterministic);
    ("sim: skew effect", `Quick, test_skew_increases_makespan);
    ("sim: timeline agreement", `Quick, test_agrees_with_timeline_roughly);
    ("sim: attribution tiles makespan (a2a)", `Quick, test_attrib_tiles_makespan);
    ("sim: attribution tiles makespan (mesh)", `Slow, test_attrib_tiles_makespan_mesh);
    ("sim: mesh runs", `Slow, test_mesh_runs);
    ("sim: mesh vs a2a", `Slow, test_mesh_not_faster_than_a2a);
  ]
