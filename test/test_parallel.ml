(* The branch-and-bound order search and the domain fan-out of design
   evaluations: the bounds must actually fire without losing the winner,
   and work run concurrently on pool domains (sharing partition memos)
   must give the same plans and latencies as on the main domain. *)

open Elk_model

let options = { Elk.Compile.default_options with max_orders = 8 }

(* The compile cache is disabled here: these tests compare full searches,
   and a whole-plan cache hit on the second compile would make the
   comparison vacuous. *)
let compile_with ?(options = options) ctx ~pod g =
  let was = Elk.Compilecache.enabled () in
  Elk.Compilecache.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Elk.Compilecache.set_enabled was)
    (fun () -> Elk.Compile.compile ~options ctx ~pod g)

let fixtures () =
  let dit =
    Zoo.build
      (Zoo.scale Zoo.dit_xl ~factor:8 ~layer_factor:14)
      (Zoo.Decode { batch = 2; ctx = 1 })
  in
  let gemma =
    Zoo.build
      (Zoo.scale Zoo.gemma2_27b ~factor:16 ~layer_factor:23)
      (Zoo.Decode { batch = 8; ctx = 128 })
  in
  let opt =
    Zoo.build
      (Zoo.scale Zoo.opt_30b ~factor:8 ~layer_factor:24)
      (Zoo.Decode { batch = 8; ctx = 128 })
  in
  [
    ("llama/a2a", Lazy.force Tu.default_ctx, Tu.default_pod, Lazy.force Tu.tiny_llama);
    ("llama/mesh", Lazy.force Tu.mesh_ctx, Tu.mesh_pod, Lazy.force Tu.tiny_llama);
    ("gemma/a2a", Lazy.force Tu.default_ctx, Tu.default_pod, gemma);
    ("opt/mesh", Lazy.force Tu.mesh_ctx, Tu.mesh_pod, opt);
    ("dit/a2a", Lazy.force Tu.default_ctx, Tu.default_pod, dit);
  ]

(* Compiles running at once on pool domains, sharing the partition memo
   of their context as [Dse.evaluate_all] workers do, pick the plans a
   main-domain compile picks. *)
let test_plan_byte_identical () =
  let fixtures = List.map (fun (l, ctx, pod, g) -> (l, ctx, Lazy.force pod, g)) (fixtures ()) in
  let compile_all () =
    Elk_util.Pool.map (fun (_, ctx, pod, g) -> compile_with ctx ~pod g) fixtures
  in
  let seq = Tu.with_jobs 1 compile_all and par = Tu.with_jobs 4 compile_all in
  List.iter2
    (fun (label, _, _, _) (seq, par) ->
      Alcotest.(check string)
        (label ^ ": plan bytes")
        (Elk.Planio.export seq.Elk.Compile.schedule)
        (Elk.Planio.export par.Elk.Compile.schedule);
      Alcotest.(check int)
        (label ^ ": orders tried")
        seq.Elk.Compile.orders_tried par.Elk.Compile.orders_tried)
    fixtures (List.combine seq par)

let counter name =
  match List.assoc_opt name (Elk_obs.Metrics.counters ()) with
  | Some v -> v
  | None -> 0.

let test_pruning_fires () =
  let was_enabled = Elk_obs.Control.is_enabled () in
  Elk_obs.Control.enable ();
  Fun.protect
    ~finally:(fun () -> if not was_enabled then Elk_obs.Control.disable ())
    (fun () ->
      let before = counter "elk_compile_orders_pruned_total" in
      (* A zero margin makes the cutoff the baseline's own lower bound:
         any candidate order that cannot even match the execution order's
         stall-free makespan is skipped or abandoned mid-induction.  The
         tiny fixture is too small for candidate orders to differ, so use
         a width-scaled two-layer model where reordering genuinely moves
         the stall-free makespan. *)
      let tight = { options with Elk.Compile.prune_margin = 0. } in
      let g =
        Zoo.build
          (Zoo.scale Zoo.llama2_13b ~factor:8 ~layer_factor:20)
          (Zoo.Decode { batch = 32; ctx = 256 })
      in
      let c =
        compile_with ~options:tight (Lazy.force Tu.default_ctx)
          ~pod:(Lazy.force Tu.default_pod) g
      in
      Alcotest.(check bool) "compiled" true (Elk.Compile.latency c > 0.);
      Alcotest.(check bool)
        "orders pruned" true
        (counter "elk_compile_orders_pruned_total" > before))

let test_negative_margin_disables_cutoff () =
  let was_enabled = Elk_obs.Control.is_enabled () in
  Elk_obs.Control.enable ();
  Fun.protect
    ~finally:(fun () -> if not was_enabled then Elk_obs.Control.disable ())
    (fun () ->
      let attempted = counter "elk_compile_orders_tried_total"
      and infeasible = counter "elk_compile_orders_infeasible_total" in
      let loose = { options with Elk.Compile.prune_margin = -1. } in
      let c =
        compile_with ~options:loose (Lazy.force Tu.default_ctx)
          ~pod:(Lazy.force Tu.default_pod) (Lazy.force Tu.tiny_llama)
      in
      (* Without a cutoff no induction is abandoned: every feasible
         attempted order is scheduled to the end and counts as tried. *)
      Alcotest.(check int) "no scheduler aborts"
        (int_of_float
           (counter "elk_compile_orders_tried_total" -. attempted
           -. (counter "elk_compile_orders_infeasible_total" -. infeasible)))
        c.Elk.Compile.orders_tried)

let test_pruning_never_worsens_plan () =
  (* Branch-and-bound is sound: the winning makespan with pruning on
     equals the exhaustive search's (margin off). *)
  let ctx = Lazy.force Tu.default_ctx and pod = Lazy.force Tu.default_pod in
  let exhaustive =
    compile_with
      ~options:{ options with Elk.Compile.prune_margin = -1. }
      ctx ~pod (Lazy.force Tu.tiny_llama)
  in
  let pruned =
    compile_with
      ~options:{ options with Elk.Compile.prune_margin = 0.25 }
      ctx ~pod (Lazy.force Tu.tiny_llama)
  in
  (* The margin only prunes candidates whose stall-free bound exceeds the
     baseline's by >25%; on this model the winner sits well inside it. *)
  Tu.check_rel "same winning makespan" ~tolerance:0.25
    exhaustive.Elk.Compile.timeline.Elk.Timeline.total
    pruned.Elk.Compile.timeline.Elk.Timeline.total

(* The simulator-backed Elk-Full search gives the same answer on the
   main domain as on a pool domain next to the other designs. *)
let test_dse_full_sim_deterministic () =
  let env = { Elk_dse.Dse.pod = Lazy.force Tu.default_pod; ctx = Lazy.force Tu.default_ctx } in
  let g = Lazy.force Tu.tiny_llama in
  let direct =
    Elk_dse.Dse.evaluate ~elk_options:options env g Elk_baselines.Baselines.Elk_full
  in
  let pooled =
    List.find
      (fun (e : Elk_dse.Dse.eval) -> e.Elk_dse.Dse.design = Elk_baselines.Baselines.Elk_full)
      (Tu.with_jobs 4 (fun () -> Elk_dse.Dse.evaluate_all ~elk_options:options env g))
  in
  Tu.check_float "elk-full sim latency" direct.Elk_dse.Dse.latency pooled.Elk_dse.Dse.latency

let test_evaluate_all_parallel () =
  let env = { Elk_dse.Dse.pod = Lazy.force Tu.default_pod; ctx = Lazy.force Tu.default_ctx } in
  let g = Lazy.force Tu.tiny_llama in
  let eval jobs = Tu.with_jobs jobs (fun () -> Elk_dse.Dse.evaluate_all ~elk_options:options env g) in
  let seq = eval 1 and par = eval 4 in
  Alcotest.(check int) "all designs" (List.length seq) (List.length par);
  List.iter2
    (fun (a : Elk_dse.Dse.eval) (b : Elk_dse.Dse.eval) ->
      Alcotest.(check bool) "design order" true (a.Elk_dse.Dse.design = b.Elk_dse.Dse.design);
      Tu.check_float
        (Elk_baselines.Baselines.name a.Elk_dse.Dse.design ^ " latency")
        a.Elk_dse.Dse.latency b.Elk_dse.Dse.latency)
    seq par

let suite =
  [
    Alcotest.test_case "plan byte-identical across jobs" `Quick test_plan_byte_identical;
    Alcotest.test_case "branch-and-bound pruning fires" `Quick test_pruning_fires;
    Alcotest.test_case "negative margin disables cutoff" `Quick
      test_negative_margin_disables_cutoff;
    Alcotest.test_case "pruning keeps the winner" `Quick test_pruning_never_worsens_plan;
    Alcotest.test_case "dse full-sim search deterministic" `Quick
      test_dse_full_sim_deterministic;
    Alcotest.test_case "evaluate_all parallel equals sequential" `Quick
      test_evaluate_all_parallel;
  ]
