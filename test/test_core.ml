(* Tests for the core Elk library: allocator, scheduler, schedule
   invariants, program generation, reordering, sharding and the analytic
   timeline. *)

open Elk_model
module P = Elk_partition.Partition

let ctx () = Lazy.force Tu.default_ctx
let graph () = Lazy.force Tu.tiny_llama_chip_graph
let sched () = Lazy.force Tu.tiny_schedule
let capacity () = Elk_arch.Arch.usable_sram_per_core (P.ctx_chip (ctx ()))

(* ------------------------------------------------------------------ *)
(* Alloc                                                              *)
(* ------------------------------------------------------------------ *)

let some_nodes k =
  let g = graph () in
  List.init k (fun i -> Graph.get g (i * 3 mod Graph.length g))

let test_alloc_empty_window () =
  let node = Graph.get (graph ()) 2 in
  match Elk.Alloc.allocate (ctx ()) ~capacity:(capacity ()) ~exec_op:node ~window:[] with
  | Some r ->
      Alcotest.(check bool) "fits" true (r.Elk.Alloc.total_space <= capacity ());
      Alcotest.(check bool) "positive time" true (r.Elk.Alloc.exec_time > 0.);
      Alcotest.(check int) "no window" 0 (List.length r.Elk.Alloc.window)
  | None -> Alcotest.fail "single op must fit"

let test_alloc_fits_capacity () =
  let node = Graph.get (graph ()) 2 in
  let window =
    List.map (fun (n : Graph.node) -> (n, P.fastest_plan (ctx ()) n.Graph.op)) (some_nodes 4)
  in
  match Elk.Alloc.allocate (ctx ()) ~capacity:(capacity ()) ~exec_op:node ~window with
  | Some r ->
      Alcotest.(check bool) "fits" true (r.Elk.Alloc.total_space <= capacity ());
      Alcotest.(check int) "window assignments" 4 (List.length r.Elk.Alloc.window)
  | None -> Alcotest.fail "should fit"

let test_alloc_impossible_capacity () =
  let node = Graph.get (graph ()) 2 in
  Alcotest.(check bool) "tiny capacity fails" true
    (Elk.Alloc.allocate (ctx ()) ~capacity:16. ~exec_op:node ~window:[] = None)

let test_alloc_shrinks_under_pressure () =
  (* With a big window, the executing op's chosen plan cannot be larger
     than with no window. *)
  let node = Graph.get (graph ()) 2 in
  let c = ctx () in
  let window =
    List.map (fun (n : Graph.node) -> (n, P.fastest_plan c n.Graph.op)) (some_nodes 8)
  in
  match
    ( Elk.Alloc.allocate c ~capacity:(capacity ()) ~exec_op:node ~window:[],
      Elk.Alloc.allocate c ~capacity:(capacity ()) ~exec_op:node ~window )
  with
  | Some free, Some tight ->
      Alcotest.(check bool) "no faster under pressure" true
        (tight.Elk.Alloc.exec_time >= free.Elk.Alloc.exec_time -. 1e-12)
  | _ -> Alcotest.fail "both should fit"

let test_alloc_objective_consistent () =
  let node = Graph.get (graph ()) 2 in
  match Elk.Alloc.allocate (ctx ()) ~capacity:(capacity ()) ~exec_op:node ~window:[] with
  | Some r ->
      Tu.check_rel "objective = exec + dists" ~tolerance:1e-9 r.Elk.Alloc.exec_time r.Elk.Alloc.objective
  | None -> Alcotest.fail "must fit"

let test_min_preload_space_positive_for_weights () =
  let g = graph () in
  let heavy = Graph.hbm_heavy_ids g in
  List.iter
    (fun id ->
      Alcotest.(check bool) "positive" true
        (Elk.Alloc.min_preload_space (ctx ()) (Graph.get g id) > 0.))
    heavy

(* The allocator's inputs at step [i] of a scheduled plan: the operators
   issued but not yet executed, in preload order, with their scheduled
   plans. *)
let real_window (s : Elk.Schedule.t) i =
  let issued = Elk.Residency.issued_counts s in
  List.filter_map
    (fun k ->
      let w = s.Elk.Schedule.order.(k) in
      if w > i then
        Some (Graph.get s.Elk.Schedule.graph w, s.Elk.Schedule.entries.(w).Elk.Schedule.plan)
      else None)
    (List.init issued.(i) Fun.id)

let test_alloc_total_is_window_fold () =
  (* [total_space] is the left-to-right sum, execute state first and then
     the window in order, bit for bit: the capacity check must see the
     same float the bump-packed extent would. *)
  List.iter
    (fun (topo, c, s) ->
      let s = Lazy.force s and c = Lazy.force c in
      let cap = Elk_arch.Arch.usable_sram_per_core (P.ctx_chip c) in
      let checked = ref 0 in
      for i = 0 to Elk.Schedule.num_ops s - 1 do
        let window = real_window s i in
        if window <> [] then
          match
            Elk.Alloc.allocate c ~capacity:cap ~exec_op:(Graph.get s.Elk.Schedule.graph i)
              ~window
          with
          | None -> ()
          | Some r ->
              incr checked;
              Alcotest.(check (list int))
                (topo ^ ": window order kept")
                (List.map (fun ((n : Graph.node), _) -> n.Graph.id) window)
                (List.map fst r.Elk.Alloc.window);
              let fold =
                List.fold_left
                  (fun a (_, o) -> a +. o.P.preload_space)
                  r.Elk.Alloc.exec_plan.P.exec_space r.Elk.Alloc.window
              in
              Alcotest.(check int64)
                (Printf.sprintf "%s: step %d total bits" topo i)
                (Int64.bits_of_float fold)
                (Int64.bits_of_float r.Elk.Alloc.total_space)
      done;
      Alcotest.(check bool) (topo ^ ": some non-empty windows checked") true (!checked > 0))
    [ ("a2a", Tu.default_ctx, Tu.tiny_schedule); ("mesh", Tu.mesh_ctx, Tu.mesh_schedule) ]

(* A context with private, empty memo tables over the default cost
   model. *)
let private_ctx () =
  let was = P.memo_sharing () in
  P.set_memo_sharing false;
  Fun.protect
    ~finally:(fun () -> P.set_memo_sharing was)
    (fun () -> P.make_ctx (P.ctx_cost (ctx ())))

let test_memo_ignores_names () =
  let c = private_ctx () in
  let a = Elk_tensor.Opspec.matmul ~name:"layer0.q" ~m:32 ~n:256 ~k:256 () in
  let b =
    {
      a with
      Elk_tensor.Opspec.name = "layer1.q";
      inputs =
        List.map
          (fun t -> { t with Elk_tensor.Opspec.t_name = "renamed" })
          a.Elk_tensor.Opspec.inputs;
    }
  in
  let plan = P.fastest_plan c a in
  ignore (P.preload_options c a plan);
  let sizes = P.memo_sizes c in
  Alcotest.(check bool) "memoized" true (fst sizes = 1 && snd sizes > 0);
  Alcotest.(check bool) "same frontier" true (P.exec_frontier c b == P.exec_frontier c a);
  Alcotest.(check bool) "same options" true
    (P.preload_options c b plan == P.preload_options c a plan);
  Alcotest.(check (pair int int)) "no new entries" sizes (P.memo_sizes c)

let test_memo_factors_scoped_per_op () =
  (* The same factor vector under two operators that differ only in
     dtype: the preload spaces differ, so the option entries must too. *)
  let c = private_ctx () in
  let fp16 = Elk_tensor.Opspec.matmul ~name:"h" ~m:32 ~n:256 ~k:256 () in
  let fp32 = { fp16 with Elk_tensor.Opspec.dtype = Elk_tensor.Dtype.Fp32 } in
  let plan16 = P.fastest_plan c fp16 in
  let plan32 =
    match P.plan_with_factors c fp32 plan16.P.factors with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let o16 = P.preload_options c fp16 plan16 in
  let _, popts = P.memo_sizes c in
  let o32 = P.preload_options c fp32 plan32 in
  Alcotest.(check bool) "fp32 options are their own" true
    (List.map (fun o -> o.P.preload_space) o32
    = List.map (fun o -> o.P.preload_space) (P.preload_options (private_ctx ()) fp32 plan32));
  Alcotest.(check bool) "and differ from fp16's" true
    (List.map (fun o -> o.P.preload_space) o16 <> List.map (fun o -> o.P.preload_space) o32);
  Alcotest.(check bool) "a new entry" true (snd (P.memo_sizes c) > popts)

let test_alloc_word_budget () =
  (* Deterministic allocation gate: once the memo is warm, one call on a
     real llama2-13b window (33 operators) builds no memo key and
     allocates nothing per descent step.  A capacity 5% under the
     unconstrained demand forces a descent.  Measured: 1881 words; with
     digest-keyed memo lookups and per-step packing it was 39113. *)
  let s = sched () in
  let c = ctx () in
  let exec_op = Graph.get s.Elk.Schedule.graph 2 and window = real_window s 2 in
  Alcotest.(check bool) "non-empty window" true (List.length window >= 16);
  let call capacity () = Elk.Alloc.allocate c ~capacity ~exec_op ~window in
  let total capacity =
    match call capacity () with
    | Some r -> r.Elk.Alloc.total_space
    | None -> Alcotest.fail "window must fit"
  in
  let tight = 0.95 *. total (capacity ()) in
  Alcotest.(check bool) "fits after descending" true (total tight <= tight);
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (call tight ()));
  let words = Gc.minor_words () -. before in
  if words > 2500. then
    Alcotest.failf "one allocate call allocated %.0f words (budget 2500)" words

(* The list-based allocator the horizon sweep replaced, kept verbatim in
   substance as the reference the sweep must reproduce bit for bit: one
   fresh participant array per call, the window as a list, the chosen
   combination packed into address intervals for the assertion. *)
module Ref_alloc = struct
  module A = Elk.Alloc

  type participant = { spaces : float array; times : float array; mutable idx : int }

  let participant (t : _ P.tradeoff) =
    { spaces = t.P.spaces; times = t.P.times; idx = Array.length t.P.spaces - 1 }

  let demand parts =
    let s = ref 0. in
    for k = 0 to Array.length parts - 1 do
      let p = parts.(k) in
      s := !s +. p.spaces.(p.idx)
    done;
    !s

  let steepest parts =
    let best = ref (-1) and best_d = ref 0. in
    for k = 0 to Array.length parts - 1 do
      let p = parts.(k) in
      if p.idx > 0 then begin
        let freed = p.spaces.(p.idx) -. p.spaces.(p.idx - 1) in
        let slower = Float.max 1e-12 (p.times.(p.idx - 1) -. p.times.(p.idx)) in
        let d = freed /. slower in
        if !best < 0 || not (!best_d >= d) then begin
          best := k;
          best_d := d
        end
      end
    done;
    !best

  let pack sized =
    let _, placed =
      List.fold_left
        (fun (base, acc) (a_op, a_kind, a_size) ->
          (base +. a_size, { A.a_op; a_kind; a_base = base; a_size } :: acc))
        (0., []) sized
    in
    List.rev placed

  let extent placed =
    List.fold_left (fun e a -> Float.max e (a.A.a_base +. a.A.a_size)) 0. placed

  let rec well_packed = function
    | [] -> true
    | a :: tl -> (not (List.exists (A.overlaps a) tl)) && well_packed tl

  let allocate_or_error ctx ~capacity ~exec_op ~window =
    let op_label () =
      Printf.sprintf "op %d (%s)" exec_op.Graph.id exec_op.Graph.op.Elk_tensor.Opspec.name
    in
    let exec = P.exec_tradeoff ctx exec_op.Graph.op in
    if Array.length exec.P.spaces = 0 then
      Error
        (Printf.sprintf
           "allocation infeasible for %s: no execute-state plan fits %.0f B/core SRAM"
           (op_label ()) capacity)
    else begin
      let n = List.length window in
      let ids = Array.make n 0 and opts = Array.make n [||] in
      let exec_part = participant exec in
      let parts = Array.make (n + 1) exec_part in
      List.iteri
        (fun k ((node : Graph.node), plan) ->
          let t = P.preload_tradeoff ctx node.Graph.op plan in
          ids.(k) <- node.Graph.id;
          opts.(k) <- t.P.payloads;
          parts.(k + 1) <- participant t)
        window;
      let rec descend () =
        demand parts <= capacity
        ||
        match steepest parts with
        | -1 -> false
        | k ->
            parts.(k).idx <- parts.(k).idx - 1;
            descend ()
      in
      if not (descend ()) then
        let total = demand parts in
        Error
          (Printf.sprintf
             "allocation infeasible for %s: minimal demand %.0f B/core (execute \
              state + %d overlapping preloads) exceeds %.0f B/core SRAM by %.0f B"
             (op_label ()) total n capacity (total -. capacity))
      else begin
        let exec_plan = exec.P.payloads.(exec_part.idx) in
        let chosen_window = List.init n (fun k -> (ids.(k), opts.(k).(parts.(k + 1).idx))) in
        let total = demand parts in
        let packed =
          pack
            (List.init (n + 1) (fun k ->
                 let p = parts.(k) in
                 if k = 0 then (exec_op.Graph.id, Elk.Residency.Exec, p.spaces.(p.idx))
                 else (ids.(k - 1), Elk.Residency.Preload, p.spaces.(p.idx))))
        in
        assert (well_packed packed && extent packed = total);
        let chip = P.ctx_chip ctx in
        let link_bw = chip.Elk_arch.Arch.intercore_link.Elk_arch.Arch.bandwidth in
        let cores = float_of_int chip.Elk_arch.Arch.cores in
        let inject_total =
          List.fold_left (fun a (_, o) -> a +. o.P.noc_inject_bytes) 0. chosen_window
        in
        let inject_overlap_pc =
          Float.min (inject_total /. cores)
            (chip.Elk_arch.Arch.hbm_bandwidth /. cores *. exec_plan.P.exec_time)
        in
        let exchange_pc = exec_plan.P.exchange_bytes_per_core in
        let port_service = (inject_overlap_pc +. exchange_pc) /. link_bw in
        let contention = Float.max 0. (port_service -. exec_plan.P.exec_time) in
        let dist_total =
          List.fold_left (fun a (_, o) -> a +. P.preload_overhead o) 0. chosen_window
        in
        Ok
          {
            A.exec_plan;
            window = chosen_window;
            exec_time = exec_plan.P.exec_time +. contention;
            objective = exec_plan.P.exec_time +. contention +. dist_total;
            total_space = total;
            contention;
          }
      end
    end
end

(* Every float of an allocation result, printed with [%h] so equality is
   bitwise. *)
let result_bits (r : Elk.Alloc.result) =
  let opt (id, (o : P.preload_opt)) =
    Printf.sprintf "%d:%h/%h/%h/%h/%h/%h/%h/%h" id o.P.frac o.P.preload_space
      o.P.dist_bytes_per_core o.P.dist_time o.P.hbm_device_bytes o.P.noc_inject_bytes
      o.P.preload_len o.P.hbm_floor
  in
  Printf.sprintf "plan=%s exec=%h total=%h time=%h cont=%h obj=%h window=[%s]"
    (String.concat "," (Array.to_list (Array.map string_of_int r.Elk.Alloc.exec_plan.P.factors)))
    r.Elk.Alloc.exec_plan.P.exec_time r.Elk.Alloc.total_space r.Elk.Alloc.exec_time
    r.Elk.Alloc.contention r.Elk.Alloc.objective
    (String.concat " " (List.map opt r.Elk.Alloc.window))

let outcome_bits = function Ok r -> "ok " ^ result_bits r | Error msg -> "error " ^ msg

let take k l = List.filteri (fun j _ -> j < k) l

let test_sweep_matches_reference =
  (* A real scheduler window (a2a or mesh), a random prefix of it as the
     candidate horizon, and a random capacity between the prefix's
     smallest and largest demand (a little past both ends), so most cases
     descend.  The sweep holds the whole window and first solves a
     different prefix, so a solve that kept state from the previous one
     would show. *)
  let gen =
    QCheck2.Gen.(
      tup5 bool (int_bound 1_000_000) (int_bound 1_000_000) (int_bound 1_000_000)
        (float_range (-0.05) 1.05))
  in
  let prop (mesh, step, prefix, other, cap_pos) =
    let c, s =
      if mesh then (Lazy.force Tu.mesh_ctx, Lazy.force Tu.mesh_schedule)
      else (ctx (), sched ())
    in
    let g = s.Elk.Schedule.graph in
    let i = step mod Elk.Schedule.num_ops s in
    let window = real_window s i in
    let n = List.length window in
    let upto = prefix mod (n + 1) and other = other mod (n + 1) in
    let exec_op = Graph.get g i in
    let demand pick =
      List.fold_left
        (fun a ((node : Graph.node), plan) ->
          a +. pick (P.preload_tradeoff c node.Graph.op plan).P.spaces)
        (pick (P.exec_tradeoff c exec_op.Graph.op).P.spaces)
        (take upto window)
    in
    let lo = demand (fun a -> a.(0)) and hi = demand (fun a -> a.(Array.length a - 1)) in
    let capacity = lo +. (cap_pos *. (hi -. lo)) in
    let expected =
      outcome_bits (Ref_alloc.allocate_or_error c ~capacity ~exec_op ~window:(take upto window))
    in
    let sw = Elk.Alloc.sweep c ~capacity ~exec_op in
    List.iter (fun ((node : Graph.node), plan) -> Elk.Alloc.push sw node plan) window;
    ignore (Elk.Alloc.solve sw ~upto:other);
    let solved = Elk.Alloc.solve sw ~upto in
    let accessors_agree =
      (not solved)
      ||
      match Elk.Alloc.result sw ~upto with
      | None -> false
      | Some r ->
          Elk.Alloc.exec_plan sw == r.Elk.Alloc.exec_plan
          && Int64.bits_of_float (Elk.Alloc.total_space sw)
             = Int64.bits_of_float r.Elk.Alloc.total_space
          && Int64.bits_of_float (Elk.Alloc.exec_time sw)
             = Int64.bits_of_float r.Elk.Alloc.exec_time
    in
    let swept =
      match Elk.Alloc.result sw ~upto with
      | Some r -> "ok " ^ result_bits r
      | None -> (
          (* The message comes from the one-shot wrapper over the same
             descent. *)
          match Elk.Alloc.allocate_or_error c ~capacity ~exec_op ~window:(take upto window) with
          | Ok _ -> "ok from one-shot, None from the sweep"
          | Error msg -> "error " ^ msg)
    in
    let one_shot =
      outcome_bits (Elk.Alloc.allocate_or_error c ~capacity ~exec_op ~window:(take upto window))
    in
    if solved <> String.starts_with ~prefix:"ok" expected then
      QCheck2.Test.fail_reportf "solve says %b, reference %s" solved expected;
    if not accessors_agree then QCheck2.Test.fail_report "accessors disagree with result";
    if swept <> expected then QCheck2.Test.fail_reportf "sweep:\n%s\nreference:\n%s" swept expected;
    if one_shot <> expected then
      QCheck2.Test.fail_reportf "allocate_or_error:\n%s\nreference:\n%s" one_shot expected;
    true
  in
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 16 |])
    (QCheck2.Test.make ~count:300 ~name:"alloc: sweep matches the list allocator" gen prop)

let test_scheduler_word_budget () =
  (* Deterministic allocation gate on a whole backward induction: one warm
     [Scheduler.run] with the compile cache off, so no suffix memo skips
     the allocator.  Measured: 75,698 minor words with one allocator sweep
     per induction step; 891,896 with one list-building allocator call per
     candidate horizon. *)
  let c = ctx () and g = graph () in
  let was = Elk.Compilecache.enabled () in
  Elk.Compilecache.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Elk.Compilecache.set_enabled was)
    (fun () ->
      ignore (Elk.Scheduler.run c g);
      let before = Gc.minor_words () in
      ignore (Sys.opaque_identity (Elk.Scheduler.run c g));
      let words = Gc.minor_words () -. before in
      let budget = 150_000. in
      if words > budget then
        Alcotest.failf "one Scheduler.run allocated %.0f words (budget %.0f)" words budget)

(* MD5 of the [elk compile --save-plan] text (plan plus address layout)
   for zoo models at the CLI defaults (scale 8, layer factor 10, batch
   32, ctx 256).  Recorded with the list-based allocator; llama2-13b and
   opt-30b on the mesh backtrack in the horizon search.  A hot-path change that
   moves any plan fails here. *)
let pinned_plans =
  [
    (Elk_model.Zoo.llama2_13b, "mesh", "f132391e3ab9aa3e5cf2c39711232892");
    (Elk_model.Zoo.dit_xl, "a2a", "40c1fd66b75a59d27623ee0bbda93657");
    (Elk_model.Zoo.opt_30b, "mesh", "0f3d5f11f5d6904e12832b703eb9c9ee");
    (Elk_model.Zoo.mixtral_8x7b, "a2a", "3ea2cde27fc4fcd8ab653bdaedf55339");
  ]

let test_plan_digests_pinned () =
  let a2a = lazy (Elk_dse.Dse.env ()) and mesh = lazy (Elk_dse.Dse.env ~topology:`Mesh ()) in
  List.iter
    (fun (cfg, topo, digest) ->
      let g =
        Elk_model.Zoo.build
          (Elk_model.Zoo.scale cfg ~factor:8 ~layer_factor:10)
          (Elk_model.Zoo.Decode { batch = 32; ctx = 256 })
      in
      let env = Lazy.force (if topo = "mesh" then mesh else a2a) in
      let c = Elk.Compile.compile env.Elk_dse.Dse.ctx ~pod:env.Elk_dse.Dse.pod g in
      let s = c.Elk.Compile.schedule in
      let text = Elk.Planio.export ~layout:(Elk.Alloc.layout_of_schedule s) s in
      Alcotest.(check string)
        (cfg.Elk_model.Zoo.cfg_name ^ " " ^ topo)
        digest
        (Digest.to_hex (Digest.string text)))
    pinned_plans

(* ------------------------------------------------------------------ *)
(* Scheduler + Schedule                                               *)
(* ------------------------------------------------------------------ *)

let test_schedule_validates () =
  match Elk.Schedule.validate (sched ()) with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let test_schedule_windows_sum () =
  let s = sched () in
  Alcotest.(check int) "sum = N"
    (Elk.Schedule.num_ops s)
    (Array.fold_left ( + ) 0 s.Elk.Schedule.windows)

let test_schedule_entries_indexed () =
  let s = sched () in
  Array.iteri
    (fun i e -> Alcotest.(check int) "node id" i e.Elk.Schedule.node_id)
    s.Elk.Schedule.entries

let test_schedule_positive_estimate () =
  Alcotest.(check bool) "positive" true ((sched ()).Elk.Schedule.est_total > 0.)

let test_scheduler_preloads_ahead () =
  (* The whole point of §4.2: at least one window must cover several
     preloads, otherwise there is no overlap at all. *)
  let pn = Elk.Scheduler.preload_numbers (sched ()) in
  Alcotest.(check bool) "some window > 1" true (Array.exists (fun p -> p > 1) pn)

let test_scheduler_entry_spaces_fit () =
  let s = sched () in
  Array.iter
    (fun e ->
      Alcotest.(check bool) "exec space fits" true
        (e.Elk.Schedule.plan.P.exec_space <= capacity ()))
    s.Elk.Schedule.entries

let test_scheduler_rejects_bad_order () =
  let g = graph () in
  let n = Graph.length g in
  Alcotest.(check bool) "length" true
    (try
       ignore (Elk.Scheduler.run ~order:[| 0 |] (ctx ()) g);
       false
     with Elk.Scheduler.Infeasible _ -> true);
  let dup = Array.init n (fun _ -> 0) in
  Alcotest.(check bool) "not a permutation" true
    (try
       ignore (Elk.Scheduler.run ~order:dup (ctx ()) g);
       false
     with Elk.Scheduler.Infeasible _ -> true)

let test_scheduler_empty_graph () =
  let g = Graph.finish (Graph.builder ~name:"empty") in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Elk.Scheduler.run (ctx ()) g);
       false
     with Elk.Scheduler.Infeasible _ -> true)

let test_preload_step_mapping () =
  let s = sched () in
  let step = Elk.Schedule.preload_step s in
  let pos = Elk.Schedule.position_of s in
  Array.iteri
    (fun id p ->
      Alcotest.(check bool) "preloaded in time" true (step.(p) <= id))
    pos

(* ------------------------------------------------------------------ *)
(* Program                                                            *)
(* ------------------------------------------------------------------ *)

let test_program_valid () =
  let s = sched () in
  let p = Elk.Program.of_schedule s in
  match Elk.Program.validate p ~n:(Elk.Schedule.num_ops s) with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let test_program_length () =
  let s = sched () in
  let p = Elk.Program.of_schedule s in
  Alcotest.(check int) "2N instructions"
    (2 * Elk.Schedule.num_ops s)
    (Array.length p.Elk.Program.instrs)

let test_program_preload_order_matches () =
  let s = sched () in
  let p = Elk.Program.of_schedule s in
  Alcotest.(check (list int)) "order preserved"
    (Array.to_list s.Elk.Schedule.order)
    (Elk.Program.preload_order p)

let test_program_validate_rejects () =
  let bad = { Elk.Program.instrs = [| Elk.Program.Execute 0; Elk.Program.Preload_async 0 |] } in
  Alcotest.(check bool) "exec before preload" true (Elk.Program.validate bad ~n:1 <> Ok ());
  let dup =
    {
      Elk.Program.instrs =
        [| Elk.Program.Preload_async 0; Elk.Program.Preload_async 0; Elk.Program.Execute 0 |];
    }
  in
  Alcotest.(check bool) "double preload" true (Elk.Program.validate dup ~n:1 <> Ok ());
  let missing = { Elk.Program.instrs = [| Elk.Program.Preload_async 0 |] } in
  Alcotest.(check bool) "never executed" true (Elk.Program.validate missing ~n:1 <> Ok ());
  let out_of_order =
    {
      Elk.Program.instrs =
        [|
          Elk.Program.Preload_async 0; Elk.Program.Preload_async 1; Elk.Program.Execute 1;
          Elk.Program.Execute 0;
        |];
    }
  in
  Alcotest.(check bool) "exec order" true (Elk.Program.validate out_of_order ~n:2 <> Ok ())

(* ------------------------------------------------------------------ *)
(* Timeline                                                           *)
(* ------------------------------------------------------------------ *)

let test_timeline_basic_invariants () =
  let s = sched () in
  let tl = Elk.Timeline.evaluate (ctx ()) s in
  Alcotest.(check bool) "positive total" true (tl.Elk.Timeline.total > 0.);
  Array.iteri
    (fun i (ot : Elk.Timeline.op_times) ->
      Alcotest.(check bool) "pre interval" true (ot.Elk.Timeline.pre_end >= ot.Elk.Timeline.pre_start);
      Alcotest.(check bool) "exe interval" true (ot.Elk.Timeline.exe_end >= ot.Elk.Timeline.exe_start);
      Alcotest.(check bool) "preload before exec" true
        (ot.Elk.Timeline.pre_end <= ot.Elk.Timeline.exe_start +. 1e-12);
      if i > 0 then
        Alcotest.(check bool) "execs sequential" true
          (tl.Elk.Timeline.per_op.(i - 1).Elk.Timeline.exe_end <= ot.Elk.Timeline.exe_start +. 1e-12))
    tl.Elk.Timeline.per_op

let test_timeline_breakdown_sums () =
  let s = sched () in
  let tl = Elk.Timeline.evaluate (ctx ()) s in
  let b = tl.Elk.Timeline.bd in
  let covered =
    b.Elk.Timeline.preload_only +. b.Elk.Timeline.execute_only +. b.Elk.Timeline.overlapped
    +. b.Elk.Timeline.interconnect
  in
  Alcotest.(check bool) "covered <= total (idle possible)" true
    (covered <= tl.Elk.Timeline.total *. 1.001);
  Alcotest.(check bool) "all buckets nonneg" true
    (b.Elk.Timeline.preload_only >= 0. && b.Elk.Timeline.execute_only >= 0.
   && b.Elk.Timeline.overlapped >= 0. && b.Elk.Timeline.interconnect >= 0.)

let test_timeline_utilizations_sane () =
  let tl = Elk.Timeline.evaluate (ctx ()) (sched ()) in
  Alcotest.(check bool) "hbm in (0,1]" true
    (tl.Elk.Timeline.hbm_util > 0. && tl.Elk.Timeline.hbm_util <= 1.0001);
  Alcotest.(check bool) "noc in (0,1.2]" true
    (tl.Elk.Timeline.noc_util > 0. && tl.Elk.Timeline.noc_util <= 1.2);
  Alcotest.(check bool) "flops positive" true (tl.Elk.Timeline.achieved_flops > 0.)

let test_timeline_volumes_match_graph () =
  let s = sched () in
  let tl = Elk.Timeline.evaluate (ctx ()) s in
  (* Every byte of every HBM-resident tensor is read exactly once. *)
  Tu.check_rel "hbm volume" ~tolerance:0.02
    (Graph.total_hbm_bytes s.Elk.Schedule.graph)
    tl.Elk.Timeline.hbm_device_volume

(* ------------------------------------------------------------------ *)
(* Reorder                                                            *)
(* ------------------------------------------------------------------ *)

let test_kendall_tau () =
  Alcotest.(check int) "identity" 0 (Elk.Reorder.kendall_tau [ 1; 2; 3 ] [ 1; 2; 3 ]);
  Alcotest.(check int) "swap" 1 (Elk.Reorder.kendall_tau [ 2; 1; 3 ] [ 1; 2; 3 ]);
  Alcotest.(check int) "reverse" 3 (Elk.Reorder.kendall_tau [ 3; 2; 1 ] [ 1; 2; 3 ]);
  Alcotest.(check bool) "not perm raises" true
    (try
       ignore (Elk.Reorder.kendall_tau [ 1; 2 ] [ 1; 3 ]);
       false
     with Invalid_argument _ -> true)

let test_valid_suffix_orders_unconstrained () =
  (* With infinite capacity all H! orders are valid. *)
  let items = [ (0, 1.); (1, 1.); (2, 1.) ] in
  let orders = Elk.Reorder.valid_suffix_orders ~capacity:1e9 ~items () in
  Alcotest.(check int) "3! orders" 6 (List.length orders);
  List.iter
    (fun o -> Alcotest.(check (list int)) "permutation" [ 0; 1; 2 ] (List.sort compare o))
    orders

let test_valid_suffix_orders_capacity_prunes () =
  (* Fig 14's rule: with capacity for only 2 items, delaying the earliest
     op to the last preload slot would co-locate all 3. *)
  let items = [ (0, 1.); (1, 1.); (2, 1.) ] in
  let orders = Elk.Reorder.valid_suffix_orders ~capacity:2. ~items () in
  Alcotest.(check bool) "fewer than 6" true (List.length orders < 6);
  (* The identity order must always survive. *)
  Alcotest.(check bool) "identity valid" true (List.mem [ 0; 1; 2 ] orders);
  (* Placing op0 last means ops 1,2 preload before it: 3 co-resident. *)
  List.iter
    (fun o ->
      Alcotest.(check bool) "op0 not last" true (List.nth o 2 <> 0))
    orders

let test_valid_suffix_orders_tight_capacity () =
  let items = [ (0, 1.); (1, 1.); (2, 1.) ] in
  let orders = Elk.Reorder.valid_suffix_orders ~capacity:1. ~items () in
  Alcotest.(check (list (list int))) "only identity" [ [ 0; 1; 2 ] ] orders

let test_candidate_orders_contain_identity () =
  let g = graph () in
  let orders = Elk.Reorder.candidate_orders (ctx ()) g in
  Alcotest.(check bool) "nonempty" true (orders <> []);
  let identity = Array.init (Graph.length g) (fun i -> i) in
  Alcotest.(check bool) "identity first" true (List.hd orders = identity)

let test_candidate_orders_are_permutations () =
  let g = graph () in
  let n = Graph.length g in
  List.iter
    (fun o ->
      Alcotest.(check (list int)) "permutation"
        (List.init n (fun i -> i))
        (List.sort compare (Array.to_list o)))
    (Elk.Reorder.candidate_orders (ctx ()) g)

let test_candidate_orders_only_reorder_heavy () =
  let g = graph () in
  let heavy = Graph.hbm_heavy_ids g in
  List.iter
    (fun o ->
      Array.iteri
        (fun slot id ->
          if slot <> id then begin
            Alcotest.(check bool) "moved op is heavy" true (List.mem id heavy);
            Alcotest.(check bool) "slot belongs to a heavy op" true (List.mem slot heavy)
          end)
        o)
    (Elk.Reorder.candidate_orders (ctx ()) g)

let test_template_layer_heavy () =
  let g = graph () in
  let tpl = Elk.Reorder.template_layer_heavy g in
  Alcotest.(check bool) "nonempty on llama" true (tpl <> []);
  let layers =
    List.filter_map (fun id -> (Graph.get g id).Graph.layer) tpl |> List.sort_uniq compare
  in
  Alcotest.(check int) "single layer" 1 (List.length layers)

let test_scheduler_accepts_reordered () =
  let g = graph () in
  let c = ctx () in
  let orders = Elk.Reorder.candidate_orders c g in
  let tried = ref 0 in
  List.iteri
    (fun i o ->
      if i < 4 then
        try
          let s = Elk.Scheduler.run ~order:o c g in
          incr tried;
          match Elk.Schedule.validate s with
          | Ok () -> ()
          | Error m -> Alcotest.fail m
        with Elk.Scheduler.Infeasible _ -> ())
    orders;
  Alcotest.(check bool) "at least identity scheduled" true (!tried >= 1)

(* ------------------------------------------------------------------ *)
(* Sharding                                                           *)
(* ------------------------------------------------------------------ *)

let test_shard_identity_for_one_chip () =
  let g = Lazy.force Tu.tiny_llama in
  let s = Elk.Sharding.shard_graph ~chips:1 g in
  Alcotest.(check bool) "same graph" true (s == g)

let test_shard_reduces_hbm () =
  let g = Lazy.force Tu.tiny_llama in
  let s = Elk.Sharding.shard_graph ~chips:4 g in
  Tu.check_rel "~1/4 of the bytes" ~tolerance:0.15
    (Graph.total_hbm_bytes g /. 4.)
    (Graph.total_hbm_bytes s)

let test_shard_preserves_structure () =
  let g = Lazy.force Tu.tiny_llama in
  let s = Elk.Sharding.shard_graph ~chips:4 g in
  Alcotest.(check int) "same op count" (Graph.length g) (Graph.length s);
  Array.iter2
    (fun (a : Graph.node) (b : Graph.node) ->
      Alcotest.(check string) "role" a.Graph.role b.Graph.role;
      Alcotest.(check (list int)) "deps" a.Graph.deps b.Graph.deps)
    (Graph.nodes g) (Graph.nodes s)

let test_shard_replicates_norms () =
  let g = Lazy.force Tu.tiny_llama in
  let s = Elk.Sharding.shard_graph ~chips:4 g in
  Array.iter2
    (fun (a : Graph.node) (b : Graph.node) ->
      if a.Graph.role = "attn_norm" then
        Alcotest.(check bool) "norm unsharded" true
          (a.Graph.op.Elk_tensor.Opspec.iter = b.Graph.op.Elk_tensor.Opspec.iter))
    (Graph.nodes g) (Graph.nodes s)

let test_shard_matmul_n_dim () =
  let op = Elk_tensor.Opspec.matmul ~name:"m" ~m:8 ~n:64 ~k:32 () in
  let s = Elk.Sharding.shard_op ~chips:4 ~role:"q_proj" op in
  Alcotest.(check int) "n quartered" 16 s.Elk_tensor.Opspec.iter.(1);
  Alcotest.(check int) "m kept" 8 s.Elk_tensor.Opspec.iter.(0);
  Alcotest.(check int) "k kept" 32 s.Elk_tensor.Opspec.iter.(2)

let test_shard_small_dim_not_split () =
  let op = Elk_tensor.Opspec.matmul ~name:"m" ~m:8 ~n:2 ~k:32 () in
  let s = Elk.Sharding.shard_op ~chips:4 ~role:"q_proj" op in
  Alcotest.(check int) "n too small to shard" 2 s.Elk_tensor.Opspec.iter.(1)

let test_allreduce_volume () =
  let g = Lazy.force Tu.tiny_llama in
  let v = Elk.Sharding.allreduce_volume g in
  Alcotest.(check bool) "positive" true (v > 0.);
  (* Two reduced projections per layer + lm_head. *)
  let pod = Lazy.force Tu.default_pod in
  Alcotest.(check bool) "time positive" true (Elk.Sharding.allreduce_time pod g > 0.);
  let one = { pod with Elk_arch.Arch.chips = 1 } in
  Tu.check_float "single chip free" 0. (Elk.Sharding.allreduce_time one g)

let suite =
  [
    ("alloc: empty window", `Quick, test_alloc_empty_window);
    ("alloc: fits capacity", `Quick, test_alloc_fits_capacity);
    ("alloc: impossible capacity", `Quick, test_alloc_impossible_capacity);
    ("alloc: pressure slows exec", `Quick, test_alloc_shrinks_under_pressure);
    ("alloc: objective", `Quick, test_alloc_objective_consistent);
    ("alloc: min preload space", `Quick, test_min_preload_space_positive_for_weights);
    ("alloc: total is the window fold", `Quick, test_alloc_total_is_window_fold);
    ("alloc: memo ignores names", `Quick, test_memo_ignores_names);
    ("alloc: memo factors per op", `Quick, test_memo_factors_scoped_per_op);
    ("alloc: word budget", `Quick, test_alloc_word_budget);
    test_sweep_matches_reference;
    ("scheduler: word budget", `Quick, test_scheduler_word_budget);
    ("compile: plan digests pinned", `Quick, test_plan_digests_pinned);
    ("scheduler: schedule validates", `Quick, test_schedule_validates);
    ("scheduler: windows sum", `Quick, test_schedule_windows_sum);
    ("scheduler: entries indexed", `Quick, test_schedule_entries_indexed);
    ("scheduler: positive estimate", `Quick, test_schedule_positive_estimate);
    ("scheduler: preloads ahead", `Quick, test_scheduler_preloads_ahead);
    ("scheduler: exec spaces fit", `Quick, test_scheduler_entry_spaces_fit);
    ("scheduler: rejects bad orders", `Quick, test_scheduler_rejects_bad_order);
    ("scheduler: empty graph", `Quick, test_scheduler_empty_graph);
    ("schedule: preload-step mapping", `Quick, test_preload_step_mapping);
    ("program: validates", `Quick, test_program_valid);
    ("program: length 2N", `Quick, test_program_length);
    ("program: preload order", `Quick, test_program_preload_order_matches);
    ("program: validate rejects", `Quick, test_program_validate_rejects);
    ("timeline: invariants", `Quick, test_timeline_basic_invariants);
    ("timeline: breakdown", `Quick, test_timeline_breakdown_sums);
    ("timeline: utilizations", `Quick, test_timeline_utilizations_sane);
    ("timeline: hbm volume conserved", `Quick, test_timeline_volumes_match_graph);
    ("reorder: kendall tau", `Quick, test_kendall_tau);
    ("reorder: suffix orders free", `Quick, test_valid_suffix_orders_unconstrained);
    ("reorder: capacity prunes", `Quick, test_valid_suffix_orders_capacity_prunes);
    ("reorder: tight capacity", `Quick, test_valid_suffix_orders_tight_capacity);
    ("reorder: identity first", `Quick, test_candidate_orders_contain_identity);
    ("reorder: permutations", `Quick, test_candidate_orders_are_permutations);
    ("reorder: only heavy move", `Quick, test_candidate_orders_only_reorder_heavy);
    ("reorder: template layer", `Quick, test_template_layer_heavy);
    ("reorder: scheduler accepts", `Quick, test_scheduler_accepts_reordered);
    ("sharding: single chip identity", `Quick, test_shard_identity_for_one_chip);
    ("sharding: reduces hbm", `Quick, test_shard_reduces_hbm);
    ("sharding: preserves structure", `Quick, test_shard_preserves_structure);
    ("sharding: replicates norms", `Quick, test_shard_replicates_norms);
    ("sharding: matmul n dim", `Quick, test_shard_matmul_n_dim);
    ("sharding: small dims kept", `Quick, test_shard_small_dim_not_split);
    ("sharding: allreduce", `Quick, test_allreduce_volume);
  ]
