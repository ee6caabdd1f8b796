open Elk_partition
open Elk_tensor
open Elk_util

let ctx () = Lazy.force Tu.default_ctx
let mctx () = Lazy.force Tu.mesh_ctx

let test_signature_stable_across_layers () =
  let a = Opspec.matmul ~name:"l0.q" ~m:16 ~n:64 ~k:64 () in
  let b = Opspec.matmul ~name:"l7.q" ~m:16 ~n:64 ~k:64 () in
  Alcotest.(check string) "same signature" (Partition.plan_signature a)
    (Partition.plan_signature b);
  let c = Opspec.matmul ~name:"x" ~m:16 ~n:64 ~k:32 () in
  Alcotest.(check bool) "shape matters" true
    (Partition.plan_signature a <> Partition.plan_signature c)

let test_enumerate_nonempty_sorted () =
  let plans = Partition.enumerate (ctx ()) Tu.matmul_op in
  Alcotest.(check bool) "nonempty" true (plans <> []);
  let rec sorted = function
    | a :: (b :: _ as rest) -> a.Partition.exec_time <= b.Partition.exec_time && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted by time" true (sorted plans)

let test_plans_fit_constraints () =
  let c = ctx () in
  let chip = Partition.ctx_chip c in
  let sram = Elk_arch.Arch.usable_sram_per_core chip in
  List.iter
    (fun p ->
      Alcotest.(check bool) "cores bound" true
        (p.Partition.cores_used >= 1 && p.Partition.cores_used <= chip.Elk_arch.Arch.cores);
      Alcotest.(check bool) "fits sram" true (p.Partition.exec_space <= sram);
      Alcotest.(check bool) "tile covers" true
        (Array.for_all2 (fun t f -> t * f >= 32 || t * f >= 1) p.Partition.tile
           p.Partition.factors))
    (Partition.enumerate c Tu.matmul_op)

let test_tile_is_ceil_div () =
  List.iter
    (fun p ->
      Array.iteri
        (fun d f ->
          let e = Tu.matmul_op.Opspec.iter.(d) in
          Alcotest.(check int) "ceil division" ((e + f - 1) / f) p.Partition.tile.(d))
        p.Partition.factors)
    (Partition.enumerate (ctx ()) Tu.matmul_op)

let test_frontier_canonical () =
  let f = Partition.exec_frontier (ctx ()) Tu.matmul_op in
  Alcotest.(check bool) "nonempty" true (f <> []);
  Alcotest.(check bool) "canonical" true (Pareto.is_frontier f)

let test_fastest_plan () =
  (* [fastest_plan] minimizes exec time plus the plan's best preload
     overhead (so an execution-fast plan with a pathological preload state
     cannot win); it must come from the enumeration and be within 2x of
     the raw execution-time minimum. *)
  let c = ctx () in
  let plans = Partition.enumerate c Tu.matmul_op in
  let fastest = Partition.fastest_plan c Tu.matmul_op in
  Alcotest.(check bool) "member" true
    (List.exists (fun p -> p.Partition.factors = fastest.Partition.factors) plans);
  let raw_min =
    List.fold_left (fun a p -> Float.min a p.Partition.exec_time) infinity plans
  in
  Alcotest.(check bool) "near raw minimum" true (fastest.Partition.exec_time <= 2. *. raw_min)

let test_fastest_within () =
  let c = ctx () in
  let frontier = Partition.exec_frontier c Tu.matmul_op in
  let smallest = List.hd frontier in
  (match Partition.fastest_plan_within c Tu.matmul_op ~space:smallest.Pareto.x with
  | Some p -> Alcotest.(check bool) "fits budget" true (p.Partition.exec_space <= smallest.Pareto.x)
  | None -> Alcotest.fail "smallest frontier point must fit");
  Alcotest.(check bool) "tiny budget fails" true
    (Partition.fastest_plan_within c Tu.matmul_op ~space:1. = None)

let test_larger_space_not_slower () =
  (* Fig 5's core claim: the frontier trades space for time, so the
     biggest-space frontier plan is the fastest. *)
  let f = Partition.exec_frontier (ctx ()) Tu.matmul_op in
  let first = List.hd f and last = List.nth f (List.length f - 1) in
  Alcotest.(check bool) "more space faster" true (last.Pareto.y <= first.Pareto.y)

let test_mesh_restricts_split_dims () =
  let plans = Partition.enumerate (mctx ()) Tu.matmul_op in
  Alcotest.(check bool) "nonempty" true (plans <> []);
  List.iter
    (fun p ->
      let split = Array.fold_left (fun a f -> if f > 1 then a + 1 else a) 0 p.Partition.factors in
      Alcotest.(check bool) "at most 2 split dims" true (split <= 2))
    plans

let test_a2a_allows_more_dims () =
  let op = Opspec.batch_matmul ~name:"b" ~batch:8 ~m:8 ~n:64 ~k:64 () in
  let plans = Partition.enumerate (ctx ()) op in
  Alcotest.(check bool) "some plan splits 3 dims" true
    (List.exists
       (fun p ->
         Array.fold_left (fun a f -> if f > 1 then a + 1 else a) 0 p.Partition.factors >= 3)
       plans)

let test_memoization_hits () =
  let c = ctx () in
  let a = Opspec.matmul ~name:"x1" ~m:24 ~n:96 ~k:96 () in
  let b = Opspec.matmul ~name:"x2" ~m:24 ~n:96 ~k:96 () in
  let pa = Partition.enumerate c a and pb = Partition.enumerate c b in
  Alcotest.(check bool) "same list (memoized)" true (pa == pb)

let test_exchange_zero_when_unshared () =
  (* Partitioning only m slices the activation and shares the weight; a
     plan splitting only the n dim shares the activation instead.  A plan
     that splits nothing has no exchange. *)
  let c = ctx () in
  let op = Opspec.softmax ~name:"s" ~rows:256 ~cols:64 () in
  List.iter
    (fun p ->
      if Array.for_all2 (fun f e -> f = e || f = 1) p.Partition.factors op.Opspec.iter then
        ()
      else ();
      (* softmax input is indexed by both dims: never shared, no exchange
         from inputs; only reduction if cols split. *)
      if p.Partition.factors.(1) = 1 then
        Tu.check_float "row split has no exchange" 0. p.Partition.exchange_bytes_per_core)
    (Partition.enumerate c op)

let test_preload_options_pareto () =
  let c = ctx () in
  let plan = Partition.fastest_plan c Tu.matmul_op in
  let opts = Partition.preload_options c Tu.matmul_op plan in
  Alcotest.(check bool) "nonempty" true (opts <> []);
  let rec ascending = function
    | a :: (b :: _ as rest) ->
        a.Partition.preload_space <= b.Partition.preload_space && ascending rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted by space" true (ascending opts)

let test_preload_options_extremes () =
  let c = ctx () in
  let plan = Partition.fastest_plan c Tu.matmul_op in
  let opts = Partition.preload_options c Tu.matmul_op plan in
  let last = List.nth opts (List.length opts - 1) in
  (* Full broadcast: nothing left to distribute. *)
  Tu.check_float "full broadcast no dist" 0. last.Partition.dist_bytes_per_core;
  Tu.check_float "frac 1" 1. last.Partition.frac;
  let first = List.hd opts in
  if List.length opts > 1 then begin
    Alcotest.(check bool) "min space smaller" true
      (first.Partition.preload_space < last.Partition.preload_space);
    Alcotest.(check bool) "min space pays dist" true (first.Partition.dist_bytes_per_core > 0.)
  end

let test_preload_conservation () =
  (* preload_space + dist_bytes = execute-state resident bytes per core. *)
  let c = ctx () in
  let plan = Partition.fastest_plan c Tu.matmul_op in
  List.iter
    (fun o ->
      Tu.check_rel "space + dist = needed" ~tolerance:1e-9 plan.Partition.hbm_needed_per_core
        (o.Partition.preload_space +. o.Partition.dist_bytes_per_core))
    (Partition.preload_options c Tu.matmul_op plan)

let test_preload_device_bytes_constant () =
  let c = ctx () in
  let plan = Partition.fastest_plan c Tu.matmul_op in
  let opts = Partition.preload_options c Tu.matmul_op plan in
  let d = (List.hd opts).Partition.hbm_device_bytes in
  Tu.check_float "= weight bytes" (Opspec.hbm_bytes Tu.matmul_op) d;
  List.iter (fun o -> Tu.check_float "same device bytes" d o.Partition.hbm_device_bytes) opts

let test_preload_no_hbm_single_zero_option () =
  let c = ctx () in
  let op = Opspec.softmax ~name:"s" ~rows:64 ~cols:64 () in
  let plan = Partition.fastest_plan c op in
  match Partition.preload_options c op plan with
  | [ o ] ->
      Tu.check_float "no space" 0. o.Partition.preload_space;
      Tu.check_float "no len" 0. o.Partition.preload_len
  | other -> Alcotest.failf "expected 1 option, got %d" (List.length other)

let test_preload_len_at_least_floor () =
  let c = ctx () in
  let plan = Partition.fastest_plan c Tu.matmul_op in
  List.iter
    (fun o ->
      Alcotest.(check bool) "len >= floor" true
        (o.Partition.preload_len >= o.Partition.hbm_floor -. 1e-15))
    (Partition.preload_options c Tu.matmul_op plan)

let test_overhead_zero_somewhere () =
  (* Some option should be near the HBM floor with no dist: otherwise the
     op is pathologically interconnect-bound. *)
  let c = ctx () in
  let plan = Partition.fastest_plan c Tu.matmul_op in
  let best =
    List.fold_left
      (fun a o -> Float.min a (Partition.preload_overhead o))
      infinity
      (Partition.preload_options c Tu.matmul_op plan)
  in
  Alcotest.(check bool) "small best overhead" true (best < 1e-3)

let test_signature_digests_full_spec () =
  (* Regression: the pre-digest signature was a separator-joined concat
     of kind/iter/dims/dtype that ignored [flops_per_point] entirely —
     two pointwise ops of the same shape but different per-point cost
     collided and shared enumeration results.  The digest form must
     distinguish every field the cost model reads. *)
  let ew ?(flops = 1.) ?(dtype = Elk_tensor.Dtype.Fp16) name =
    Opspec.elementwise ~dtype ~flops_per_point:flops ~name ~kind:"silu"
      ~shape:[ 256; 64 ] ()
  in
  let a = ew "e1" in
  Alcotest.(check bool) "flops_per_point distinguishes" true
    (Partition.plan_signature a <> Partition.plan_signature (ew ~flops:4. "e2"));
  Alcotest.(check bool) "dtype distinguishes" true
    (Partition.plan_signature a
    <> Partition.plan_signature (ew ~dtype:Elk_tensor.Dtype.Fp32 "e3"));
  Alcotest.(check string) "name still ignored" (Partition.plan_signature a)
    (Partition.plan_signature (ew "renamed"));
  (* Fixed-length hex output: persistent cache keys embed the signature
     and rely on it never containing separators. *)
  Alcotest.(check int) "fixed-length digest" 32
    (String.length (Partition.plan_signature a));
  String.iter
    (fun c ->
      Alcotest.(check bool) "hex digest" true
        ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')))
    (Partition.plan_signature a)

let test_fingerprint_separates_topologies () =
  Alcotest.(check bool) "a2a and mesh contexts fingerprint apart" true
    (Partition.fingerprint (ctx ()) <> Partition.fingerprint (mctx ()))

let test_shared_memo_across_contexts () =
  let was = Partition.memo_sharing () in
  Partition.set_memo_sharing true;
  Fun.protect
    ~finally:(fun () ->
      Partition.set_memo_sharing was;
      Partition.reset_shared_memos ())
    (fun () ->
      Partition.reset_shared_memos ();
      let chip = (Lazy.force Tu.default_pod).Elk_arch.Arch.chip in
      let cost = Elk_cost.Costmodel.train ~samples_per_kind:60 chip in
      let c1 = Partition.make_ctx cost and c2 = Partition.make_ctx cost in
      Alcotest.(check string) "equal fingerprints" (Partition.fingerprint c1)
        (Partition.fingerprint c2);
      ignore (Partition.enumerate c1 Tu.matmul_op);
      let m2, _ = Partition.memo_sizes c2 in
      Alcotest.(check bool) "second context reuses first's enumeration" true
        (m2 > 0);
      (* Sharing off: a fresh context gets private empty tables. *)
      Partition.set_memo_sharing false;
      let c3 = Partition.make_ctx cost in
      let m3, _ = Partition.memo_sizes c3 in
      Alcotest.(check int) "private tables when sharing is off" 0 m3;
      (* Reset clears tables in place, so live contexts go cold too. *)
      Partition.set_memo_sharing true;
      Partition.reset_shared_memos ();
      let m1, _ = Partition.memo_sizes c1 in
      Alcotest.(check int) "reset empties live contexts" 0 m1)

(* The list-based enumeration the streaming walk replaced, kept verbatim
   in substance as the reference the memoized accessors must reproduce
   bit for bit: every factor vector materialised as an [int array] in a
   list, every vector costed before the SRAM filter, and the exec
   frontier read through every plan's full option list. *)
module Ref_partition = struct
  open Elk_arch
  module P = Partition

  let ceil_div a b = (a + b - 1) / b

  let dim_candidates ~extent ~cores =
    let bound = min extent cores in
    let acc = ref [] in
    let add v = if v >= 1 && v <= bound && not (List.mem v !acc) then acc := v :: !acc in
    add 1;
    let d = ref 1 in
    while !d * !d <= extent do
      if extent mod !d = 0 then begin
        add !d;
        add (extent / !d)
      end;
      incr d
    done;
    let p = ref 1 in
    while !p <= bound do
      add !p;
      p := !p * 2
    done;
    List.sort compare !acc

  let factor_vectors ~iter ~cores ~max_split_dims ~cap =
    let ndims = Array.length iter in
    let results = ref [] and count = ref 0 in
    let current = Array.make ndims 1 in
    let rec go dim prod split_dims =
      if !count >= cap then ()
      else if dim = ndims then begin
        results := Array.copy current :: !results;
        incr count
      end
      else
        List.iter
          (fun f ->
            if prod * f <= cores && (f = 1 || split_dims < max_split_dims) then begin
              current.(dim) <- f;
              go (dim + 1) (prod * f) (if f = 1 then split_dims else split_dims + 1);
              current.(dim) <- 1
            end)
          (dim_candidates ~extent:iter.(dim) ~cores)
    in
    go 0 1 0;
    !results

  let elem_size op = float_of_int (Elk_tensor.Dtype.size_bytes op.Opspec.dtype)

  let tensor_needed op tile (t : Opspec.tensor) =
    List.fold_left (fun a d -> a *. float_of_int tile.(d)) 1. t.Opspec.dims *. elem_size op

  let share_group factors (t : Opspec.tensor) =
    let g = ref 1 in
    Array.iteri (fun d f -> if not (List.mem d t.Opspec.dims) then g := !g * f) factors;
    !g

  let comm_hops chip =
    match chip.Arch.topology with
    | Arch.All_to_all -> 2
    | Arch.Clustered _ -> 3
    | Arch.Mesh2d _ -> 1

  let plan_of_factors chip cost (op : Opspec.t) factors =
    let tile = Array.mapi (fun i f -> ceil_div op.Opspec.iter.(i) f) factors in
    let tiles = Array.fold_left ( * ) 1 factors in
    let cores = chip.Arch.cores in
    let rounds = ceil_div tiles cores in
    let cores_used = min tiles cores in
    let froll = float_of_int rounds in
    let out_slice = tensor_needed op tile op.Opspec.output in
    let reduce_group = share_group factors op.Opspec.output in
    let input_needs =
      List.map (fun t -> (t, tensor_needed op tile t, share_group factors t)) op.Opspec.inputs
    in
    let act_slice =
      List.fold_left
        (fun a ((t : Opspec.tensor), need, _) ->
          match t.Opspec.source with Opspec.Activation -> a +. need | _ -> a)
        0. input_needs
    in
    let hbm_needed_round, max_g =
      List.fold_left
        (fun (acc, mg) ((t : Opspec.tensor), need, g) ->
          match t.Opspec.source with
          | Opspec.Weights | Opspec.Kv_cache -> (acc +. need, max mg g)
          | Opspec.Activation -> (acc, mg))
        (0., 1) input_needs
    in
    let exec_space =
      act_slice
      +. (hbm_needed_round *. froll)
      +. (out_slice *. if reduce_group > 1 then 2. else 1.)
    in
    let act_fetch =
      List.fold_left
        (fun a ((t : Opspec.tensor), need, g) ->
          match t.Opspec.source with
          | Opspec.Activation when g > 1 -> a +. (need *. float_of_int (g - 1) /. float_of_int g)
          | _ -> a)
        0. input_needs
    in
    let red_bytes =
      if reduce_group > 1 then
        out_slice *. float_of_int (reduce_group - 1) /. float_of_int reduce_group
      else 0.
    in
    let exchange = (act_fetch +. red_bytes) *. froll in
    let hops = comm_hops chip in
    let t_comm =
      if exchange > 0. then Elk_cost.Costmodel.predict_transfer cost ~hops ~bytes:exchange
      else 0.
    in
    let t_compute =
      froll *. Elk_cost.Costmodel.predict_exec cost ~kind:op.Opspec.kind ~iter:tile
    in
    {
      P.factors;
      tile;
      cores_used;
      exec_space;
      exec_time = t_compute +. t_comm;
      compute_time = t_compute;
      exchange_bytes_per_core = exchange;
      hbm_needed_per_core = hbm_needed_round *. froll;
      max_share_group = max_g;
    }

  let compute_plans chip cost ~max_plans (op : Opspec.t) =
    let cores = chip.Arch.cores in
    let max_split_dims =
      match chip.Arch.topology with
      | Arch.All_to_all | Arch.Clustered _ -> Array.length op.Opspec.iter
      | Arch.Mesh2d _ -> 2
    in
    let vectors =
      factor_vectors ~iter:op.Opspec.iter ~cores:(cores * 16) ~max_split_dims
        ~cap:(max_plans * 64)
    in
    let points =
      Array.fold_left (fun a e -> if a > cores then a else a * e) 1 op.Opspec.iter
    in
    let min_cores = min (max 1 (cores / 4)) points in
    let sram = Arch.usable_sram_per_core chip in
    let plans =
      List.filter_map
        (fun factors ->
          let cores_used = Array.fold_left ( * ) 1 factors in
          if cores_used < min_cores then None
          else
            let p = plan_of_factors chip cost op factors in
            if p.P.exec_space > sram then None else Some p)
        vectors
    in
    let table = Hashtbl.create 64 in
    List.iter
      (fun p ->
        let key = Array.to_list p.P.tile in
        match Hashtbl.find_opt table key with
        | Some q when q.P.exec_time <= p.P.exec_time -> ()
        | _ -> Hashtbl.replace table key p)
      plans;
    let deduped = Hashtbl.fold (fun _ p acc -> p :: acc) table [] in
    let sorted = List.sort (fun a b -> compare a.P.exec_time b.P.exec_time) deduped in
    List.filteri (fun i _ -> i < max_plans) sorted

  let compute_preload_options chip cost (op : Opspec.t) (plan : P.plan) =
    let hbm_inputs =
      List.filter
        (fun (t : Opspec.tensor) ->
          match t.Opspec.source with Opspec.Weights | Opspec.Kv_cache -> true | _ -> false)
        op.Opspec.inputs
    in
    if hbm_inputs = [] then
      [
        {
          P.frac = 1.;
          preload_space = 0.;
          dist_bytes_per_core = 0.;
          dist_time = 0.;
          hbm_device_bytes = 0.;
          noc_inject_bytes = 0.;
          preload_len = 0.;
          hbm_floor = 0.;
        };
      ]
    else begin
      let rounds = ceil_div (Array.fold_left ( * ) 1 plan.P.factors) chip.Arch.cores in
      let needs =
        List.map
          (fun t ->
            (tensor_needed op plan.P.tile t *. float_of_int rounds, share_group plan.P.factors t))
          hbm_inputs
      in
      let device_bytes =
        List.fold_left (fun a (t : Opspec.tensor) -> a +. Opspec.tensor_bytes op t) 0. hbm_inputs
      in
      let max_g = List.fold_left (fun a (_, g) -> max a g) 1 needs in
      let rec fracs acc f =
        if f *. float_of_int max_g <= 1.000001 then (1. /. float_of_int max_g) :: acc
        else fracs (f :: acc) (f /. 2.)
      in
      let candidates = List.sort_uniq compare (fracs [] 1.) in
      let hops = comm_hops chip in
      let hbm_floor = Elk_cost.Costmodel.hbm_time cost ~bytes:device_bytes in
      let link_bw = chip.Arch.intercore_link.Arch.bandwidth in
      let opts =
        List.map
          (fun frac ->
            let preload_space, dist_bytes, inject =
              List.fold_left
                (fun (ps, db, inj) (need, g) ->
                  let f = Float.max frac (1. /. float_of_int g) in
                  ( ps +. (need *. f),
                    db +. (need *. (1. -. f)),
                    inj +. (need *. f *. float_of_int plan.P.cores_used) ))
                (0., 0., 0.) needs
            in
            let dist_time =
              if dist_bytes > 0. then
                Elk_cost.Costmodel.predict_transfer cost ~hops ~bytes:dist_bytes
              else 0.
            in
            let preload_len =
              Float.max hbm_floor
                (Float.max (inject /. P.inject_rate chip) (preload_space /. link_bw))
            in
            {
              P.frac;
              preload_space;
              dist_bytes_per_core = dist_bytes;
              dist_time;
              hbm_device_bytes = device_bytes;
              noc_inject_bytes = inject;
              preload_len;
              hbm_floor;
            })
          candidates
      in
      let frontier =
        Pareto.frontier
          (List.map
             (fun o -> { Pareto.x = o.P.preload_space; y = P.preload_overhead o; payload = o })
             opts)
      in
      match frontier with
      | [] -> [ List.hd opts ]
      | pts -> List.map (fun p -> p.Pareto.payload) pts
    end

  let exec_frontier chip cost plans op =
    Pareto.frontier
      (List.map
         (fun p ->
           let overhead =
             List.fold_left
               (fun a o -> Float.min a (P.preload_overhead o))
               infinity
               (compute_preload_options chip cost op p)
           in
           let overhead = if overhead = infinity then 0. else overhead in
           { Pareto.x = p.P.exec_space; y = p.P.exec_time +. overhead; payload = p })
         plans)
end

let render_plan (p : Partition.plan) =
  Printf.sprintf "<%s> tile=%s cores=%d space=%h time=%h compute=%h exchange=%h hbm=%h g=%d"
    (String.concat "," (List.map string_of_int (Array.to_list p.Partition.factors)))
    (String.concat "x" (List.map string_of_int (Array.to_list p.Partition.tile)))
    p.Partition.cores_used p.Partition.exec_space p.Partition.exec_time
    p.Partition.compute_time p.Partition.exchange_bytes_per_core
    p.Partition.hbm_needed_per_core p.Partition.max_share_group

let render_opt (o : Partition.preload_opt) =
  Printf.sprintf "frac=%h space=%h dist=%h dist_t=%h dev=%h inject=%h len=%h floor=%h"
    o.Partition.frac o.Partition.preload_space o.Partition.dist_bytes_per_core
    o.Partition.dist_time o.Partition.hbm_device_bytes o.Partition.noc_inject_bytes
    o.Partition.preload_len o.Partition.hbm_floor

let render_point p = Printf.sprintf "(%h, %h) %s" p.Pareto.x p.Pareto.y (render_plan p.Pareto.payload)

(* [None] when every memoized accessor agrees with [Ref_partition] on
   [op], else the first disagreement. *)
let ref_mismatch c op =
  let chip = Partition.ctx_chip c and cost = Partition.ctx_cost c in
  let ref_plans = Ref_partition.compute_plans chip cost ~max_plans:512 op in
  let ref_frontier = Ref_partition.exec_frontier chip cost ref_plans op in
  let plans = Partition.enumerate c op in
  let t = Partition.exec_tradeoff c op in
  let tradeoff_points =
    List.init (Array.length t.Partition.spaces) (fun i ->
        { Pareto.x = t.Partition.spaces.(i); y = t.Partition.times.(i);
          payload = t.Partition.payloads.(i) })
  in
  let differ what render a b () =
    let a = List.map render a and b = List.map render b in
    if a = b then None
    else Some (Printf.sprintf "%s of %s:\n%s\nreference:\n%s" what
                 (Partition.plan_signature op) (String.concat "\n" a) (String.concat "\n" b))
  in
  List.find_map
    (fun check -> check ())
    (differ "enumerate" render_plan plans ref_plans
    :: differ "exec_frontier" render_point (Partition.exec_frontier c op) ref_frontier
    :: differ "exec_tradeoff" render_point tradeoff_points ref_frontier
    :: List.map
         (fun p ->
           differ
             ("preload_options " ^ render_plan p)
             render_opt (Partition.preload_options c op p)
             (Ref_partition.compute_preload_options chip cost op p))
         plans)

(* Random operators: up to four iteration dimensions, extents that are
   small, powers of two or awkward, one to three inputs indexed by random
   dimension subsets from every source, every dtype size. *)
let gen_opspec =
  let open QCheck2.Gen in
  let* n = int_range 1 4 in
  let extent = oneof [ int_range 1 48; map (fun k -> 1 lsl k) (int_range 0 10); int_range 1 3000 ] in
  let* iter = array_size (return n) extent in
  let subset =
    map
      (fun bits -> List.filter (fun d -> bits land (1 lsl d) <> 0) (List.init n Fun.id))
      (int_bound ((1 lsl n) - 1))
  in
  let input i =
    map2
      (fun dims source -> { Opspec.t_name = "in" ^ string_of_int i; dims; source })
      subset
      (oneofl [ Opspec.Weights; Opspec.Kv_cache; Opspec.Activation ])
  in
  let* ninputs = int_range 1 3 in
  let* inputs = flatten_l (List.init ninputs input) in
  let* output = map (fun dims -> { Opspec.t_name = "out"; dims; source = Opspec.Activation }) subset in
  let* kind = oneofl [ "matmul"; "batch_matmul"; "softmax"; "silu"; "custom" ] in
  let* dtype = oneofl Elk_tensor.Dtype.[ Fp32; Fp16; Bf16; Int8 ] in
  let+ flops_per_point = oneofl [ 0.5; 1.; 2.; 5. ] in
  { Opspec.name = "q"; kind; iter; inputs; output; flops_per_point; dtype }

(* The default chip with links that move 5e-324 B/s: preload lengths
   overflow to infinity and transfer predictions turn NaN, so the
   fallbacks for options without a finite overhead run. *)
let slow_link_ctx =
  lazy
    (let chip = (Lazy.force Tu.default_pod).Elk_arch.Arch.chip in
     let link = { chip.Elk_arch.Arch.intercore_link with Elk_arch.Arch.bandwidth = 5e-324 } in
     Partition.make_ctx
       (Elk_cost.Costmodel.train ~samples_per_kind:60
          { chip with Elk_arch.Arch.intercore_link = link }))

let qcheck_matches_reference =
  let chips = [ ("a2a", ctx); ("mesh", mctx); ("slow-link", fun () -> Lazy.force slow_link_ctx) ] in
  let prop ((_, c), op) =
    match ref_mismatch (c ()) op with
    | None -> true
    | Some m -> QCheck2.Test.fail_report m
  in
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 18 |])
    (QCheck2.Test.make ~count:200 ~name:"partition: matches the list enumeration"
       ~print:(fun ((chip, _), op) -> chip ^ " " ^ Partition.plan_signature op)
       QCheck2.Gen.(pair (oneofl chips) gen_opspec)
       prop)

(* Every distinct chip-graph operator of the zoo at the CLI defaults
   (scale 8, layer factor 10, batch 32, context 256) on both topologies. *)
let test_zoo_matches_reference () =
  let chips = (Lazy.force Tu.default_pod).Elk_arch.Arch.chips in
  let seen = Hashtbl.create 256 in
  List.iter
    (fun cfg ->
      let g =
        Elk.Sharding.shard_graph ~chips
          (Elk_model.Zoo.build
             (Elk_model.Zoo.scale cfg ~factor:8 ~layer_factor:10)
             (Elk_model.Zoo.Decode { batch = 32; ctx = 256 }))
      in
      Array.iter
        (fun (node : Elk_model.Graph.node) ->
          let op = node.Elk_model.Graph.op in
          let key = Partition.plan_signature op in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.add seen key ();
            List.iter
              (fun c ->
                match ref_mismatch c op with
                | None -> ()
                | Some m -> Alcotest.failf "%s: %s" op.Opspec.name m)
              [ ctx (); mctx () ]
          end)
        (Elk_model.Graph.nodes g))
    Elk_model.Zoo.all;
  Alcotest.(check bool) "zoo operators covered" true (Hashtbl.length seen > 50)

let qcheck_enumerate_valid =
  Tu.qtest ~count:25 "partition: random matmuls produce consistent plans"
    QCheck2.Gen.(triple (int_range 1 64) (int_range 8 512) (int_range 8 512))
    (fun (m, n, k) ->
      let op = Opspec.matmul ~name:"q" ~m ~n ~k () in
      let c = ctx () in
      let cores = (Partition.ctx_chip c).Elk_arch.Arch.cores in
      List.for_all
        (fun p ->
          p.Partition.exec_time > 0.
          && p.Partition.exec_space > 0.
          && p.Partition.cores_used
             = min cores (Array.fold_left ( * ) 1 p.Partition.factors))
        (Partition.enumerate c op))

let test_cold_word_budget () =
  (* Deterministic allocation gate on cold enumeration: the exec tradeoff
     of every distinct chip-graph operator of llama2-13b (CLI defaults:
     scale 8, layer factor 10, batch 32, context 256; 15 distinct of 87)
     on a private context with empty memo tables.  Measured: 531,493
     minor words with the streamed factor walk, scalar frontier overheads
     and preload options left to the first request; 2,207,105 with
     materialised factor vectors, every vector costed and every plan's
     options memoized. *)
  let chips = (Lazy.force Tu.default_pod).Elk_arch.Arch.chips in
  let g =
    Elk.Sharding.shard_graph ~chips
      (Elk_model.Zoo.build
         (Elk_model.Zoo.scale Elk_model.Zoo.llama2_13b ~factor:8 ~layer_factor:10)
         (Elk_model.Zoo.Decode { batch = 32; ctx = 256 }))
  in
  let was = Partition.memo_sharing () in
  Partition.set_memo_sharing false;
  let c =
    Fun.protect
      ~finally:(fun () -> Partition.set_memo_sharing was)
      (fun () -> Partition.make_ctx (Partition.ctx_cost (ctx ())))
  in
  let before = Gc.minor_words () in
  Array.iter
    (fun (node : Elk_model.Graph.node) ->
      ignore (Sys.opaque_identity (Partition.exec_tradeoff c node.Elk_model.Graph.op)))
    (Elk_model.Graph.nodes g);
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "distinct operators" 15 (fst (Partition.memo_sizes c));
  let budget = 800_000. in
  if words > budget then
    Alcotest.failf "cold exec_tradeoff allocated %.0f words (budget %.0f)" words budget

let suite =
  [
    ("partition: signatures", `Quick, test_signature_stable_across_layers);
    ("partition: enumerate sorted", `Quick, test_enumerate_nonempty_sorted);
    ("partition: plan constraints", `Quick, test_plans_fit_constraints);
    ("partition: ceil-div tiles", `Quick, test_tile_is_ceil_div);
    ("partition: frontier canonical", `Quick, test_frontier_canonical);
    ("partition: fastest plan", `Quick, test_fastest_plan);
    ("partition: fastest within budget", `Quick, test_fastest_within);
    ("partition: space-time tradeoff", `Quick, test_larger_space_not_slower);
    ("partition: mesh split limit", `Quick, test_mesh_restricts_split_dims);
    ("partition: a2a full splits", `Quick, test_a2a_allows_more_dims);
    ("partition: memoization", `Quick, test_memoization_hits);
    ("partition: unshared no exchange", `Quick, test_exchange_zero_when_unshared);
    ("partition: popt pareto", `Quick, test_preload_options_pareto);
    ("partition: popt extremes", `Quick, test_preload_options_extremes);
    ("partition: popt conservation", `Quick, test_preload_conservation);
    ("partition: device bytes constant", `Quick, test_preload_device_bytes_constant);
    ("partition: no-hbm zero option", `Quick, test_preload_no_hbm_single_zero_option);
    ("partition: len above floor", `Quick, test_preload_len_at_least_floor);
    ("partition: reachable floor", `Quick, test_overhead_zero_somewhere);
    ("partition: signature digests full spec", `Quick, test_signature_digests_full_spec);
    ("partition: fingerprint separates topologies", `Quick,
     test_fingerprint_separates_topologies);
    ("partition: shared memo across contexts", `Quick, test_shared_memo_across_contexts);
    qcheck_enumerate_valid;
    qcheck_matches_reference;
    ("partition: zoo matches the list enumeration", `Quick, test_zoo_matches_reference);
    ("partition: word budget", `Quick, test_cold_word_budget);
  ]
