open Elk_arch
module P = Elk_partition.Partition

type op_times = {
  pre_start : float;
  pre_end : float;
  exe_start : float;
  exe_end : float;
}

type breakdown = {
  preload_only : float;
  execute_only : float;
  overlapped : float;
  interconnect : float;
}

type result = {
  total : float;
  bd : breakdown;
  hbm_util : float;
  noc_util : float;
  intercore_volume : float;
  inject_volume : float;
  hbm_device_volume : float;
  achieved_flops : float;
  per_op : op_times array;
}

(* Measure of the intersection of two interval unions (both lists may
   overlap internally; we clip each pair). *)
let intersection_measure xs ys =
  let pieces =
    List.concat_map
      (fun (a, b) ->
        List.filter_map
          (fun (c, d) ->
            let lo = Float.max a c and hi = Float.min b d in
            if hi > lo then Some (lo, hi) else None)
          ys)
      xs
  in
  Elk_util.Series.union_measure pieces

let evaluate ctx (s : Schedule.t) =
  (match Schedule.validate s with
  | Ok () -> ()
  | Error m -> invalid_arg ("Timeline.evaluate: " ^ m));
  let n = Schedule.num_ops s in
  let chip = P.ctx_chip ctx in
  let agg_bw = Arch.aggregate_intercore_bw chip in
  let link_bw = chip.Arch.intercore_link.Arch.bandwidth in
  let cores = float_of_int chip.Arch.cores in
  let step = Schedule.preload_step s in
  let pre_start = Array.make n 0. and pre_end = Array.make n 0. in
  let exe_start = Array.make n 0. and exe_end = Array.make n 0. in
  let stall_total = ref 0. in
  (* Preload positions are processed lazily as execution advances: a
     position in window [w] is gated by the end of execution step [w-1]
     (no gate for the initial batch and window 1). *)
  let cursor = ref 0 in
  let pre_channel_free = ref 0. in
  let issue_up_to max_step exec_end_of =
    while
      !cursor < n
      && step.(!cursor) <= max_step
    do
      let op = s.Schedule.order.(!cursor) in
      let w = step.(!cursor) in
      let gate = if w <= 1 then 0. else exec_end_of (w - 2) in
      let st = Float.max !pre_channel_free gate in
      pre_start.(op) <- st;
      pre_end.(op) <- st +. s.Schedule.entries.(op).Schedule.preload_len;
      pre_channel_free := pre_end.(op);
      incr cursor
    done
  in
  for i = 0 to n - 1 do
    (* Issue every preload belonging to windows up to the current exec
       step (window index i+1). *)
    issue_up_to (i + 1) (fun j -> exe_end.(j));
    let entry = s.Schedule.entries.(i) in
    let prev_end = if i = 0 then 0. else exe_end.(i - 1) in
    let start = Float.max prev_end pre_end.(i) in
    let base_span = entry.Schedule.dist_time +. entry.Schedule.plan.P.exec_time in
    (* Interconnect contention is a per-core port phenomenon: during this
       span each core's ports must serve its own exchange and distribution
       (already serialized inside [base_span]) plus its share of preload
       injection from overlapping preloads; the excess over the span
       stalls execution. *)
    let port_busy_pc =
      (entry.Schedule.plan.P.exchange_bytes_per_core
      +. entry.Schedule.popt.P.dist_bytes_per_core)
      /. link_bw
    in
    let inject_overlap = ref 0. in
    for k = 0 to n - 1 do
      let op = s.Schedule.order.(k) in
      if k < !cursor && pre_end.(op) > start && pre_start.(op) < start +. base_span then begin
        let len = Float.max 1e-12 (pre_end.(op) -. pre_start.(op)) in
        let overlap =
          Float.min (start +. base_span) pre_end.(op) -. Float.max start pre_start.(op)
        in
        let frac = Float.max 0. overlap /. len in
        inject_overlap :=
          !inject_overlap +. (s.Schedule.entries.(op).Schedule.popt.P.noc_inject_bytes *. frac)
      end
    done;
    let inject_pc = !inject_overlap /. cores in
    let service = port_busy_pc +. (inject_pc /. link_bw) in
    let stall = Float.max 0. (service -. base_span) in
    stall_total := !stall_total +. stall;
    exe_start.(i) <- start;
    exe_end.(i) <- start +. base_span +. stall
  done;
  (* Preloads that were never issued would be a validate failure; assert. *)
  assert (!cursor = n);
  let total = exe_end.(n - 1) in
  let pre_intervals = Array.to_list (Array.init n (fun o -> (pre_start.(o), pre_end.(o)))) in
  let exe_intervals = Array.to_list (Array.init n (fun o -> (exe_start.(o), exe_end.(o)))) in
  let pre_m = Elk_util.Series.union_measure pre_intervals in
  let exe_m = Elk_util.Series.union_measure exe_intervals in
  let both = intersection_measure pre_intervals exe_intervals in
  let bd =
    {
      preload_only = Float.max 0. (pre_m -. both);
      execute_only = Float.max 0. (exe_m -. both -. !stall_total);
      overlapped = both;
      interconnect = !stall_total;
    }
  in
  let sum f = Array.fold_left (fun a e -> a +. f e) 0. s.Schedule.entries in
  let hbm_device_volume = sum (fun e -> e.Schedule.popt.P.hbm_device_bytes) in
  let inject_volume = sum (fun e -> e.Schedule.popt.P.noc_inject_bytes) in
  let intercore_volume =
    sum (fun e ->
        (e.Schedule.plan.P.exchange_bytes_per_core
        +. e.Schedule.popt.P.dist_bytes_per_core)
        *. float_of_int e.Schedule.plan.P.cores_used)
  in
  let flops = Elk_model.Graph.total_flops s.Schedule.graph in
  {
    total;
    bd;
    hbm_util = (if total > 0. then hbm_device_volume /. (chip.Arch.hbm_bandwidth *. total) else 0.);
    noc_util =
      (if total > 0. then (intercore_volume +. inject_volume) /. (agg_bw *. total) else 0.);
    intercore_volume;
    inject_volume;
    hbm_device_volume;
    achieved_flops = (if total > 0. then flops /. total else 0.);
    per_op =
      Array.init n (fun o ->
          {
            pre_start = pre_start.(o);
            pre_end = pre_end.(o);
            exe_start = exe_start.(o);
            exe_end = exe_end.(o);
          });
  }

(* Stall-free replay of [evaluate]'s forward pass: identical preload
   gating and channel serialization, but the O(n^2) interconnect-stall
   term is dropped.  Stalls are nonnegative and only ever push later
   execution (and through the window gates, later preloads) further out,
   so every [exe_end] here is <= its stalled counterpart and the result
   is a true lower bound of [evaluate ctx s).total] — which makes it a
   sound branch-and-bound pruning bound for the order search. *)
let lower_bound ctx (s : Schedule.t) =
  (match Schedule.validate s with
  | Ok () -> ()
  | Error m -> invalid_arg ("Timeline.lower_bound: " ^ m));
  ignore (P.ctx_chip ctx);
  let n = Schedule.num_ops s in
  let step = Schedule.preload_step s in
  let pre_end = Array.make n 0. in
  let exe_end = Array.make n 0. in
  let cursor = ref 0 in
  let pre_channel_free = ref 0. in
  let issue_up_to max_step =
    while !cursor < n && step.(!cursor) <= max_step do
      let op = s.Schedule.order.(!cursor) in
      let w = step.(!cursor) in
      let gate = if w <= 1 then 0. else exe_end.(w - 2) in
      let st = Float.max !pre_channel_free gate in
      pre_end.(op) <- st +. s.Schedule.entries.(op).Schedule.preload_len;
      pre_channel_free := pre_end.(op);
      incr cursor
    done
  in
  for i = 0 to n - 1 do
    issue_up_to (i + 1);
    let entry = s.Schedule.entries.(i) in
    let prev_end = if i = 0 then 0. else exe_end.(i - 1) in
    let start = Float.max prev_end pre_end.(i) in
    exe_end.(i) <- start +. entry.Schedule.dist_time +. entry.Schedule.plan.P.exec_time
  done;
  exe_end.(n - 1)

let pp_breakdown fmt b =
  Format.fprintf fmt "preload=%a exec=%a overlap=%a interconnect=%a" Elk_util.Units.pp_time
    b.preload_only Elk_util.Units.pp_time b.execute_only Elk_util.Units.pp_time b.overlapped
    Elk_util.Units.pp_time b.interconnect
