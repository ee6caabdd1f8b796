open Elk_arch
module P = Elk_partition.Partition
module N = Elk_noc.Noc

type op_trace = {
  pre_start : float;
  pre_end : float;
  exe_start : float;
  dist_end : float;
  compute_end : float;
  exe_end : float;
  device_bytes : float;
  inject_bytes : float;
  dist_bytes : float;
  exchange_bytes : float;
}

type result = {
  total : float;
  bd : Elk.Timeline.breakdown;
  hbm_util : float;
  noc_util : float;
  noc_util_split : float * float;
  intercore_volume : float;
  inject_volume : float;
  hbm_device_volume : float;
  achieved_flops : float;
  per_op : op_trace array;
  hbm_requests : int;
  perf : Perfcore.t;
  events : Critpath.event array option;
  mem : Memtrace.t option;
  noc : Noctrace.t option;
}

(* Per-link reservation state, split into two traffic classes sharing each
   link as a fluid (the hardware interleaves HBM-preload packets with
   inter-core packets; an eager exclusive booking would let the preload
   chain starve execution transfers issued later in simulation order but
   earlier in time).  The preload class receives at most the share the HBM
   can sustain per core (capped at [max_preload_share]); execution-phase
   transfers run in the remaining capacity.  Controller ports belong to
   the preload class alone.  Each class books links exclusively within its
   own share (cut-through flow model): fan-out from one controller
   pipelines, a single receiver port serializes. *)
type fabric = {
  noc : N.t;
  share : float;  (** fraction of core-link capacity for this class. *)
  free : (N.link, float ref) Hashtbl.t;
  mutable link_volume : float;
      (** bytes x links traversed on core-side links (hop-weighted), for
          the per-link interconnect-utilization metric of Fig 18c/21. *)
}

let max_preload_share = 0.7

(* The preload class's fluid share of each link: bounded by what the HBM
   can feed, by a fairness cap, and by the schedule's actual average
   preload demand (with 2x headroom for burstiness) — a fat HBM that the
   model barely uses must not starve execution transfers. *)
let preload_share chip (s : Elk.Schedule.t) =
  let link_bw = chip.Arch.intercore_link.Arch.bandwidth in
  let cores = float_of_int chip.Arch.cores in
  let inject_total =
    Array.fold_left
      (fun a e -> a +. e.Elk.Schedule.popt.P.noc_inject_bytes)
      0. s.Elk.Schedule.entries
  in
  let exec_lb =
    Array.fold_left
      (fun a e -> a +. e.Elk.Schedule.dist_time +. e.Elk.Schedule.plan.P.exec_time)
      0. s.Elk.Schedule.entries
  in
  let device_total =
    Array.fold_left
      (fun a e -> a +. e.Elk.Schedule.popt.P.hbm_device_bytes)
      0. s.Elk.Schedule.entries
  in
  let t_lb = Float.max 1e-9 (Float.max exec_lb (device_total /. chip.Arch.hbm_bandwidth)) in
  match chip.Arch.topology with
  | Arch.Mesh2d { rows; cols } ->
      (* Mesh edges carry aggregated flows; demand per edge is
         hop-weighted. *)
      let edges = float_of_int (2 * ((rows * (cols - 1)) + (cols * (rows - 1)))) in
      let avg_hops = float_of_int (rows + cols) /. 3. in
      let demand = inject_total *. avg_hops /. (edges *. link_bw) /. t_lb in
      Float.max 0.05 (Float.min 0.5 (2. *. demand))
  | Arch.All_to_all | Arch.Clustered _ ->
      (* A core's inbound port sees at most its share of the HBM feed as
         preload traffic; on a clustered chip the shared L2 additionally
         serializes both classes via its own bookings. *)
      let r_pre = chip.Arch.hbm_bandwidth /. cores in
      let demand = inject_total /. cores /. link_bw /. t_lb in
      Float.max 0.05
        (Float.min (Float.min max_preload_share (r_pre /. link_bw)) (2. *. demand))

let fabric_of ~share noc = { noc; share; free = Hashtbl.create 1024; link_volume = 0. }

let link_free f l =
  match Hashtbl.find_opt f.free l with
  | Some r -> r
  | None ->
      let r = ref 0. in
      Hashtbl.add f.free l r;
      r

let effective_bw f l =
  let bw = N.link_bandwidth f.noc l in
  match l with
  | N.Port_out (N.Hbm _) -> bw (* controller ports carry only preload traffic *)
  | _ -> bw *. f.share

(* Returns (completion_time, queuing_delay).  Every link reservation
   and the transfer envelope go to the active [links] probes under
   [cls]. *)
let transfer ~links ~cls ~op f ~src ~dst ~bytes ~not_before =
  if src = dst || bytes <= 0. then (not_before, 0.)
  else begin
    let route = N.route f.noc ~src ~dst in
    let start =
      List.fold_left (fun t l -> Float.max t !(link_free f l)) not_before route
    in
    let bottleneck =
      List.fold_left (fun bw l -> Float.min bw (effective_bw f l)) infinity route
    in
    List.iter
      (fun l ->
        (match l with
        | N.Port_out (N.Hbm _) -> ()
        | _ -> f.link_volume <- f.link_volume +. bytes);
        let r = link_free f l in
        r := start +. (bytes /. effective_bw f l))
      route;
    let latency = N.route_latency f.noc ~src ~dst in
    let finish = start +. latency +. (bytes /. bottleneck) in
    (match links with
    | [] -> ()
    | _ ->
        List.iter
          (fun l ->
            Probe.emit_booking links
              { Probe.b_cls = cls; b_op = op; b_link = l; b_bytes = bytes;
                b_start = start; b_end = start +. (bytes /. effective_bw f l) })
          route;
        Probe.emit_transfer links
          { Probe.t_cls = cls; t_op = op; t_src = src; t_dst = dst; t_bytes = bytes;
            t_hops = List.length route; t_wait = start -. not_before;
            t_start = start; t_end = finish });
    (finish, start -. not_before)
  end

(* Aggregate capacity of the core-side interconnect links: ports for the
   all-to-all fabric, directed edges plus boundary entry links for the
   mesh.  The utilization metric divides hop-weighted traffic by this. *)
let fabric_capacity chip =
  let link = chip.Arch.intercore_link.Arch.bandwidth in
  match chip.Arch.topology with
  | Arch.All_to_all -> 2. *. float_of_int chip.Arch.cores *. link
  | Arch.Clustered { l2_bandwidth; _ } ->
      (2. *. float_of_int chip.Arch.cores *. link) +. l2_bandwidth
  | Arch.Mesh2d { rows; cols } ->
      let edges = 2 * ((rows * (cols - 1)) + (cols * (rows - 1))) in
      let entries = 2 * cols in
      float_of_int (edges + entries) *. link

(* Deterministic per-(core, op) compute skew in [1-skew, 1+skew]. *)
let core_skew ~skew core op_id =
  let h = Hashtbl.hash (core, op_id, "skew") land 0xFFFF in
  1. -. skew +. (2. *. skew *. (float_of_int h /. 65535.))

(* Floats passed to a call once per core are bound boxed, once: the
   compiler would otherwise keep them unboxed and box them again at
   every call. *)
let boxed (x : float) = Sys.opaque_identity x

let run_impl ~skew ~events ~mem ~noc:record_noc ctx (s : Elk.Schedule.t) =
  (match Elk.Schedule.validate s with
  | Ok () -> ()
  | Error m -> invalid_arg ("Sim.run: invalid schedule: " ^ m));
  let chip = P.ctx_chip ctx in
  let noc = N.create chip in
  let pre_share = preload_share chip s in
  let fg_fabric = fabric_of ~share:(1. -. pre_share) noc in
  let pre_fabric = fabric_of ~share:pre_share noc in
  let hbm_dev = Elk_hbm.Hbm.create (Elk_hbm.Hbm.config_for_bandwidth chip.Arch.hbm_bandwidth) in
  let n = Elk.Schedule.num_ops s in
  let graph = s.Elk.Schedule.graph in
  (* Sequential tensor placement in HBM (paper §5). *)
  let offsets = Array.make n 0. in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    offsets.(i) <- !acc;
    acc := !acc +. s.Elk.Schedule.entries.(i).Elk.Schedule.popt.P.hbm_device_bytes
  done;
  let program = Elk.Program.of_schedule s in
  let pre_start = Array.make n 0. and pre_end = Array.make n 0. in
  let exe_start = Array.make n 0. and exe_end = Array.make n 0. in
  let dist_end_arr = Array.make n 0. and compute_end_arr = Array.make n 0. in
  let perf = Perfcore.create ~cores:chip.Arch.cores ~ops:n in
  (* HBM device time of each operator's preload, for splitting the
     execute's preload stall between the HBM floor and delivery. *)
  let pre_hbm = Array.make n 0. in
  let exec_ready = ref 0. in
  let preload_free = ref 0. in
  let stall_interconnect = ref 0. in
  let stall_pre = ref 0. and stall_dist = ref 0. and stall_ex = ref 0. in
  (* Observability accumulators: issued-but-not-yet-executed preload queue
     depth, HBM device occupancy, and execute time lost waiting on its own
     preload.  Plain int/float updates — negligible next to the flow
     model — recorded into the metrics registry only when enabled. *)
  let pending = ref 0 and max_pending = ref 0 in
  let hbm_busy = ref 0. and preload_wait = ref 0. in
  (* The active recorders, and those of them that record the
     interconnect.  Every emission below is guarded by one empty-list
     check, so a plain run builds no probe event. *)
  let cp = if events then Some (Critpath.recorder ~ops:n) else None in
  let mt = if mem then Some (Memtrace.create ~cores:chip.Arch.cores ~ops:n) else None in
  let nt = if record_noc then Some (Noctrace.create noc) else None in
  let probes =
    List.filter_map Fun.id
      [ Option.map Critpath.probe cp; Option.map Memtrace.probe mt;
        Option.map Noctrace.probe nt ]
  in
  let links = List.filter_map (fun p -> p.Probe.links) probes in
  let cores_of plan = plan.P.cores_used in
  Array.iter
    (fun instr ->
      match instr with
      | Elk.Program.Preload_async op ->
          let e = s.Elk.Schedule.entries.(op) in
          let popt = e.Elk.Schedule.popt in
          incr pending;
          if !pending > !max_pending then max_pending := !pending;
          (* Rule (1): every execute issued earlier blocks this preload;
             rule (2): preloads are sequential. *)
          let gate = boxed (Float.max !exec_ready !preload_free) in
          let pre_ready = !preload_free in
          let reads_hbm = popt.P.hbm_device_bytes > 0. in
          let hbm_done, finish, port_wait =
            if not reads_hbm then (gate, gate, 0.)
            else begin
              let hbm_done =
                Elk_hbm.Hbm.read hbm_dev ~now:gate ~offset:offsets.(op)
                  ~bytes:popt.P.hbm_device_bytes
              in
              hbm_busy := !hbm_busy +. (hbm_done -. gate);
              pre_hbm.(op) <- hbm_done -. gate;
              if hbm_done > gate then
                Elk_util.Series.add perf.Perfcore.hbm_series ~t_start:gate
                  ~t_end:hbm_done ~volume:popt.P.hbm_device_bytes;
              (* Controllers stream to every core in parallel; each core
                 receives its preload-space bytes through its own port.  On
                 the all-to-all fabric the delivery is a fluid broadcast:
                 each controller pushes its cores' chunks simultaneously, so
                 the phase takes the max of the controller service time and
                 the per-core inbound time.  On the mesh each core's chunk
                 is routed hop by hop and aggregation on shared edges is
                 captured by per-transfer bookings. *)
              let per_core = boxed (popt.P.noc_inject_bytes /. float_of_int chip.Arch.cores) in
              let finish = ref hbm_done in
              let ideal = ref 0. in
              (match chip.Arch.topology with
              | Arch.All_to_all ->
                  let nctrl = chip.Arch.hbm_controllers in
                  for h = 0 to nctrl - 1 do
                    let ctrl_cores = (chip.Arch.cores + nctrl - 1 - h) / nctrl in
                    let ctrl_volume = per_core *. float_of_int ctrl_cores in
                    let out = link_free pre_fabric (N.Port_out (N.Hbm h)) in
                    let start = Float.max gate !out in
                    let ctrl_service =
                      ctrl_volume /. effective_bw pre_fabric (N.Port_out (N.Hbm h))
                    in
                    let inbound =
                      per_core /. effective_bw pre_fabric (N.Port_in (N.Core h))
                    in
                    out := start +. ctrl_service;
                    let record =
                      per_core > 0. && match links with [] -> false | _ -> true
                    in
                    if record then
                      Probe.emit_booking links
                        { Probe.b_cls = Probe.Preload; b_op = op;
                          b_link = N.Port_out (N.Hbm h); b_bytes = ctrl_volume;
                          b_start = start; b_end = start +. ctrl_service };
                    for c = 0 to chip.Arch.cores - 1 do
                      if c mod nctrl = h then begin
                        let inp = link_free pre_fabric (N.Port_in (N.Core c)) in
                        let s = Float.max start !inp in
                        inp := s +. inbound;
                        pre_fabric.link_volume <- pre_fabric.link_volume +. per_core;
                        let done_c =
                          s +. Float.max inbound ctrl_service
                          +. chip.Arch.intercore_link.Arch.latency
                        in
                        if record then begin
                          Probe.emit_booking links
                            { Probe.b_cls = Probe.Preload; b_op = op;
                              b_link = N.Port_in (N.Core c); b_bytes = per_core;
                              b_start = s; b_end = s +. inbound };
                          Probe.emit_transfer links
                            { Probe.t_cls = Probe.Preload; t_op = op; t_src = N.Hbm h;
                              t_dst = N.Core c; t_bytes = per_core; t_hops = 2;
                              t_wait = s -. gate; t_start = s; t_end = done_c }
                        end;
                        finish := Float.max !finish done_c
                      end
                    done;
                    ideal :=
                      Float.max !ideal (gate +. Float.max ctrl_service inbound)
                  done
              | Arch.Mesh2d _ | Arch.Clustered _ ->
                  for c = 0 to chip.Arch.cores - 1 do
                    let src = N.hbm_ctrl_for_core noc c in
                    let done_c, _wait =
                      transfer ~links ~cls:Probe.Preload ~op pre_fabric ~src
                        ~dst:(N.Core c) ~bytes:per_core ~not_before:gate
                    in
                    ideal :=
                      Float.max !ideal
                        (gate
                        +. (N.transfer_time noc ~src ~dst:(N.Core c) ~bytes:per_core
                           /. Float.max 1e-9 pre_share));
                    finish := Float.max !finish done_c
                  done);
              let d = Float.max 0. (!finish -. Float.max !ideal hbm_done) in
              stall_pre := !stall_pre +. d;
              stall_interconnect := !stall_interconnect +. d;
              if popt.P.noc_inject_bytes > 0. && !finish > gate then
                Elk_util.Series.add perf.Perfcore.noc_series ~t_start:gate
                  ~t_end:!finish ~volume:popt.P.noc_inject_bytes;
              (hbm_done, !finish, d)
            end
          in
          pre_start.(op) <- gate;
          pre_end.(op) <- finish;
          preload_free := finish;
          (match probes with
          | [] -> ()
          | _ ->
              Probe.emit_preload probes
                { Probe.p_op = op; p_exec_ready = !exec_ready; p_pre_ready = pre_ready;
                  p_gate = gate; p_reads_hbm = reads_hbm; p_hbm_done = hbm_done;
                  p_finish = finish; p_port_wait = port_wait;
                  p_bytes = popt.P.preload_space })
      | Elk.Program.Execute op ->
          let e = s.Elk.Schedule.entries.(op) in
          let plan = e.Elk.Schedule.plan in
          let node = Elk_model.Graph.get graph op in
          let prev_ready = !exec_ready in
          let start = boxed (Float.max !exec_ready pre_end.(op)) in
          if !pending > 0 then decr pending;
          preload_wait := !preload_wait +. Float.max 0. (pre_end.(op) -. !exec_ready);
          let ncores = cores_of plan in
          (* Phase 1: data distribution (preload-state to execute-state),
             ring transfers from sharing-group peers. *)
          let dist_per_core = e.Elk.Schedule.popt.P.dist_bytes_per_core in
          let dist_end = ref start in
          let dist_done = Array.make (max 1 ncores) start in
          let dist_wait = Array.make (max 1 ncores) 0. in
          let dist_ideal =
            if dist_per_core > 0. then
              N.transfer_time noc ~src:(N.Core 0) ~dst:(N.Core (min 1 (chip.Arch.cores - 1)))
                ~bytes:dist_per_core
              /. (1. -. pre_share)
            else 0.
          in
          if dist_per_core > 0. then
            for c = 0 to ncores - 1 do
              let src = N.Core ((c + 1) mod ncores) in
              let done_c, wait_c =
                transfer ~links ~cls:Probe.Distribute ~op fg_fabric ~src
                  ~dst:(N.Core c) ~bytes:dist_per_core ~not_before:start
              in
              dist_done.(c) <- done_c;
              dist_wait.(c) <- wait_c;
              dist_end := Float.max !dist_end done_c
            done;
          let dist_end = !dist_end in
          let sd = Float.max 0. (dist_end -. start -. dist_ideal) in
          stall_dist := !stall_dist +. sd;
          stall_interconnect := !stall_interconnect +. sd;
          (* Phase 2: per-core tile computation (slowest core binds). *)
          let t_tile =
            Elk_cost.Device.exec_time chip ~kind:node.Elk_model.Graph.op.Elk_tensor.Opspec.kind
              ~iter:plan.P.tile
          in
          let compute_end = ref dist_end in
          for c = 0 to ncores - 1 do
            compute_end :=
              Float.max !compute_end (dist_end +. (t_tile *. core_skew ~skew c op))
          done;
          let compute_end = boxed !compute_end in
          (* Phase 3: exchange/reduction of shared activations and partial
             results. *)
          let ex_per_core = plan.P.exchange_bytes_per_core in
          let ex_end = ref compute_end in
          let ex_done = Array.make (max 1 ncores) compute_end in
          let ex_wait = Array.make (max 1 ncores) 0. in
          let ex_ideal =
            if ex_per_core > 0. then
              N.transfer_time noc ~src:(N.Core 0) ~dst:(N.Core (min 1 (chip.Arch.cores - 1)))
                ~bytes:ex_per_core
              /. (1. -. pre_share)
            else 0.
          in
          if ex_per_core > 0. then
            for c = 0 to ncores - 1 do
              let src = N.Core ((c + ncores - 1) mod ncores) in
              let done_c, wait_c =
                transfer ~links ~cls:Probe.Exchange ~op fg_fabric ~src
                  ~dst:(N.Core c) ~bytes:ex_per_core ~not_before:compute_end
              in
              ex_done.(c) <- done_c;
              ex_wait.(c) <- wait_c;
              ex_end := Float.max !ex_end done_c
            done;
          let ex_end = !ex_end in
          let se = Float.max 0. (ex_end -. compute_end -. ex_ideal) in
          stall_ex := !stall_ex +. se;
          stall_interconnect := !stall_interconnect +. se;
          (* Resource attribution: decompose every core's share of
             [prev_ready, ex_end] into the five Perfcore buckets, and the
             operator's critical-path span into per-resource time.  The
             pieces are accumulated independently (not as remainders of
             the makespan), so Perfcore.check genuinely verifies that no
             time leaks when this loop changes. *)
          let gap = start -. prev_ready in
          let pre_len = pre_end.(op) -. pre_start.(op) in
          let hbm_frac = if pre_len > 0. then pre_hbm.(op) /. pre_len else 0. in
          let dist_len = dist_end -. start in
          let compute_len = compute_end -. dist_end in
          let ex_len = ex_end -. compute_end in
          let max_wait w = Array.fold_left Float.max 0. w in
          let port_d = Float.min dist_len (if dist_per_core > 0. then max_wait dist_wait else 0.) in
          let port_e = Float.min ex_len (if ex_per_core > 0. then max_wait ex_wait else 0.) in
          let at = perf.Perfcore.per_op.(op) in
          at.Perfcore.a_hbm <- gap *. hbm_frac;
          at.Perfcore.a_interconnect <-
            (gap *. (1. -. hbm_frac)) +. (dist_len -. port_d) +. (ex_len -. port_e);
          at.Perfcore.a_compute <- compute_len;
          at.Perfcore.a_port <- port_d +. port_e;
          if dist_per_core > 0. && dist_end > start then
            Elk_util.Series.add perf.Perfcore.noc_series ~t_start:start
              ~t_end:dist_end
              ~volume:(dist_per_core *. float_of_int ncores);
          if ex_per_core > 0. && ex_end > compute_end then
            Elk_util.Series.add perf.Perfcore.noc_series ~t_start:compute_end
              ~t_end:ex_end
              ~volume:(ex_per_core *. float_of_int ncores);
          for c = 0 to chip.Arch.cores - 1 do
            let b = perf.Perfcore.per_core.(c) in
            b.Perfcore.preload_wait <- b.Perfcore.preload_wait +. gap;
            if c < ncores then begin
              if dist_per_core > 0. then begin
                let comm = Float.max 0. (dist_done.(c) -. start -. dist_wait.(c)) in
                b.Perfcore.exchange <- b.Perfcore.exchange +. comm;
                b.Perfcore.port <- b.Perfcore.port +. dist_wait.(c);
                b.Perfcore.idle <- b.Perfcore.idle +. (dist_end -. dist_done.(c));
                if comm > 0. then
                  Elk_util.Series.add perf.Perfcore.core_busy.(c)
                    ~t_start:(dist_done.(c) -. comm) ~t_end:dist_done.(c) ~volume:comm
              end;
              let t_c = t_tile *. core_skew ~skew c op in
              b.Perfcore.compute <- b.Perfcore.compute +. t_c;
              b.Perfcore.idle <- b.Perfcore.idle +. (compute_len -. t_c);
              if t_c > 0. then
                Elk_util.Series.add perf.Perfcore.core_busy.(c) ~t_start:dist_end
                  ~t_end:(dist_end +. t_c) ~volume:t_c;
              if ex_per_core > 0. then begin
                let comm = Float.max 0. (ex_done.(c) -. compute_end -. ex_wait.(c)) in
                b.Perfcore.exchange <- b.Perfcore.exchange +. comm;
                b.Perfcore.port <- b.Perfcore.port +. ex_wait.(c);
                b.Perfcore.idle <- b.Perfcore.idle +. (ex_end -. ex_done.(c));
                if comm > 0. then
                  Elk_util.Series.add perf.Perfcore.core_busy.(c)
                    ~t_start:(ex_done.(c) -. comm) ~t_end:ex_done.(c) ~volume:comm
              end
            end
            else b.Perfcore.idle <- b.Perfcore.idle +. (ex_end -. start)
          done;
          exe_start.(op) <- start;
          dist_end_arr.(op) <- dist_end;
          compute_end_arr.(op) <- compute_end;
          exe_end.(op) <- ex_end;
          (match probes with
          | [] -> ()
          | _ ->
              Probe.emit_execute probes
                { Probe.e_op = op; e_prev_ready = prev_ready; e_pre_end = pre_end.(op);
                  e_start = start; e_dist_end = dist_end; e_compute_end = compute_end;
                  e_end = ex_end; e_dist_wait = port_d; e_ex_wait = port_e;
                  e_bytes = plan.P.exec_space; e_cores = ncores });
          exec_ready := ex_end)
    program.Elk.Program.instrs;
  let total = exe_end.(n - 1) in
  (let module M = Elk_obs.Metrics in
   M.incr "elk_sim_runs_total" ~help:"Simulator invocations";
   M.incr "elk_sim_events_total"
     ~by:(float_of_int (Array.length program.Elk.Program.instrs))
     ~help:"Device program instructions interpreted (preloads + executes)";
   M.incr "elk_sim_interconnect_stall_seconds_total" ~by:!stall_interconnect
     ~help:"Simulated time lost to interconnect contention";
   M.incr "elk_sim_preload_contention_seconds_total" ~by:!stall_pre
     ~help:"Interconnect stall during preload delivery";
   M.incr "elk_sim_distribute_contention_seconds_total" ~by:!stall_dist
     ~help:"Interconnect stall during data distribution";
   M.incr "elk_sim_exchange_contention_seconds_total" ~by:!stall_ex
     ~help:"Interconnect stall during exchange/reduction";
   M.incr "elk_sim_hbm_busy_seconds_total" ~by:!hbm_busy
     ~help:"Simulated HBM device occupancy across preload reads";
   M.incr "elk_sim_hbm_stall_seconds_total" ~by:!preload_wait
     ~help:"Execute time spent waiting on the operator's own preload";
   M.observe "elk_sim_preload_queue_depth" (float_of_int !max_pending)
     ~help:"Peak issued-but-unexecuted preload queue depth per run");
  (* Breakdown: union measures of preload and execute interval sets. *)
  let pre_iv = List.init n (fun o -> (pre_start.(o), pre_end.(o))) in
  let exe_iv = List.init n (fun o -> (exe_start.(o), exe_end.(o))) in
  let clip (a, b) (c, d) =
    let lo = Float.max a c and hi = Float.min b d in
    if hi > lo then Some (lo, hi) else None
  in
  let union = Elk_util.Series.union_measure in
  let both = union (List.concat_map (fun x -> List.filter_map (clip x) exe_iv) pre_iv) in
  let pre_m = union pre_iv and exe_m = union exe_iv in
  let sum f = Array.fold_left (fun a e -> a +. f e) 0. s.Elk.Schedule.entries in
  let hbm_device_volume = sum (fun e -> e.Elk.Schedule.popt.P.hbm_device_bytes) in
  let inject_volume = sum (fun e -> e.Elk.Schedule.popt.P.noc_inject_bytes) in
  let intercore_volume =
    sum (fun e ->
        (e.Elk.Schedule.plan.P.exchange_bytes_per_core
        +. e.Elk.Schedule.popt.P.dist_bytes_per_core)
        *. float_of_int e.Elk.Schedule.plan.P.cores_used)
  in
  let flops = Elk_model.Graph.total_flops graph in
  let stats = Elk_hbm.Hbm.stats hbm_dev in
  Elk_obs.Metrics.incr "elk_sim_hbm_requests_total"
    ~by:(float_of_int stats.Elk_hbm.Hbm.requests)
    ~help:"HBM device requests issued";
  {
    total;
    bd =
      {
        Elk.Timeline.preload_only = Float.max 0. (pre_m -. both);
        execute_only = Float.max 0. (exe_m -. both -. !stall_interconnect);
        overlapped = both;
        interconnect = !stall_interconnect;
      };
    hbm_util = (if total > 0. then hbm_device_volume /. (chip.Arch.hbm_bandwidth *. total) else 0.);
    noc_util =
      (if total > 0. then
         (fg_fabric.link_volume +. pre_fabric.link_volume)
         /. (fabric_capacity chip *. total)
       else 0.);
    noc_util_split =
      (if total > 0. then
         let d = fabric_capacity chip *. total in
         (fg_fabric.link_volume /. d, pre_fabric.link_volume /. d)
       else (0., 0.));
    intercore_volume;
    inject_volume;
    hbm_device_volume;
    achieved_flops = (if total > 0. then flops /. total else 0.);
    per_op =
      Array.init n (fun o ->
          let e = s.Elk.Schedule.entries.(o) in
          {
            pre_start = pre_start.(o);
            pre_end = pre_end.(o);
            exe_start = exe_start.(o);
            dist_end = dist_end_arr.(o);
            compute_end = compute_end_arr.(o);
            exe_end = exe_end.(o);
            device_bytes = e.Elk.Schedule.popt.P.hbm_device_bytes;
            inject_bytes = e.Elk.Schedule.popt.P.noc_inject_bytes;
            dist_bytes =
              e.Elk.Schedule.popt.P.dist_bytes_per_core
              *. float_of_int e.Elk.Schedule.plan.P.cores_used;
            exchange_bytes =
              e.Elk.Schedule.plan.P.exchange_bytes_per_core
              *. float_of_int e.Elk.Schedule.plan.P.cores_used;
          });
    hbm_requests = stats.Elk_hbm.Hbm.requests;
    perf;
    events = Option.map Critpath.recorded cp;
    mem = mt;
    noc = nt;
  }

let run ?(skew = 0.02) ?(events = false) ?(mem = false) ?(noc = false) ctx
    (s : Elk.Schedule.t) =
  Elk_obs.Span.with_span "sim-run"
    ~attrs:[ ("ops", string_of_int (Elk.Schedule.num_ops s)) ]
    (fun () -> run_impl ~skew ~events ~mem ~noc ctx s)

let compare_with_timeline ctx s =
  let sim = run ctx s in
  let tl = Elk.Timeline.evaluate ctx s in
  if sim.total <= 0. then 0.
  else Float.abs (sim.total -. tl.Elk.Timeline.total) /. sim.total
