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
  free : float array;  (** by link id: when this class's share frees up. *)
  bw : float array;  (** by link id: this class's effective bandwidth. *)
  tally : tally;
}

(* All-float, so the running sum updates in place without boxing. *)
and tally = {
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

let is_ctrl_port = function N.Port_out (N.Hbm _) -> true | _ -> false

let fabric_of ~share noc =
  let n = N.num_links noc in
  let bw = Array.make n 0. in
  for id = 0 to n - 1 do
    let l = N.link_of_id noc id in
    (* controller ports carry only preload traffic *)
    bw.(id) <- (if is_ctrl_port l then N.link_bandwidth noc l else N.link_bandwidth noc l *. share)
  done;
  { noc; free = Array.make n 0.; bw; tally = { link_volume = 0. } }

(* Books one transfer between node ids and stores its completion time
   and queueing delay in [finish.(slot)] and [wait.(slot)].  Every link
   reservation and the transfer envelope go to the active [links] probes
   under [cls]. *)
let transfer ~links ~cls ~op f ~src ~dst ~bytes ~not_before ~finish ~wait slot =
  if src = dst || bytes <= 0. then begin
    finish.(slot) <- not_before;
    wait.(slot) <- 0.
  end
  else begin
    let p = N.path f.noc ~src ~dst in
    let route = p.N.links in
    let start = ref not_before and bottleneck = ref infinity in
    for k = 0 to Array.length route - 1 do
      start := Float.max !start f.free.(route.(k));
      bottleneck := Float.min !bottleneck f.bw.(route.(k))
    done;
    let start = !start in
    for k = 0 to Array.length route - 1 do
      let l = route.(k) in
      if not (is_ctrl_port (N.link_of_id f.noc l)) then
        f.tally.link_volume <- f.tally.link_volume +. bytes;
      f.free.(l) <- start +. (bytes /. f.bw.(l))
    done;
    let t_end = start +. p.N.latency +. (bytes /. !bottleneck) in
    finish.(slot) <- t_end;
    wait.(slot) <- start -. not_before;
    match links with
    | [] -> ()
    | _ ->
        for k = 0 to Array.length route - 1 do
          let l = route.(k) in
          Probe.emit_booking links
            { Probe.b_cls = cls; b_op = op; b_link = l; b_bytes = bytes; b_start = start;
              b_end = start +. (bytes /. f.bw.(l)) }
        done;
        Probe.emit_transfer links
          { Probe.t_cls = cls; t_op = op; t_src = N.node_of_id f.noc src;
            t_dst = N.node_of_id f.noc dst; t_bytes = bytes; t_hops = p.N.hops;
            t_wait = start -. not_before; t_start = start; t_end }
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

(* Deterministic per-(core, op) compute skew in [1-skew, 1+skew]: a hash
   of (core, op) scaled into the band.  The hash fractions depend on
   nothing else, so each domain computes them once per (op, core) for
   every later run; [skew_fracs ~cores op] is op's row, indexed by
   core. *)
let skew_table : float array array ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [||])

let skew_fracs ~cores op =
  let tbl = Domain.DLS.get skew_table in
  let rows = !tbl in
  if op >= Array.length rows then
    tbl :=
      Array.init (max (op + 1) (2 * Array.length rows)) (fun o ->
          if o < Array.length rows then rows.(o) else [||]);
  let row = !tbl.(op) in
  if Array.length row >= cores then row
  else begin
    let row =
      Array.init cores (fun c ->
          float_of_int (Hashtbl.hash (c, op, "skew") land 0xFFFF) /. 65535.)
    in
    !tbl.(op) <- row;
    row
  end

let core_skew ~skew frac = 1. -. skew +. (2. *. skew *. frac)

(* The interconnect of the last chip simulated on this domain, so the
   routes it memoizes serve every later run on the same chip. *)
let last_noc : (Arch.chip * N.t) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let noc_of chip =
  let slot = Domain.DLS.get last_noc in
  match !slot with
  | Some (c, noc) when c == chip || c = chip -> noc
  | _ ->
      let noc = N.create chip in
      slot := Some (chip, noc);
      noc

(* Floats passed to a call once per core are bound boxed, once: the
   compiler would otherwise keep them unboxed and box them again at
   every call. *)
let boxed (x : float) = Sys.opaque_identity x

(* [Series.add] through the scratch array [buf], so the three floats
   cross into the other module unboxed. *)
let[@inline] add_busy series buf t_start t_end volume =
  buf.(0) <- t_start;
  buf.(1) <- t_end;
  buf.(2) <- volume;
  Elk_util.Series.add_from series buf 0

let run_impl ~skew ~events ~mem ~noc:record_noc ctx (s : Elk.Schedule.t) =
  (match Elk.Schedule.validate s with
  | Ok () -> ()
  | Error m -> invalid_arg ("Sim.run: invalid schedule: " ^ m));
  let chip = P.ctx_chip ctx in
  let noc = noc_of chip in
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
  let cores = chip.Arch.cores in
  (* Per-core transfer results of the current phase, reused by every
     preload and execute of the run. *)
  let pre_done = Array.make cores 0. and pre_wait = Array.make cores 0. in
  let dist_done = Array.make cores 0. and dist_wait = Array.make cores 0. in
  let ex_done = Array.make cores 0. and ex_wait = Array.make cores 0. in
  let busy_buf = Array.make 3 0. in
  (* Uncontended core-to-neighbour route, the ideal of both rings. *)
  let ring_path = N.path noc ~src:0 ~dst:(min 1 (cores - 1)) in
  (* Where each core's preload comes from (mesh and clustered chips), and
     the controller and inbound port ids of the all-to-all broadcast. *)
  let pre_src = Array.init cores (fun c -> N.node_id noc (N.hbm_ctrl_for_core noc c)) in
  let ctrl_port, core_port =
    match chip.Arch.topology with
    | Arch.All_to_all ->
        ( Array.init chip.Arch.hbm_controllers (fun h -> N.link_id noc (N.Port_out (N.Hbm h))),
          Array.init cores (fun c -> N.link_id noc (N.Port_in (N.Core c))) )
    | Arch.Mesh2d _ | Arch.Clustered _ -> ([||], [||])
  in
  (* Every core's inbound port runs at the link rate, so the broadcast's
     per-core delivery rate is the core-port bandwidth in the preload
     share, whichever controller feeds the core. *)
  let core_port_bw = chip.Arch.intercore_link.Arch.bandwidth *. pre_share in
  let max_wait w ncores =
    let m = ref 0. in
    for c = 0 to ncores - 1 do
      m := Float.max !m w.(c)
    done;
    !m
  in
  let instrs = program.Elk.Program.instrs in
  for pc = 0 to Array.length instrs - 1 do
    match instrs.(pc) with
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
            let per_core = boxed (popt.P.noc_inject_bytes /. float_of_int cores) in
            let finish = ref hbm_done in
            let ideal = ref 0. in
            (match chip.Arch.topology with
            | Arch.All_to_all ->
                let nctrl = chip.Arch.hbm_controllers in
                let free = pre_fabric.free in
                for h = 0 to nctrl - 1 do
                  let ctrl_cores = (cores + nctrl - 1 - h) / nctrl in
                  let ctrl_volume = per_core *. float_of_int ctrl_cores in
                  let out = ctrl_port.(h) in
                  let start = Float.max gate free.(out) in
                  let ctrl_service = ctrl_volume /. pre_fabric.bw.(out) in
                  let inbound = per_core /. core_port_bw in
                  free.(out) <- start +. ctrl_service;
                  let record =
                    per_core > 0. && match links with [] -> false | _ -> true
                  in
                  if record then
                    Probe.emit_booking links
                      { Probe.b_cls = Probe.Preload; b_op = op;
                        b_link = out; b_bytes = ctrl_volume;
                        b_start = start; b_end = start +. ctrl_service };
                  for c = 0 to cores - 1 do
                    if c mod nctrl = h then begin
                      let inp = core_port.(c) in
                      let s = Float.max start free.(inp) in
                      free.(inp) <- s +. inbound;
                      pre_fabric.tally.link_volume <- pre_fabric.tally.link_volume +. per_core;
                      let done_c =
                        s +. Float.max inbound ctrl_service
                        +. chip.Arch.intercore_link.Arch.latency
                      in
                      if record then begin
                        Probe.emit_booking links
                          { Probe.b_cls = Probe.Preload; b_op = op;
                            b_link = inp; b_bytes = per_core;
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
                for c = 0 to cores - 1 do
                  let src = pre_src.(c) in
                  transfer ~links ~cls:Probe.Preload ~op pre_fabric ~src ~dst:c
                    ~bytes:per_core ~not_before:gate ~finish:pre_done ~wait:pre_wait c;
                  ideal :=
                    Float.max !ideal
                      (gate
                      +. (N.path_time (N.path noc ~src ~dst:c) ~bytes:per_core
                         /. Float.max 1e-9 pre_share));
                  finish := Float.max !finish pre_done.(c)
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
        let ncores = plan.P.cores_used in
        (* Phase 1: data distribution (preload-state to execute-state),
           ring transfers from sharing-group peers. *)
        let dist_per_core = boxed e.Elk.Schedule.popt.P.dist_bytes_per_core in
        let dist_end = ref start in
        let dist_ideal =
          if dist_per_core > 0. then
            N.path_time ring_path ~bytes:dist_per_core /. (1. -. pre_share)
          else 0.
        in
        if dist_per_core > 0. then
          for c = 0 to ncores - 1 do
            transfer ~links ~cls:Probe.Distribute ~op fg_fabric
              ~src:((c + 1) mod ncores) ~dst:c ~bytes:dist_per_core ~not_before:start
              ~finish:dist_done ~wait:dist_wait c;
            dist_end := Float.max !dist_end dist_done.(c)
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
        let fracs = skew_fracs ~cores:ncores op in
        let compute_end = ref dist_end in
        for c = 0 to ncores - 1 do
          compute_end :=
            Float.max !compute_end (dist_end +. (t_tile *. core_skew ~skew fracs.(c)))
        done;
        let compute_end = boxed !compute_end in
        (* Phase 3: exchange/reduction of shared activations and partial
           results. *)
        let ex_per_core = boxed plan.P.exchange_bytes_per_core in
        let ex_end = ref compute_end in
        let ex_ideal =
          if ex_per_core > 0. then
            N.path_time ring_path ~bytes:ex_per_core /. (1. -. pre_share)
          else 0.
        in
        if ex_per_core > 0. then
          for c = 0 to ncores - 1 do
            transfer ~links ~cls:Probe.Exchange ~op fg_fabric
              ~src:((c + ncores - 1) mod ncores) ~dst:c ~bytes:ex_per_core
              ~not_before:compute_end ~finish:ex_done ~wait:ex_wait c;
            ex_end := Float.max !ex_end ex_done.(c)
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
        let port_d =
          Float.min dist_len (if dist_per_core > 0. then max_wait dist_wait ncores else 0.)
        in
        let port_e =
          Float.min ex_len (if ex_per_core > 0. then max_wait ex_wait ncores else 0.)
        in
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
        for c = 0 to cores - 1 do
          let b = perf.Perfcore.per_core.(c) in
          b.Perfcore.preload_wait <- b.Perfcore.preload_wait +. gap;
          if c < ncores then begin
            if dist_per_core > 0. then begin
              let comm = Float.max 0. (dist_done.(c) -. start -. dist_wait.(c)) in
              b.Perfcore.exchange <- b.Perfcore.exchange +. comm;
              b.Perfcore.port <- b.Perfcore.port +. dist_wait.(c);
              b.Perfcore.idle <- b.Perfcore.idle +. (dist_end -. dist_done.(c));
              if comm > 0. then
                add_busy perf.Perfcore.core_busy.(c) busy_buf (dist_done.(c) -. comm)
                  dist_done.(c) comm
            end;
            let t_c = t_tile *. core_skew ~skew fracs.(c) in
            b.Perfcore.compute <- b.Perfcore.compute +. t_c;
            b.Perfcore.idle <- b.Perfcore.idle +. (compute_len -. t_c);
            if t_c > 0. then
              add_busy perf.Perfcore.core_busy.(c) busy_buf dist_end (dist_end +. t_c) t_c;
            if ex_per_core > 0. then begin
              let comm = Float.max 0. (ex_done.(c) -. compute_end -. ex_wait.(c)) in
              b.Perfcore.exchange <- b.Perfcore.exchange +. comm;
              b.Perfcore.port <- b.Perfcore.port +. ex_wait.(c);
              b.Perfcore.idle <- b.Perfcore.idle +. (ex_end -. ex_done.(c));
              if comm > 0. then
                add_busy perf.Perfcore.core_busy.(c) busy_buf (ex_done.(c) -. comm)
                  ex_done.(c) comm
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
        exec_ready := ex_end
  done;
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
         (fg_fabric.tally.link_volume +. pre_fabric.tally.link_volume)
         /. (fabric_capacity chip *. total)
       else 0.);
    noc_util_split =
      (if total > 0. then
         let d = fabric_capacity chip *. total in
         (fg_fabric.tally.link_volume /. d, pre_fabric.tally.link_volume /. d)
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
