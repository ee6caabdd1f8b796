(* perfbench: the repository benchmark.

     dune build ./perfbench/perfbench.exe
     ELK_JOBS=1 _build/default/perfbench/perfbench.exe \
       --workload compile-cold --seed 1 --seconds 10 --trace 0

   (or [python3 perfbench/run.py ...], which builds first).  One process,
   one client, a closed loop at jobs = 1: the next operation starts when
   the previous one has finished.  Workloads (perfbench/README.md has the
   full description and the layer -> end-to-end predictions):

   - compile-cold: one cold [Elk.Compile.compile] per operation, compile
     caches off and a fresh partition context each time;
   - serve-sessions: one [Elk_serve.Frontend.run] session per operation
     on llama2-13b, compile caches warm;
   - plan-replay: [Planio.import], [Verify.run], [Sim.run] with a recorder
     set, and the Critpath / Memprof / Nocprof analyses, per operation, on
     plans compiled and exported during set-up.

   Operations run in rounds over a fixed, seeded input set; a run keeps
   going round after round until at least two rounds and [--seconds]
   of operation time have been measured.  Every operation's outputs are
   checked after its timer stops; a failed check counts the operation as
   failed.  The last stdout line is the JSON result: the end-to-end
   metrics with [--trace 0], the per-layer metrics with [--trace 1]; the
   lines before it are a readable report.  The traced run
   alternates untraced and traced rounds over the same inputs, so it also
   measures the tracing overhead, and writes its spans to
   perfbench/_out/spans-<workload>-<seed>.json. *)

module Z = Elk_model.Zoo
module G = Elk_model.Graph
module D = Elk_dse.Dse
module B = Elk_baselines.Baselines
module P = Elk_partition.Partition
module C = Elk.Compile
module Sim = Elk_sim.Sim
module V = Elk_verify.Verify
module Rng = Elk_util.Xrng
module W = Elk_serve.Workload
module F = Elk_serve.Frontend
module M = Elk_obs.Metrics
module T = Tracer

let now = Unix.gettimeofday


let words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let out_dir = Filename.concat "perfbench" "_out"

(* ------------------------------------------------------------------ *)
(* Statistics                                                         *)
(* ------------------------------------------------------------------ *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest percentile that still has >= 10 samples beyond it:
   (value, percentile, samples beyond). *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (0., 0., 0)
  else if n < 11 then (a.(n - 1), 100., 0)
  else
    let i = n - 11 in
    (a.(i), 100. *. float_of_int (i + 1) /. float_of_int n, 10)

let mean xs =
  match xs with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let per n x = if n = 0 then 0. else x /. float_of_int n

(* ------------------------------------------------------------------ *)
(* Output checks                                                      *)
(* ------------------------------------------------------------------ *)

exception Check_failed of string

let fail fmt = Printf.ksprintf (fun m -> raise (Check_failed m)) fmt

let require what = function
  | Ok () -> ()
  | Error m -> fail "%s: %s" what m

let digest_of parts = Digest.to_hex (Digest.string (String.concat "\x00" parts))
let hexf x = Printf.sprintf "%h" x

(* Accumulated probe timings and sizes from the checks (never part of an
   operation's time). *)
let probes : (string, float * int) Hashtbl.t = Hashtbl.create 16

let probe name x =
  let s, n = Option.value (Hashtbl.find_opt probes name) ~default:(0., 0) in
  Hashtbl.replace probes name (s +. x, n + 1)

let probe_mean name =
  match Hashtbl.find_opt probes name with Some (s, n) -> per n s | None -> 0.

let probe_sum name =
  match Hashtbl.find_opt probes name with Some (s, _) -> s | None -> 0.

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* What the checks learn about one distinct plan. *)
type plan_facts = {
  name : string;  (** the input that first produced the plan. *)
  total : float;  (** Sim.run total with no recorder. *)
  latency : float;  (** simulated per-token latency: [total] + all-reduce. *)
  ideal : float;  (** Baselines.Ideal roofline latency of the same model. *)
  overcommit : bool;  (** the verifier flagged mem.overcommit. *)
  schedule : Elk.Schedule.t;
  ctx : P.ctx;
}

let plans : (string, plan_facts) Hashtbl.t = Hashtbl.create 64
let plan_order : string list ref = ref []

(* Full output check of one plan, done once per distinct plan:
   structural validation, no verifier error, a byte-identical Planio
   export -> import -> export, the same simulated total with every
   recorder on as with none, and the Critpath / Memprof / Nocprof
   invariants on the recorded run.  Returns the plan digest and facts. *)
let check_plan ~name ~ctx ~pod ~graph ~allreduce (s : Elk.Schedule.t) =
  let doc, export_s = timed (fun () -> Elk.Planio.export s) in
  (* Planio documents do not name the chip: the same decisions on two
     topologies export identically, so the key includes the context. *)
  let key = digest_of [ P.fingerprint ctx; doc ] in
  if not (Hashtbl.mem plans key) then begin
    probe "planio.export_s" export_s;
    probe "planio.bytes" (float_of_int (String.length doc));
    require "Schedule.validate" (Elk.Schedule.validate s);
    let program = Elk.Program.of_schedule s in
    require "Program.validate" (Elk.Program.validate program ~n:(Elk.Schedule.num_ops s));
    let report = V.run ~program ctx s in
    if V.errors report > 0 then fail "verifier reported %d error(s)" (V.errors report);
    (match Elk.Planio.import ctx doc with
    | Error m -> fail "Planio.import of an exported plan: %s" m
    | Ok s' ->
        if Elk.Planio.export s' <> doc then fail "Planio export -> import -> export differs");
    let plain, plain_s =
      timed (fun () -> Sim.run ~events:false ~mem:false ~noc:false ctx s)
    in
    let full, full_s = timed (fun () -> Sim.run ~events:true ~mem:true ~noc:true ctx s) in
    if Int64.bits_of_float plain.Sim.total <> Int64.bits_of_float full.Sim.total then
      fail "Sim.run total differs with recorders on (%h vs %h)" full.Sim.total plain.Sim.total;
    (match full.Sim.events with
    | None -> fail "Sim.run recorded no events"
    | Some ev -> require "Critpath.check" (Elk_sim.Critpath.check ev ~total:full.Sim.total));
    require "Memprof.check" (Elk_analyze.Memprof.check (Elk_analyze.Memprof.analyze ctx s full));
    require "Nocprof.check" (Elk_analyze.Nocprof.check (Elk_analyze.Nocprof.analyze s full));
    let events = Elk_sim.Trace.event_count plain in
    probe "sim.plain_s" plain_s;
    probe "sim.all_s" full_s;
    probe "sim.events" (float_of_int events);
    probe "sim.timeline_gap" (Sim.compare_with_timeline ctx s);
    let ideal = (B.run ctx ~pod graph B.Ideal).B.latency in
    let latency = plain.Sim.total +. allreduce in
    if not (Float.is_finite latency && latency > 0. && Float.is_finite ideal && ideal > 0.)
    then fail "nonpositive simulated latency";
    let overcommit =
      List.exists
        (fun (d : Elk_verify.Diag.t) -> d.Elk_verify.Diag.rule = "mem.overcommit")
        report.V.diags
    in
    Hashtbl.replace plans key { name; total = plain.Sim.total; latency; ideal; overcommit; schedule = s; ctx };
    plan_order := key :: !plan_order
  end;
  (key, Hashtbl.find plans key)

let all_plans () = List.rev_map (Hashtbl.find plans) !plan_order

(* plan_latency_us and roofline_frac: geometric means over every use of
   a plan, that is once per operation, or once per decode step served
   (serve-sessions, which passes the session's own step latency). *)
let log_latency = ref 0. and log_roofline = ref 0. and plan_uses = ref 0

let use_plan ~latency ~ideal =
  log_latency := !log_latency +. log latency;
  log_roofline := !log_roofline +. log (ideal /. latency);
  incr plan_uses

let plan_geomean sum = if !plan_uses = 0 then 0. else exp (!sum /. float_of_int !plan_uses)

(* ------------------------------------------------------------------ *)
(* Workloads                                                          *)
(* ------------------------------------------------------------------ *)

(* One operation: [exec ()] is the timed call; it returns the untimed
   check, which raises [Check_failed] on a wrong output and otherwise
   returns a digest of the operation's deterministic outputs. *)
type op = { key : string; exec : unit -> unit -> string }

type prepared = {
  ops : op array;  (** one round, in suite order. *)
  layer_probes : unit -> (string * float) list;
      (** traced run only: extra per-layer measurements. *)
  report : unit -> (string * float * string) list;
      (** workload-specific report lines (name, value, unit). *)
}

let topology_name = function `All_to_all -> "a2a" | `Mesh -> "mesh"

let model name ~factor ~layer_factor =
  match Z.by_name name with
  | Some cfg -> Z.scale cfg ~factor ~layer_factor
  | None -> invalid_arg ("unknown model " ^ name)

(* Timed Dse.env construction: the cost-model training every workload
   pays in set-up. *)
let env_ms = ref []

let make_env topology =
  let env, dt = timed (fun () -> D.env ~topology ()) in
  env_ms := (dt *. 1e3) :: !env_ms;
  env

let ctx_all = [ 64; 128; 192; 256 ]

(* The real allocator windows of a compiled schedule: for each executing
   operator, the operators whose preloads were issued by the end of its
   window and that execute after it, with their chosen plans. *)
let alloc_windows (s : Elk.Schedule.t) =
  let g = s.Elk.Schedule.graph in
  let n = Elk.Schedule.num_ops s in
  let horizon = ref s.Elk.Schedule.windows.(0) in
  List.init n (fun i ->
      horizon := !horizon + s.Elk.Schedule.windows.(i + 1);
      let window = ref [] in
      for k = !horizon - 1 downto 0 do
        let w = s.Elk.Schedule.order.(k) in
        if w > i then window := (G.get g w, s.Elk.Schedule.entries.(w).Elk.Schedule.plan) :: !window
      done;
      (G.get g i, !window))

(* alloc.words_per_call / alloc.us_per_call: Alloc.allocate replayed on
   every plan's real windows, after one warm-up pass fills the partition
   memos. *)
let alloc_replay () =
  let calls = ref 0 and w = ref 0. and t = ref 0. in
  List.iter
    (fun pf ->
      let capacity =
        Elk_arch.Arch.usable_sram_per_core (P.ctx_chip pf.ctx)
      in
      let windows = alloc_windows pf.schedule in
      let pass () =
        List.iter
          (fun (exec_op, window) ->
            ignore (Elk.Alloc.allocate pf.ctx ~capacity ~exec_op ~window))
          windows
      in
      pass ();
      let w0 = words () in
      let (), dt = timed pass in
      w := !w +. (words () -. w0);
      t := !t +. dt;
      calls := !calls + List.length windows)
    (all_plans ());
  [ ("alloc.words_per_call", per !calls !w); ("alloc.us_per_call", per !calls (!t *. 1e6)) ]

(* partition.busy_ms: the partition layer's cold cost for each plan's
   operators — exec frontier plus the chosen plan's preload options, on a
   context with empty memo tables. *)
let partition_cold () =
  let total = ref 0. and n = ref 0 in
  List.iter
    (fun pf ->
      let sharing = P.memo_sharing () in
      P.set_memo_sharing false;
      let ctx = P.make_ctx (P.ctx_cost pf.ctx) in
      P.set_memo_sharing sharing;
      let (), dt =
        timed (fun () ->
            Array.iter
              (fun (node : G.node) ->
                ignore (P.exec_frontier ctx node.G.op);
                ignore
                  (P.preload_options ctx node.G.op
                     pf.schedule.Elk.Schedule.entries.(node.G.id).Elk.Schedule.plan))
              (G.nodes pf.schedule.Elk.Schedule.graph))
      in
      total := !total +. dt;
      incr n)
    (all_plans ());
  [ ("partition.busy_ms", per !n (!total *. 1e3)) ]

(* ---- compile-cold ------------------------------------------------- *)

(* The suite: every zoo model on both topologies, each at a fixed decode
   batch, with the KV context drawn by the seed from a band over which
   that member's compile work is flat (a draw over the whole grid moves
   a single compile by up to 30x, far beyond any regression bound).
   Five members cost 0.3-0.6 s, so the median rests on many samples. *)
let compile_suite =
  [
    ("llama2-13b", `All_to_all, 8, ctx_all);
    ("llama2-13b", `Mesh, 32, [ 256 ]);
    ("gemma2-27b", `All_to_all, 8, ctx_all);
    ("gemma2-27b", `Mesh, 8, ctx_all);
    ("opt-30b", `All_to_all, 32, [ 128 ]);
    ("opt-30b", `Mesh, 32, [ 128 ]);
    ("llama2-70b", `All_to_all, 8, [ 64; 128; 192 ]);
    ("llama2-70b", `Mesh, 32, [ 64; 128 ]);
    ("dit-xl", `All_to_all, 32, ctx_all);
    ("dit-xl", `Mesh, 8, ctx_all);
    ("mixtral-8x7b", `All_to_all, 32, [ 128; 192; 256 ]);
    ("mixtral-8x7b", `Mesh, 8, [ 64; 128; 192 ]);
  ]

let compile_cold ~rng ~setup_env =
  let a2a = setup_env `All_to_all and mesh = setup_env `Mesh in
  let orders_tried = ref [] and memo_entries = ref [] in
  (* Cold: no whole-plan cache, no reorder or suffix memo, no shared
     partition memos. *)
  Elk.Compilecache.set_enabled false;
  let members =
    List.map
      (fun (name, topo, batch, ctxs) ->
        let cfg = model name ~factor:8 ~layer_factor:10 in
        let env = match topo with `All_to_all -> a2a | `Mesh -> mesh in
        (name, topo, cfg, env, batch, Rng.pick rng ctxs))
      compile_suite
  in
  let compile_one (cfg, env, batch, kv) =
    let graph = Z.build cfg (Z.Decode { batch; ctx = kv }) in
    let ctx = P.make_ctx (P.ctx_cost env.D.ctx) in
    (T.with_span "Compile.compile" (fun () -> C.compile ctx ~pod:env.D.pod graph), ctx)
  in
  let ops =
    Array.of_list
      (List.map
         (fun (name, topo, cfg, env, batch, kv) ->
           let key = Printf.sprintf "%s/%s/b%d/ctx%d" name (topology_name topo) batch kv in
           let exec () =
             let t, ctx = compile_one (cfg, env, batch, kv) in
             fun () ->
               orders_tried := float_of_int t.C.orders_tried :: !orders_tried;
               let e, p = P.memo_sizes ctx in
               memo_entries := float_of_int (e + p) :: !memo_entries;
               let digest, facts =
                 check_plan ~name:key ~ctx:env.D.ctx ~pod:env.D.pod ~graph:t.C.graph
                   ~allreduce:t.C.allreduce t.C.schedule
               in
               use_plan ~latency:facts.latency ~ideal:facts.ideal;
               digest_of [ digest; hexf (C.latency t); string_of_int t.C.orders_tried ]
           in
           { key; exec })
         members)
  in
  (* compile.pool_speedup_j2: the two members with the widest order
     search, compiled at jobs = 1 and at jobs = 2; the plans must be
     byte-identical. *)
  let pool_speedup () =
    let wide =
      List.filter
        (fun (name, topo, _, _, _, _) ->
          (name = "llama2-70b" && topo = `All_to_all) || (name = "dit-xl" && topo = `All_to_all))
        members
    in
    let run_at jobs =
      Elk_util.Pool.set_jobs jobs;
      let r =
        List.map
          (fun (_, _, cfg, env, batch, kv) ->
            let (t, _), dt = timed (fun () -> compile_one (cfg, env, batch, kv)) in
            (Elk.Planio.export t.C.schedule, dt))
          wide
      in
      Elk_util.Pool.set_jobs 1;
      r
    in
    let j1 = run_at 1 in
    let j2 = run_at 2 in
    List.iter2
      (fun (d1, _) (d2, _) ->
        if d1 <> d2 then fail "plan differs between jobs = 1 and jobs = 2")
      j1 j2;
    let sum l = List.fold_left (fun a (_, dt) -> a +. dt) 0. l in
    [ ("compile.pool_speedup_j2", sum j1 /. sum j2) ]
  in
  {
    ops;
    layer_probes =
      (fun () ->
        pool_speedup ()
        @ alloc_replay () @ partition_cold ()
        @ [
            ("compile.orders_tried", mean !orders_tried);
            ("partition.memo_entries", mean !memo_entries);
          ]);
    report = (fun () -> []);
  }

(* ---- plan-replay -------------------------------------------------- *)

(* One plan per zoo model, topology fixed per model, context drawn by
   the seed as in compile-cold. *)
let replay_suite =
  [
    ("llama2-13b", `Mesh, 8, ctx_all);
    ("gemma2-27b", `All_to_all, 8, ctx_all);
    ("opt-30b", `Mesh, 8, [ 128; 192 ]);
    ("llama2-70b", `All_to_all, 8, ctx_all);
    ("dit-xl", `Mesh, 8, ctx_all);
    ("mixtral-8x7b", `All_to_all, 32, [ 128; 192; 256 ]);
  ]

let recorder_sets =
  [
    ("off", (false, false, false));
    ("events", (true, false, false));
    ("mem", (false, true, false));
    ("noc", (false, false, true));
    ("all", (true, true, true));
  ]

let plan_replay ~rng ~setup_env =
  let a2a = setup_env `All_to_all and mesh = setup_env `Mesh in
  let exported =
    List.map
      (fun (name, topo, batch, ctxs) ->
        let env = match topo with `All_to_all -> a2a | `Mesh -> mesh in
        let kv = Rng.pick rng ctxs in
        let graph = Z.build (model name ~factor:8 ~layer_factor:10) (Z.Decode { batch; ctx = kv }) in
        let t = C.compile env.D.ctx ~pod:env.D.pod graph in
        let key = Printf.sprintf "%s/%s/b%d/ctx%d" name (topology_name topo) batch kv in
        (key, env, graph, t.C.allreduce, Elk.Planio.export t.C.schedule))
      replay_suite
  in
  let ops =
    Array.of_list
      (List.concat_map
         (fun (pkey, env, graph, allreduce, doc) ->
           let ctx = env.D.ctx in
           List.map
             (fun (rname, (events, mem, noc)) ->
               let exec () =
                 let s =
                   match T.with_span "Planio.import" (fun () -> Elk.Planio.import ctx doc) with
                   | Ok s -> s
                   | Error m -> fail "Planio.import: %s" m
                 in
                 let report =
                   T.with_span "Verify.run" (fun () ->
                       V.run ~rules:Elk_verify.Rules.lint_selection ctx s)
                 in
                 let r = T.with_span "Sim.run" (fun () -> Sim.run ~events ~mem ~noc ctx s) in
                 (match r.Sim.events with
                 | None -> ()
                 | Some ev ->
                     T.with_span "Critpath.analyze" (fun () ->
                         require "Critpath.check" (Elk_sim.Critpath.check ev ~total:r.Sim.total);
                         ignore (Elk_sim.Critpath.extract ev)));
                 if mem then
                   T.with_span "Memprof.analyze" (fun () ->
                       require "Memprof.check"
                         (Elk_analyze.Memprof.check (Elk_analyze.Memprof.analyze ctx s r)));
                 if noc then
                   T.with_span "Nocprof.analyze" (fun () ->
                       require "Nocprof.check"
                         (Elk_analyze.Nocprof.check (Elk_analyze.Nocprof.analyze s r)));
                 fun () ->
                   if V.errors report > 0 then
                     fail "lint reported %d error(s)" (V.errors report);
                   if Elk.Planio.export s <> doc then fail "imported plan exports differently";
                   let digest, facts =
                     check_plan ~name:pkey ~ctx ~pod:env.D.pod ~graph ~allreduce s
                   in
                   use_plan ~latency:facts.latency ~ideal:facts.ideal;
                   if Int64.bits_of_float r.Sim.total <> Int64.bits_of_float facts.total then
                     fail "Sim.run total with recorders %s differs from the plain run" rname;
                   digest_of
                     [ digest; hexf r.Sim.total; string_of_int (List.length report.V.diags) ]
               in
               { key = pkey ^ "/" ^ rname; exec })
             recorder_sets)
         exported)
  in
  {
    ops;
    layer_probes =
      (fun () ->
        let e, p = P.memo_sizes a2a.D.ctx in
        alloc_replay () @ partition_cold ()
        @ [ ("partition.memo_entries", float_of_int (e + p)) ]);
    report = (fun () -> []);
  }

(* ---- serve-sessions ----------------------------------------------- *)

(* llama2-13b at the size of the serve cram test (scale 16, layer factor
   20), so a run holds hundreds of sessions.  The traffic is the CLI's
   `serve` default: 16 requests per session, max batch 8, the
   Workload.preset mixes with mean prompt 128 and mean output 24.  The
   preset's uniform length bands become lognormals with the same mean
   and variance, clamped to the same band.  The CLI's 4 req/s default
   would leave every batch at size 1 at this model size, so the rate is
   the one at which full batches of mean-length requests keep the engine
   exactly busy: 8 / (prefill 765.302 us + 24 x decode step 92.325 us)
   = 2684 req/s.  Those are the simulated Elk-Full latencies of the
   batch-8 plans at context 128 (`elk_cli compare -m llama2-13b --scale
   16 --layer-factor 20 -b 8 --ctx 128 --topo a2a`, with and without
   --prefill), fixed here so that a change in plan quality does not
   change the traffic.  A pool of seeded sessions is served once in
   set-up (cold: every padded shape misses and compiles, later shapes
   resume scheduler suffixes), then round after round with the compile
   cache warm. *)
let serve_pool = 64
let serve_requests = 16
let serve_max_batch = 8
let serve_prompt_mean = 128
let serve_output_mean = 24
let serve_rate = 2684.
let serve_recompile_every = 64

let lognormal_of_band = function
  | W.Uniform { lo; hi } ->
      let sigma2 = log (1. +. (1. /. 12.)) in
      W.Lognormal
        { mu = log (float_of_int (lo + hi) /. 2.) -. (sigma2 /. 2.); sigma = sqrt sigma2; lo; hi }
  | d -> d

let session_spec i =
  let name = List.nth W.preset_names (i mod List.length W.preset_names) in
  match
    W.preset name ~rate:serve_rate ~prompt_mean:serve_prompt_mean
      ~output_mean:serve_output_mean
  with
  | Some s -> { s with W.prompt = lognormal_of_band s.W.prompt; output = lognormal_of_band s.W.output }
  | None -> invalid_arg ("unknown workload preset " ^ name)

let round_up v q = (v + q - 1) / q * q

let serve_sessions ~rng ~setup_env =
  let env = setup_env `All_to_all in
  let cfg = model "llama2-13b" ~factor:16 ~layer_factor:20 in
  Elk.Compilecache.set_enabled true;
  let sessions =
    List.init serve_pool (fun i ->
        let seed = Rng.int rng 1_000_000_000 in
        (i, seed, W.generate ~seed ~n:serve_requests (session_spec i)))
  in
  let serve reqs =
    F.run ~max_batch:serve_max_batch ~recompile_every:serve_recompile_every env cfg reqs
  in
  (* Warm-up: the set-up pass that pays every miss. *)
  List.iter (fun (_, _, reqs) -> ignore (serve reqs)) sessions;
  let chips = env.D.pod.Elk_arch.Arch.chips in
  let shapes = Hashtbl.create 16 in
  let slo_ttft = ref [] and slo_itl = ref [] and seen = Hashtbl.create 16 in
  let distinct = ref [] and fresh = ref [] in
  let plan_of (shape : Z.phase) =
    match Hashtbl.find_opt shapes shape with
    | Some facts -> facts
    | None -> (
        let graph = Z.build cfg shape in
        let name =
          match shape with
          | Z.Decode { batch; ctx } -> Printf.sprintf "decode/b%d/ctx%d" batch ctx
          | Z.Prefill { batch; seq } -> Printf.sprintf "prefill/b%d/seq%d" batch seq
        in
        match B.plan env.D.ctx ~pod:env.D.pod graph B.Elk_full with
        | None -> fail "no Elk-Full plan for %s" name
        | Some s ->
            let allreduce =
              Elk.Sharding.allreduce_time env.D.pod (Elk.Sharding.shard_graph ~chips graph)
            in
            let _, facts = check_plan ~name ~ctx:env.D.ctx ~pod:env.D.pod ~graph ~allreduce s in
            Hashtbl.replace shapes shape facts;
            facts)
  in
  (* The plans a session ran on, rebuilt from its batches: the prefill
     plan of the padded batch and prompt, then for decode step [k] the
     plan of the padded batch at context [b_prompt_ctx + k] rounded up to
     [recompile_every] (Serve.serve's contract).  Replaying the
     front-end's clock with the rebuilt plans' latencies must give every
     step end bit for bit, so the checked plans are the served ones.
     Each timed step weighs the plan metrics with the session's own step
     latency. *)
  let same a b = Int64.bits_of_float a = Int64.bits_of_float b in
  let check_batches (r : F.result) =
    List.iter
      (fun (b : F.batch_trace) ->
        let batch = b.F.b_bucket in
        let prefill = plan_of (Z.Prefill { batch; seq = b.F.b_prompt_ctx }) in
        if not (same prefill.latency b.F.b_prefill) then
          fail "batch %d: prefill latency %h, rebuilt plan %h" b.F.b_id b.F.b_prefill
            prefill.latency;
        let prefill_end = b.F.b_formed +. b.F.b_prefill in
        let clock = ref prefill_end in
        Array.iteri
          (fun k step_end ->
            let ctx = round_up (b.F.b_prompt_ctx + k) serve_recompile_every in
            let decode = plan_of (Z.Decode { batch; ctx }) in
            clock := !clock +. decode.latency;
            if not (same !clock step_end) then
              fail "batch %d step %d: ends at %h, rebuilt plans give %h" b.F.b_id k step_end !clock;
            let start = if k = 0 then prefill_end else b.F.b_step_ends.(k - 1) in
            use_plan ~latency:(step_end -. start) ~ideal:decode.ideal)
          b.F.b_step_ends)
      r.F.batches
  in
  let ops =
    Array.of_list
      (List.map
         (fun (i, seed, reqs) ->
           let exec () =
             let r = T.with_span "Frontend.run" (fun () -> serve reqs) in
             fun () ->
               let rep =
                 Elk_serve.Slo.of_result ~workload:"perfbench" ~seed r
               in
               if List.length r.F.requests <> serve_requests then
                 fail "session %d completed %d of %d requests" i
                   (List.length r.F.requests) serve_requests;
               check_batches r;
               distinct := float_of_int r.F.distinct_shapes :: !distinct;
               fresh := float_of_int r.F.recompilations :: !fresh;
               if not (Hashtbl.mem seen i) then begin
                 Hashtbl.replace seen i ();
                 List.iter
                   (fun (t : F.req_trace) ->
                     slo_ttft := F.ttft t :: !slo_ttft;
                     slo_itl := t.F.itls @ !slo_itl)
                   r.F.requests
               end;
               Digest.to_hex (Digest.string (Elk_serve.Slo.to_json rep))
           in
           { key = Printf.sprintf "session%02d" i; exec })
         sessions)
  in
  (* Simulated SLO figures over every request of the pool. *)
  let ttft_p99_ms () = (Elk_serve.Slo.pct_of !slo_ttft).Elk_serve.Slo.p99 *. 1e3 in
  let itl_p50_ms () = (Elk_serve.Slo.pct_of !slo_itl).Elk_serve.Slo.p50 *. 1e3 in
  {
    ops;
    layer_probes =
      (fun () ->
        alloc_replay () @ partition_cold ()
        @ [
            ("slo.ttft_p99_ms", ttft_p99_ms ());
            ("slo.itl_p50_ms", itl_p50_ms ());
            ("frontend.distinct_shapes", mean !distinct);
            ("frontend.fresh_plans", mean !fresh);
            ("partition.memo_entries", float_of_int (fst (P.memo_sizes env.D.ctx) + snd (P.memo_sizes env.D.ctx)));
          ]);
    report =
      (fun () ->
        [
          ("sim_ttft_p99_ms", ttft_p99_ms (), "ms (simulated)");
          ("sim_itl_p50_ms", itl_p50_ms (), "ms (simulated)");
        ]);
  }

let workloads =
  [
    ("compile-cold", compile_cold);
    ("serve-sessions", serve_sessions);
    ("plan-replay", plan_replay);
  ]

(* ------------------------------------------------------------------ *)
(* Per-layer attribution                                              *)
(* ------------------------------------------------------------------ *)

let layer_of = function
  | "op" -> "bench"
  | "Compile.compile" | "compile" | "shard" -> "compile"
  | "compile.cache" -> "compilecache"
  | "order-gen" -> "reorder"
  | "schedule" -> "scheduler"
  | "allocate" -> "alloc"
  | "timeline-eval" -> "timeline"
  | "sim-run" | "Sim.run" -> "sim"
  | "Verify.check" | "Verify.run" -> "verify"
  | "Planio.import" -> "planio"
  | "Critpath.analyze" -> "critpath"
  | "Memprof.analyze" -> "memprof"
  | "Nocprof.analyze" -> "nocprof"
  | "Frontend.run" -> "frontend"
  | "serve-plan" | "serve-prefill-plan" -> "serve"
  | n -> n

(* The Elk_obs counters the traced rounds read. *)
let counters =
  [
    "elk_scheduler_runs_total";
    "elk_compile_orders_pruned_total";
    "elk_scheduler_backtracks_total";
    "elk_scheduler_popt_demotions_total";
    "elk_compile_orders_tried_total";
    "elk_verify_diags_total";
  ]

let counter_snapshot () =
  List.map (fun c -> (c, Option.value (M.counter_value c) ~default:0.)) counters

(* ------------------------------------------------------------------ *)
(* The run                                                            *)
(* ------------------------------------------------------------------ *)

type sample = { s_key : string; s_time : float; s_words : float; s_traced : bool }

let usage () =
  prerr_endline
    "usage: perfbench --workload (compile-cold|serve-sessions|plan-replay) --seed N \
     --seconds S --trace (0|1)";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref (-1) in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := (try int_of_string v with _ -> usage ()); parse rest
    | "--seconds" :: v :: rest -> seconds := (try float_of_string v with _ -> usage ()); parse rest
    | "--trace" :: v :: rest -> trace := (try int_of_string v with _ -> usage ()); parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let make =
    match List.assoc_opt !workload workloads with Some m -> m | None -> usage ()
  in
  if !seed < 0 || !seconds <= 0. || (!trace <> 0 && !trace <> 1) then usage ();
  let traced_run = !trace = 1 in
  Elk_util.Pool.set_jobs 1;
  (* The verifier hook Elk_verify installs, wrapped in a span so the
     traced run sees the compile-time verification gate. *)
  C.set_verifier (Some (fun ctx s p -> T.with_span "Verify.check" (fun () -> V.check ctx s p)));
  (* ---- set-up: once before the rounds (kept), twice after them ---- *)
  let setup_times = ref [] in
  let setup () =
    Elk.Compilecache.reset ();
    Elk.Compilecache.set_enabled true;
    let t0 = now () in
    let p = make ~rng:(Rng.create !seed) ~setup_env:make_env in
    setup_times := (now () -. t0) :: !setup_times;
    p
  in
  let p = setup () in
  Gc.compact ();
  (* ---- measured rounds ---- *)
  let order_rng = Rng.create (!seed + 1) in
  let samples = ref [] and attempted = ref 0 and failed = ref 0 in
  let failures = ref [] in
  let outputs = Hashtbl.create 64 in
  let first_round = ref [] in
  let measured = ref 0. and rounds = ref 0 in
  let gc0 = Gc.quick_stat () in
  let c_before = ref (counter_snapshot ()) and c_delta = Hashtbl.create 8 in
  let cc_delta = ref (0, 0, 0, 0) in
  let note_failure key msg =
    incr failed;
    if List.length !failures < 8 then failures := (key ^ ": " ^ msg) :: !failures
  in
  let run_round ~traced =
    T.enabled := traced;
    if traced then Elk_obs.Control.enable () else Elk_obs.Control.disable ();
    let cs0 = Elk.Compilecache.stats () in
    c_before := counter_snapshot ();
    let order = Rng.shuffle order_rng (Array.to_list p.ops) in
    List.iter
      (fun op ->
        incr attempted;
        T.current_op := !attempted;
        let w0 = words () and t0 = now () in
        let result =
          try Ok (T.with_span "op" op.exec) with
          | Check_failed m -> Error m
          | e -> Error (Printexc.to_string e)
        in
        let dt = now () -. t0 and dw = words () -. w0 in
        T.absorb_program_spans ();
        T.enabled := false;
        Elk_obs.Control.disable ();
        (match result with
        | Error m -> note_failure op.key m
        | Ok check -> (
            match check () with
            | exception Check_failed m -> note_failure op.key m
            | exception e -> note_failure op.key (Printexc.to_string e)
            | digest ->
                let mismatch =
                  (match Hashtbl.find_opt outputs op.key with
                  | Some d when d <> digest -> Some "outputs differ between rounds"
                  | _ -> None)
                in
                (match mismatch with
                | Some m -> note_failure op.key m
                | None ->
                    Hashtbl.replace outputs op.key digest;
                    if !rounds = 0 && not traced then first_round := (op.key, digest, dw) :: !first_round;
                    samples := { s_key = op.key; s_time = dt; s_words = dw; s_traced = traced } :: !samples)));
        measured := !measured +. dt;
        T.enabled := traced;
        if traced then Elk_obs.Control.enable ())
      order;
    T.enabled := false;
    if traced then begin
      let after = counter_snapshot () in
      List.iter2
        (fun (c, a) (_, b) ->
          Hashtbl.replace c_delta c (Option.value (Hashtbl.find_opt c_delta c) ~default:0. +. b -. a))
        !c_before after;
      let cs1 = Elk.Compilecache.stats () in
      let h, m, r, o = !cc_delta in
      cc_delta :=
        ( h + cs1.Elk.Compilecache.plan_hits - cs0.Elk.Compilecache.plan_hits,
          m + cs1.Elk.Compilecache.plan_misses - cs0.Elk.Compilecache.plan_misses,
          r + cs1.Elk.Compilecache.sched_resumes - cs0.Elk.Compilecache.sched_resumes,
          o + cs1.Elk.Compilecache.reorder_hits - cs0.Elk.Compilecache.reorder_hits )
    end;
    Elk_obs.Control.disable ()
  in
  (* At least two rounds, so every input's outputs are compared across
     rounds.  A compile-cold round takes 6-10 s on a shared 2-vCPU VM, so
     at --seconds 10 it runs exactly two whatever the machine's speed. *)
  while !measured < !seconds || !rounds < 2 do
    run_round ~traced:false;
    if traced_run then run_round ~traced:true;
    incr rounds
  done;
  let gc1 = Gc.quick_stat () in
  (* ---- cross-process determinism: the first round must match any
     earlier run of this binary with the same workload, seed and mode ---- *)
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  let det_path =
    Filename.concat out_dir (Printf.sprintf "det-%s-%d-t%d.txt" !workload !seed !trace)
  in
  let exe = Digest.to_hex (Digest.file Sys.executable_name) in
  let det_lines =
    exe
    :: List.rev_map
         (fun (k, d, w) -> Printf.sprintf "%s %s %.0f" k d w)
         !first_round
  in
  (match In_channel.with_open_text det_path In_channel.input_all with
  | exception Sys_error _ -> ()
  | prev ->
      let prev = String.split_on_char '\n' (String.trim prev) in
      if List.hd prev = exe && prev <> det_lines then
        note_failure "determinism" "first round differs from an earlier run with the same seed");
  Out_channel.with_open_text det_path (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) det_lines);
  (* ---- traced-run probes ---- *)
  let layer_probe_values =
    if traced_run then
      try p.layer_probes () with
      | Check_failed m -> note_failure "layer-probes" m; []
      | e -> note_failure "layer-probes" (Printexc.to_string e); []
    else []
  in
  (* The later set-ups are timed but not used.  Host load on a shared VM
     changes over seconds, so set-ups at both ends of the run sample two
     stretches of it where back-to-back set-ups sample one. *)
  for _ = 1 to 2 do
    ignore (setup ())
  done;
  (* ---- end-to-end metrics ---- *)
  let untraced = List.filter (fun s -> not s.s_traced) !samples in
  let times = List.map (fun s -> s.s_time) untraced in
  let n_ok = List.length untraced in
  let total_time = List.fold_left ( +. ) 0. times in
  let tail_v, tail_pct, tail_beyond = tail times in
  let facts = all_plans () in
  let heap_mb =
    float_of_int (gc1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  (* Host time per operation and the peak heap.  Reported, but not among
     the JSON's end-to-end metrics: between runs minutes apart on a shared
     2-vCPU VM they moved by up to 30% (perfbench/README.md, "Noise"),
     more than the 0.25 a BENCHMARK.json bound may reach.  The traced run
     carries them as the op.* per-layer metrics. *)
  let host =
    [
      ("ops_per_s", (if total_time > 0. then float_of_int n_ok /. total_time else 0.), "ops/s");
      ("op_p50_ms", median times *. 1e3, "ms");
      ("op_tail_ms", tail_v *. 1e3, "ms");
      ("peak_heap_mb", heap_mb, "MB");
    ]
  in
  let e2e =
    [
      ("setup_s", median !setup_times, "s");
      ("alloc_mwords_per_op", mean (List.map (fun s -> s.s_words) untraced) /. 1e6, "Mwords");
      ("plan_latency_us", plan_geomean log_latency *. 1e6, "us");
      ("roofline_frac", plan_geomean log_roofline, "ratio");
    ]
  in
  let overcommit_share =
    per (List.length facts)
      (float_of_int (List.length (List.filter (fun f -> f.overcommit) facts)))
  in
  (* ---- per-layer metrics (traced run) ---- *)
  let per_layer =
    if not traced_run then []
    else begin
      let spans = T.spans () in
      let selfs = T.self_times spans in
      let traced = List.filter (fun s -> s.s_traced) !samples in
      let n = List.length traced in
      let self_ms layer =
        per n
          (1e3
          *. List.fold_left
               (fun a ((s : T.span), st) -> if layer_of s.T.name = layer then a +. st else a)
               0. selfs)
      in
      let count names =
        per n (float_of_int (List.length (List.filter (fun (s : T.span) -> List.mem s.T.name names) spans)))
      in
      let mean_span name =
        let ds =
          List.filter_map
            (fun (s : T.span) -> if s.T.name = name then Some (s.T.stop -. s.T.start) else None)
            spans
        in
        mean ds
      in
      let delta c = per n (Option.value (Hashtbl.find_opt c_delta c) ~default:0.) in
      let hits, misses, resumes, reorder_hits = !cc_delta in
      let untraced_sum = List.fold_left (fun a s -> a +. s.s_time) 0. untraced in
      let traced_sum = List.fold_left (fun a s -> a +. s.s_time) 0. traced in
      let probe v name = Option.value (List.assoc_opt name layer_probe_values) ~default:v in
      let sim_all = probe_sum "sim.all_s" and sim_plain = probe_sum "sim.plain_s" in
      let layers =
        List.map (fun (n, v, u) -> ("op." ^ n, v, u)) host
        @ [
          ("alloc.calls", count [ "allocate" ], "count/op");
          ("alloc.busy_ms", self_ms "alloc", "ms/op");
          ("alloc.words_per_call", probe 0. "alloc.words_per_call", "words");
          ("alloc.us_per_call", probe 0. "alloc.us_per_call", "us");
          ("partition.busy_ms", probe 0. "partition.busy_ms", "ms/plan");
          ("partition.memo_entries", probe 0. "partition.memo_entries", "count");
          ("scheduler.runs", delta "elk_scheduler_runs_total", "count/op");
          ("scheduler.busy_ms", self_ms "scheduler", "ms/op");
          ("scheduler.pruned", delta "elk_compile_orders_pruned_total", "count/op");
          ("scheduler.backtracks", delta "elk_scheduler_backtracks_total", "count/op");
          ("scheduler.popt_demotions", delta "elk_scheduler_popt_demotions_total", "count/op");
          ("reorder.busy_ms", self_ms "reorder", "ms/op");
          ("reorder.orders", delta "elk_compile_orders_tried_total", "count/op");
          ("timeline.evals", count [ "timeline-eval" ], "count/op");
          ("timeline.busy_ms", self_ms "timeline", "ms/op");
          ("compile.busy_ms", self_ms "compile", "ms/op");
          ("compile.orders_tried", probe 0. "compile.orders_tried", "count");
          ("compile.pool_speedup_j2", probe 0. "compile.pool_speedup_j2", "ratio");
          ( "compilecache.hit_ratio",
            (if hits + misses = 0 then 0. else float_of_int hits /. float_of_int (hits + misses)),
            "ratio" );
          ("compilecache.busy_ms", self_ms "compilecache", "ms/op");
          ("compilecache.sched_resumes", per n (float_of_int resumes), "count/op");
          ("compilecache.reorder_hits", per n (float_of_int reorder_hits), "count/op");
          ("verify.calls", count [ "Verify.check"; "Verify.run" ], "count/op");
          ("verify.busy_ms", self_ms "verify", "ms/op");
          ("verify.diags", delta "elk_verify_diags_total", "count/op");
          ("verify.overcommit_share", overcommit_share, "ratio");
          ("sim.runs", count [ "sim-run" ], "count/op");
          ("sim.busy_ms", self_ms "sim", "ms/op");
          ("sim.events", probe_mean "sim.events", "count/run");
          ( "sim.host_us_per_event",
            (if probe_sum "sim.events" > 0. then sim_plain *. 1e6 /. probe_sum "sim.events" else 0.),
            "us" );
          ("sim.recorder_overhead", (if sim_plain > 0. then sim_all /. sim_plain else 0.), "ratio");
          ("sim.timeline_gap", probe_mean "sim.timeline_gap", "ratio");
          ("critpath.busy_ms", self_ms "critpath", "ms/op");
          ("memprof.busy_ms", self_ms "memprof", "ms/op");
          ("nocprof.busy_ms", self_ms "nocprof", "ms/op");
          ("planio.import_ms", mean_span "Planio.import" *. 1e3, "ms/call");
          ("planio.export_ms", probe_mean "planio.export_s" *. 1e3, "ms/call");
          ("planio.bytes", probe_mean "planio.bytes", "bytes");
          ("frontend.busy_ms", self_ms "frontend", "ms/op");
          ("frontend.distinct_shapes", probe 0. "frontend.distinct_shapes", "count/op");
          ("frontend.fresh_plans", probe 0. "frontend.fresh_plans", "count/op");
          ("serve.busy_ms", self_ms "serve", "ms/op");
          ("slo.ttft_p99_ms", probe 0. "slo.ttft_p99_ms", "ms");
          ("slo.itl_p50_ms", probe 0. "slo.itl_p50_ms", "ms");
          ("dse.env_ms", median !env_ms, "ms");
          ( "gc.minor_collections",
            per (List.length !samples) (float_of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections)),
            "count/op" );
          ( "gc.major_collections",
            per (List.length !samples) (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections)),
            "count/op" );
          ( "trace.overhead_pct",
            (if untraced_sum > 0. then 100. *. (traced_sum -. untraced_sum) /. untraced_sum else 0.),
            "%" );
        ]
      in
      (* Self-time shares of the operation, per layer (they sum to 100%). *)
      let op_ms =
        per n
          (1e3
          *. List.fold_left
               (fun a (s : T.span) -> if s.T.name = "op" then a +. (s.T.stop -. s.T.start) else a)
               0. spans)
      in
      let shown = Hashtbl.create 16 in
      List.iter (fun ((s : T.span), _) -> Hashtbl.replace shown (layer_of s.T.name) ()) selfs;
      let shares =
        Hashtbl.fold (fun l () acc -> (l, self_ms l) :: acc) shown []
        |> List.sort (fun (_, a) (_, b) -> compare b a)
      in
      Printf.printf "self time per operation (traced rounds, %d ops, %.1f ms/op):\n" n op_ms;
      List.iter
        (fun (l, ms) ->
          Printf.printf "  %-14s %10.3f ms  %6.2f%%\n" l ms (if op_ms > 0. then 100. *. ms /. op_ms else 0.))
        shares;
      (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
      T.write_chrome
        ~path:(Filename.concat out_dir (Printf.sprintf "spans-%s-%d.json" !workload !seed))
        ~layer_of spans;
      layers
    end
  in
  (* ---- report ---- *)
  Printf.printf "workload %s, seed %d, %d round(s), %d operation(s), %.2f s measured\n"
    !workload !seed !rounds !attempted !measured;
  List.iter (fun (n, v, u) -> Printf.printf "  %-22s %14.6g %s\n" n v u) (e2e @ host);
  Printf.printf "  %-22s %14.6g %s (p%.1f, %d samples beyond, %d samples)\n" "op_tail_ms" (tail_v *. 1e3) "ms"
    tail_pct tail_beyond n_ok;
  Printf.printf "  %-22s %14.6g ratio (%d of %d)\n" "failed_share"
    (per !attempted (float_of_int !failed)) !failed !attempted;
  Printf.printf "  %-22s %14.6g ratio (%d plans)\n" "overcommit_share" overcommit_share
    (List.length facts);
  Printf.printf "  %-22s %14.6g ratio (|sim - analytic| / sim, mean over plans)\n" "timeline_gap"
    (probe_mean "sim.timeline_gap");
  List.iter (fun (n, v, u) -> Printf.printf "  %-22s %14.6g %s\n" n v u) (p.report ());
  let keys = List.sort_uniq compare (List.map (fun s -> s.s_key) untraced) in
  if List.length keys <= 32 then
    List.iter
      (fun k ->
        let ts = List.filter_map (fun s -> if s.s_key = k then Some s.s_time else None) untraced in
        Printf.printf "  input %-32s %10.3f ms median of %d\n" k (median ts *. 1e3) (List.length ts))
      keys;
  List.iter
    (fun f ->
      Printf.printf "  plan %-28s %10.3f us  ideal %10.3f us%s\n" f.name (f.latency *. 1e6)
        (f.ideal *. 1e6) (if f.overcommit then "  mem.overcommit" else ""))
    facts;
  List.iter (fun m -> Printf.printf "FAILED %s\n" m) (List.rev !failures);
  let metrics =
    List.map
      (fun (n, v, u) ->
        let v = if Float.is_finite v then v else 0. in
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" n v u)
      (if traced_run then per_layer else e2e)
  in
  let correct = !failed = 0 && n_ok > 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    !attempted !failed (String.concat ", " metrics)
