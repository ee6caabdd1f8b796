(* Memory observability: Memtrace recording, the Residency ledger, and
   the Memprof report that cross-checks them. *)

module Mt = Elk_sim.Memtrace
module Mp = Elk_analyze.Memprof
module Rd = Elk.Residency
module P = Elk_partition.Partition
module A = Elk_arch.Arch

let ctx () = Lazy.force Tu.default_ctx
let sched () = Lazy.force Tu.tiny_schedule

let result = lazy (Elk_sim.Sim.run ~mem:true (ctx ()) (sched ()))
let report = lazy (Mp.analyze (ctx ()) (sched ()) (Lazy.force result))

let capacity () = A.usable_sram_per_core (P.ctx_chip (ctx ()))
let cores () = (P.ctx_chip (ctx ())).A.cores

(* Recording is opt-in and pure bookkeeping: off-mode runs carry no
   record, and the simulated timeline is identical either way. *)
let test_off_by_default () =
  let r = Elk_sim.Sim.run ~mem:false (ctx ()) (sched ()) in
  Alcotest.(check bool) "no record" true (r.Elk_sim.Sim.mem = None)

let test_zero_cost () =
  let r_off = Elk_sim.Sim.run ~mem:false (ctx ()) (sched ()) in
  let r_on = Lazy.force result in
  Tu.check_float "total identical" r_off.Elk_sim.Sim.total
    r_on.Elk_sim.Sim.total;
  Alcotest.(check bool) "record present" true (r_on.Elk_sim.Sim.mem <> None)

(* The memory invariants, as `elk mem` enforces them. *)
let test_check_passes () =
  match Mp.check (Lazy.force report) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "check failed: %s" m

(* The static ledger must bound the dynamic replay: every byte the
   simulator holds was reserved by the liveness replay first. *)
let test_static_bounds_dynamic () =
  let rep = Lazy.force report in
  Alcotest.(check bool) "static >= dynamic" true
    (rep.Mp.static_high_water +. 1e-6 >= rep.Mp.dyn_high_water)

(* Core 0 holds every buffer (preloads broadcast to all cores, execute
   footprints start at core 0), so its occupancy is pointwise maximal. *)
let test_core0_pointwise_max () =
  let m = Option.get (Lazy.force result).Elk_sim.Sim.mem in
  let hw0 = Mt.core_high_water m 0 in
  for c = 1 to Mt.cores m - 1 do
    Alcotest.(check bool) "core 0 bounds" true (Mt.core_high_water m c <= hw0 +. 1e-9)
  done

let test_chip_peak_consistent () =
  let m = Option.get (Lazy.force result).Elk_sim.Sim.mem in
  Alcotest.(check bool) "chip peak <= cores x per-core peak" true
    (Mt.chip_high_water m
    <= (Mt.high_water m *. float_of_int (Mt.cores m)) +. 1e-6)

(* Wasted residency integrals are non-negative and match the recorded
   timestamps. *)
let test_waste_nonnegative () =
  let m = Option.get (Lazy.force result).Elk_sim.Sim.mem in
  for op = 0 to Mt.num_ops m - 1 do
    Alcotest.(check bool) "pre >= 0" true (Mt.pre_use_waste m op >= 0.);
    Alcotest.(check bool) "post >= 0" true (Mt.post_use_waste m op >= 0.);
    let om = Mt.op_mem m op in
    Tu.check_close ~eps:1e-3 "pre formula"
      (om.Mt.m_preload_bytes *. float_of_int (Mt.cores m)
      *. Float.max 0. (om.Mt.m_first_use -. om.Mt.m_deliver))
      (Mt.pre_use_waste m op)
  done

(* Occupancy change points are chronological with duplicate times
   collapsed, and the series ends drained (all buffers released). *)
let test_occupancy_shape () =
  let m = Option.get (Lazy.force result).Elk_sim.Sim.mem in
  let occ = Mt.occupancy m ~core:0 in
  Alcotest.(check bool) "nonempty" true (occ <> []);
  let rec mono = function
    | (t1, _) :: ((t2, _) :: _ as rest) -> t1 < t2 && mono rest
    | _ -> true
  in
  Alcotest.(check bool) "strictly increasing times" true (mono occ);
  let _, last = List.nth occ (List.length occ - 1) in
  Tu.check_close ~eps:1e-6 "drains to zero" 0. last

(* The static ledger: one preload + one execute buffer per operator,
   sane lifetimes, and a high water equal to the max step usage. *)
let test_ledger_shape () =
  let s = sched () in
  let ledger = Rd.of_schedule ~capacity:(capacity ()) ~cores:(cores ()) s in
  let n = Array.length s.Elk.Schedule.entries in
  Alcotest.(check int) "hbm rows" n (List.length ledger.Rd.hbm);
  List.iter
    (fun (b : Rd.buffer) ->
      Alcotest.(check bool) "lifetime ordered" true
        (b.Rd.alloc_step <= b.Rd.first_use
        && b.Rd.first_use <= b.Rd.last_use
        && b.Rd.last_use <= b.Rd.free_step);
      Alcotest.(check bool) "bytes nonneg" true (b.Rd.bytes >= 0.))
    ledger.Rd.buffers;
  let usage = Rd.step_usage s in
  let max_usage = Array.fold_left Float.max 0. usage in
  Tu.check_close ~eps:1e-6 "high water = max step usage" max_usage
    ledger.Rd.high_water;
  List.iter
    (fun h ->
      Alcotest.(check bool) "hbm row sane" true
        (h.Rd.h_bytes >= 0. && h.Rd.h_moves >= 0 && h.Rd.h_reuse_distance >= 0))
    ledger.Rd.hbm

let test_issued_counts_monotone () =
  let s = sched () in
  let issued = Rd.issued_counts s in
  let n = Array.length issued in
  for i = 1 to n - 1 do
    Alcotest.(check bool) "monotone" true (issued.(i) >= issued.(i - 1))
  done;
  Alcotest.(check int) "all issued at the end" n issued.(n - 1)

(* The JSON snapshot is deterministic: two independent simulations of
   the same schedule serialize to the same bytes. *)
let test_json_deterministic () =
  let mk () =
    let r = Elk_sim.Sim.run ~mem:true (ctx ()) (sched ()) in
    Mp.to_json ~top:6 (Mp.analyze (ctx ()) (sched ()) r)
  in
  Alcotest.(check string) "byte-identical" (mk ()) (mk ())

let test_analyze_requires_record () =
  let r = Elk_sim.Sim.run ~mem:false (ctx ()) (sched ()) in
  Alcotest.check_raises "needs record"
    (Invalid_argument
       "Memprof.analyze: simulator run has no memory record (run with \
        ~mem:true)")
    (fun () -> ignore (Mp.analyze (ctx ()) (sched ()) r))

(* Allocation failures carry a diagnosis: the offending operator, the
   demand and the capacity — and the option-returning wrapper stays
   behaviorally identical. *)
let test_alloc_error_diagnosis () =
  let g = Lazy.force Tu.tiny_llama_chip_graph in
  let exec_op = Elk_model.Graph.get g 2 in
  let tiny = 64. in
  (match Elk.Alloc.allocate_or_error (ctx ()) ~capacity:tiny ~exec_op ~window:[] with
  | Ok _ -> Alcotest.fail "expected allocation failure at 64 B/core"
  | Error msg ->
      let has needle =
        let nl = String.length needle and ml = String.length msg in
        let rec go i = i + nl <= ml && (String.sub msg i nl = needle || go (i + 1)) in
        nl = 0 || go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "message names the operator: %s" msg)
        true
        (has exec_op.Elk_model.Graph.op.Elk_tensor.Opspec.name);
      Alcotest.(check bool) "message carries the capacity" true (has "B/core"));
  Alcotest.(check bool) "wrapper agrees" true
    (Elk.Alloc.allocate (ctx ()) ~capacity:tiny ~exec_op ~window:[] = None)

let test_alloc_ok_roundtrip () =
  let g = Lazy.force Tu.tiny_llama_chip_graph in
  let exec_op = Elk_model.Graph.get g 2 in
  let cap = capacity () in
  match Elk.Alloc.allocate_or_error (ctx ()) ~capacity:cap ~exec_op ~window:[] with
  | Error m -> Alcotest.failf "expected success at full capacity: %s" m
  | Ok _ ->
      Alcotest.(check bool) "wrapper agrees" true
        (Elk.Alloc.allocate (ctx ()) ~capacity:cap ~exec_op ~window:[] <> None)

(* -- Address intervals: Alloc.overlaps half-open semantics. -- *)

let mk_alloc ?(op = 0) ?(kind = Rd.Preload) base size =
  { Elk.Alloc.a_op = op; a_kind = kind; a_base = base; a_size = size }

let test_overlaps_half_open () =
  let ov a b = Elk.Alloc.overlaps a b in
  Alcotest.(check bool) "touching [0,4)/[4,8)" false
    (ov (mk_alloc 0. 4.) (mk_alloc 4. 4.));
  Alcotest.(check bool) "touching, swapped" false
    (ov (mk_alloc 4. 4.) (mk_alloc 0. 4.));
  Alcotest.(check bool) "zero-size at the boundary" false
    (ov (mk_alloc 4. 0.) (mk_alloc 0. 4.));
  Alcotest.(check bool) "zero-size inside a live interval" false
    (ov (mk_alloc 0. 4.) (mk_alloc 2. 0.));
  Alcotest.(check bool) "two zero-size at the same base" false
    (ov (mk_alloc 1. 0.) (mk_alloc 1. 0.));
  Alcotest.(check bool) "partial overlap" true
    (ov (mk_alloc 0. 100.) (mk_alloc 50. 100.));
  Alcotest.(check bool) "containment" true
    (ov (mk_alloc 0. 100.) (mk_alloc 25. 10.));
  Alcotest.(check bool) "identical intervals" true
    (ov (mk_alloc 8. 8.) (mk_alloc 8. 8.));
  Alcotest.(check bool) "one byte past the seam" true
    (ov (mk_alloc 0. 5.) (mk_alloc 4. 4.))

(* -- Residency ledger edge cases. -- *)

(* Zero-byte buffers: an operator whose preload option carries no bytes
   contributes neither a ledger row nor an address interval, and its HBM
   row records zero moves. *)
let test_residency_zero_byte () =
  let s = sched () in
  let entries = Array.copy s.Elk.Schedule.entries in
  let victim = 1 in
  let e = entries.(victim) in
  entries.(victim) <-
    {
      e with
      Elk.Schedule.popt =
        {
          e.Elk.Schedule.popt with
          P.preload_space = 0.;
          hbm_device_bytes = 0.;
          noc_inject_bytes = 0.;
        };
    };
  let s' = { s with Elk.Schedule.entries = entries } in
  (match Elk.Schedule.validate s' with
  | Ok () -> ()
  | Error m -> Alcotest.failf "mutated schedule invalid: %s" m);
  let ledger = Rd.of_schedule ~capacity:(capacity ()) ~cores:(cores ()) s' in
  Alcotest.(check bool) "no preload ledger row" false
    (List.exists
       (fun b -> b.Rd.op = victim && b.Rd.kind = Rd.Preload)
       ledger.Rd.buffers);
  let h = List.find (fun h -> h.Rd.h_op = victim) ledger.Rd.hbm in
  Alcotest.(check int) "zero HBM moves" 0 h.Rd.h_moves;
  Tu.check_float "zero HBM bytes" 0. h.Rd.h_bytes;
  let layout = Elk.Alloc.layout_of_schedule s' in
  Alcotest.(check bool) "no address interval" false
    (List.exists
       (fun a -> a.Elk.Alloc.a_op = victim && a.Elk.Alloc.a_kind = Rd.Preload)
       layout)

(* A preload issued in the window that overlaps the previous operator's
   execution is consumed the moment it lands: allocation, first use, last
   use and free step all coincide, and the HBM reuse distance collapses
   to zero. *)
let test_residency_freed_at_alloc () =
  let s = sched () in
  let n = Elk.Schedule.num_ops s in
  let victim = ref (-1) in
  for op = 1 to n - 1 do
    if s.Elk.Schedule.entries.(op).Elk.Schedule.popt.P.preload_space > 0. then
      victim := op
  done;
  if !victim < 0 then Alcotest.fail "schedule has no late preload buffer";
  let v = !victim in
  let order =
    Array.of_list (List.filter (fun id -> id <> v) (List.init n Fun.id) @ [ v ])
  in
  let windows = Array.make (n + 1) 0 in
  windows.(0) <- n - 1;
  windows.(v) <- windows.(v) + 1;
  let s' = { s with Elk.Schedule.order = order; windows } in
  (match Elk.Schedule.validate s' with
  | Ok () -> ()
  | Error m -> Alcotest.failf "reordered schedule invalid: %s" m);
  let ledger = Rd.of_schedule ~capacity:(capacity ()) ~cores:(cores ()) s' in
  let b =
    List.find (fun b -> b.Rd.op = v && b.Rd.kind = Rd.Preload) ledger.Rd.buffers
  in
  Alcotest.(check int) "allocated at its own step" v b.Rd.alloc_step;
  Alcotest.(check int) "freed at the allocation step" b.Rd.alloc_step
    b.Rd.free_step;
  Alcotest.(check int) "first use = last use" b.Rd.first_use b.Rd.last_use;
  let h = List.find (fun h -> h.Rd.h_op = v) ledger.Rd.hbm in
  Alcotest.(check int) "zero reuse distance" 0 h.Rd.h_reuse_distance

(* Execute footprints live through the exchange tail: the static ledger
   frees them at their own step (never at the compute end), and the
   dynamic record releases them at the exchange end — the post-use waste
   integral spans exactly that tail. *)
let test_residency_exchange_tail () =
  let s = sched () in
  let ledger = Rd.of_schedule ~capacity:(capacity ()) ~cores:(cores ()) s in
  List.iter
    (fun b ->
      if b.Rd.kind = Rd.Exec then begin
        Alcotest.(check int) "freed at its own step" b.Rd.op b.Rd.free_step;
        Alcotest.(check int) "last use = free step" b.Rd.last_use b.Rd.free_step
      end)
    ledger.Rd.buffers;
  let m = Option.get (Lazy.force result).Elk_sim.Sim.mem in
  let tail_op = ref (-1) in
  for op = 0 to Mt.num_ops m - 1 do
    let om = Mt.op_mem m op in
    if
      !tail_op < 0
      && om.Mt.m_exec_bytes > 0.
      && om.Mt.m_release > om.Mt.m_tail_start +. 1e-9
    then tail_op := op
  done;
  if !tail_op < 0 then Alcotest.fail "no operator with an exchange tail";
  let op = !tail_op in
  let om = Mt.op_mem m op in
  let rel =
    Array.to_list (Mt.samples m)
    |> List.find (fun sm -> sm.Mt.s_op = op && sm.Mt.s_change = Mt.Release)
  in
  Tu.check_close ~eps:1e-9 "released at the exchange end, not compute end"
    om.Mt.m_release rel.Mt.s_t;
  Tu.check_close ~eps:1e-3 "post-use waste spans exactly the tail"
    (om.Mt.m_exec_bytes
    *. float_of_int om.Mt.m_exec_cores
    *. (om.Mt.m_release -. om.Mt.m_tail_start))
    (Mt.post_use_waste m op)

let suite =
  [
    Alcotest.test_case "mem recording off by default" `Quick test_off_by_default;
    Alcotest.test_case "recording does not perturb the timeline" `Quick
      test_zero_cost;
    Alcotest.test_case "memprof check passes" `Quick test_check_passes;
    Alcotest.test_case "static ledger bounds dynamic peak" `Quick
      test_static_bounds_dynamic;
    Alcotest.test_case "core 0 occupancy is pointwise max" `Quick
      test_core0_pointwise_max;
    Alcotest.test_case "chip peak consistent with per-core peak" `Quick
      test_chip_peak_consistent;
    Alcotest.test_case "wasted residency is non-negative" `Quick
      test_waste_nonnegative;
    Alcotest.test_case "occupancy points chronological and drained" `Quick
      test_occupancy_shape;
    Alcotest.test_case "static ledger lifetimes and high water" `Quick
      test_ledger_shape;
    Alcotest.test_case "issued window counts monotone" `Quick
      test_issued_counts_monotone;
    Alcotest.test_case "memprof JSON deterministic" `Quick
      test_json_deterministic;
    Alcotest.test_case "analyze requires a memory record" `Quick
      test_analyze_requires_record;
    Alcotest.test_case "allocation failure names the operator" `Quick
      test_alloc_error_diagnosis;
    Alcotest.test_case "allocate wrapper round-trips success" `Quick
      test_alloc_ok_roundtrip;
    Alcotest.test_case "address-interval overlap is half-open" `Quick
      test_overlaps_half_open;
    Alcotest.test_case "zero-byte buffers leave no residency trace" `Quick
      test_residency_zero_byte;
    Alcotest.test_case "preload freed at its allocation step" `Quick
      test_residency_freed_at_alloc;
    Alcotest.test_case "execute footprint lives through the exchange tail"
      `Quick test_residency_exchange_tail;
  ]
