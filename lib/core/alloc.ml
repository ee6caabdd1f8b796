open Elk_util
open Elk_arch
module P = Elk_partition.Partition

type result = {
  exec_plan : P.plan;
  window : (int * P.preload_opt) list;
  exec_time : float;
  objective : float;
  total_space : float;
  contention : float;
}

(* ---- address intervals -------------------------------------------------

   A placed buffer: a half-open per-core SRAM byte interval
   [a_base, a_base + a_size) assigned to one operator's preload- or
   execute-state footprint.  Bytes stay floats end to end so the interval
   arithmetic is bit-compatible with the Pareto spaces the allocator
   trades off (rounding here would make the packed extent disagree with
   the capacity check by up to one byte per participant). *)

type allocation = {
  a_op : int;
  a_kind : Residency.kind;
  a_base : float;
  a_size : float;
}

let overlaps a b =
  (* Half-open intersection: touching intervals ([0,4) and [4,8)) do not
     overlap.  Zero-byte buffers overlap nothing, not even themselves. *)
  a.a_size > 0. && b.a_size > 0.
  && a.a_base < b.a_base +. b.a_size
  && b.a_base < a.a_base +. a.a_size

(* Bump-pack a window combination: every participant is live at once
   during the execute step, so addresses are consecutive.  The packed
   extent is the exact float sum the greedy descent compares against
   the capacity ([demand] below: same operands, same association
   order), expressed through the interval layer. *)
let pack sized =
  let _, placed =
    List.fold_left
      (fun (base, acc) (a_op, a_kind, a_size) ->
        (base +. a_size, { a_op; a_kind; a_base = base; a_size } :: acc))
      (0., []) sized
  in
  List.rev placed

let extent placed =
  List.fold_left (fun e a -> Float.max e (a.a_base +. a.a_size)) 0. placed

let well_packed placed =
  let rec go = function
    | [] -> true
    | a :: tl -> (not (List.exists (overlaps a) tl)) && go tl
  in
  go placed

(* First-fit address layout over the whole schedule's buffer lifetimes.

   Liveness is measured in program-instruction indices, the coordinate in
   which the race analysis reasons: a preload buffer is live from its
   [preload_async] to its consuming [execute] (inclusive — during the
   distribution phase the preload bytes and the execute state coexist),
   an execute buffer only during its own [execute] (the exchange tail is
   part of that step).  Two buffers may share addresses only when those
   intervals are disjoint.  Deterministic: buffers are placed in
   ascending allocation-time order with the operator id as tie-break, and
   each goes to the lowest base that fits. *)
let layout_of_schedule (s : Schedule.t) =
  let n = Schedule.num_ops s in
  let prog = Program.of_schedule s in
  let issue_at = Array.make n 0 and exec_at = Array.make n 0 in
  Array.iteri
    (fun k instr ->
      match instr with
      | Program.Preload_async op -> if op >= 0 && op < n then issue_at.(op) <- k
      | Program.Execute op -> if op >= 0 && op < n then exec_at.(op) <- k)
    prog.Program.instrs;
  (* (live_lo, live_hi, op, kind, bytes) per nonempty buffer. *)
  let buffers = ref [] in
  for op = n - 1 downto 0 do
    let e = s.Schedule.entries.(op) in
    if e.Schedule.plan.P.exec_space > 0. then
      buffers :=
        (exec_at.(op), exec_at.(op), op, Residency.Exec, e.Schedule.plan.P.exec_space)
        :: !buffers;
    if e.Schedule.popt.P.preload_space > 0. then
      buffers :=
        (issue_at.(op), exec_at.(op), op, Residency.Preload, e.Schedule.popt.P.preload_space)
        :: !buffers
  done;
  let buffers =
    List.sort
      (fun (lo1, _, op1, k1, _) (lo2, _, op2, k2, _) ->
        compare (lo1, op1, k1) (lo2, op2, k2))
      !buffers
  in
  let placed = ref [] in
  let place (lo, hi, a_op, a_kind, a_size) =
    let conflicts =
      List.filter (fun (plo, phi, _) -> plo <= hi && lo <= phi) !placed
    in
    (* Candidate bases: 0 and the end of every conflicting interval;
       lowest admissible wins (classic first-fit). *)
    let fits base =
      let cand = { a_op; a_kind; a_base = base; a_size } in
      not (List.exists (fun (_, _, a) -> overlaps cand a) conflicts)
    in
    let base =
      List.fold_left
        (fun best (_, _, a) ->
          let c = a.a_base +. a.a_size in
          if c < best && fits c then c else best)
        (if fits 0. then 0. else infinity)
        conflicts
    in
    let base =
      if Float.is_finite base then base
      else
        (* Every candidate collides (possible only through float
           pathologies); fall back to stacking past the furthest end. *)
        List.fold_left (fun e (_, _, a) -> Float.max e (a.a_base +. a.a_size)) 0. conflicts
    in
    placed := (lo, hi, { a_op; a_kind; a_base = base; a_size }) :: !placed
  in
  List.iter place buffers;
  List.rev_map (fun (_, _, a) -> a) !placed
  |> List.sort (fun a b -> compare (a.a_op, a.a_kind) (b.a_op, b.a_kind))

(* One participant in the greedy descent: a memoized frontier of
   (space, time) choices, currently sitting at [idx] (starting at the
   largest-space / fastest end) and able to step down to [idx - 1]. *)
type participant = {
  spaces : float array;  (** ascending. *)
  times : float array;  (** descending. *)
  mutable idx : int;
}

let participant (t : _ P.tradeoff) =
  { spaces = t.P.spaces; times = t.P.times; idx = Array.length t.P.spaces - 1 }

(* The combination's footprint: the left-to-right float sum of the
   current spaces, execute state first, then the window in order — the
   same operands in the same association order as the [extent] of
   [pack_current] below, without building the intervals.  (A running
   total updated by subtract/add would round differently and change
   plans.)  Inlined so the descent's per-step sum is never boxed. *)
let[@inline] demand parts =
  let s = ref 0. in
  for k = 0 to Array.length parts - 1 do
    let p = parts.(k) in
    s := !s +. p.spaces.(p.idx)
  done;
  !s

(* Index of the participant whose next step down frees the most bytes
   per added second (first one on ties), or [-1] when every participant
   is at its smallest point. *)
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

let allocate_or_error ctx ~capacity ~exec_op ~window =
  let open Elk_model in
  let op_label () =
    Printf.sprintf "op %d (%s)" exec_op.Graph.id
      exec_op.Graph.op.Elk_tensor.Opspec.name
  in
  let exec = P.exec_tradeoff ctx exec_op.Graph.op in
  if Array.length exec.P.spaces = 0 then
    Error
      (Printf.sprintf
         "allocation infeasible for %s: no execute-state plan fits %.0f \
          B/core SRAM"
         (op_label ()) capacity)
  else begin
    let n = List.length window in
    let ids = Array.make n 0 in
    let opts = Array.make n [||] in
    let exec_part = participant exec in
    (* [parts.(0)] is the execute state, [parts.(k + 1)] the k-th window
       operator's preload state. *)
    let parts = Array.make (n + 1) exec_part in
    List.iteri
      (fun k ((node : Graph.node), plan) ->
        let t = P.preload_tradeoff ctx node.Graph.op plan in
        ids.(k) <- node.Graph.id;
        opts.(k) <- t.P.payloads;
        parts.(k + 1) <- participant t)
      window;
    (* The combination as packed address intervals: the execute state
       followed by every overlapping preload.  Only built for the final
       assertion: the intervals the schedule would hand the race analysis
       are disjoint by construction, and their extent is the [demand] the
       descent compared against the capacity. *)
    let pack_current () =
      pack
        (List.init (n + 1) (fun k ->
             let p = parts.(k) in
             if k = 0 then (exec_op.Graph.id, Residency.Exec, p.spaces.(p.idx))
             else (ids.(k - 1), Residency.Preload, p.spaces.(p.idx))))
    in
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
      (* Every participant is at its smallest Pareto point, so [demand]
         is the irreducible demand of this window combination. *)
      let total = demand parts in
      Error
        (Printf.sprintf
           "allocation infeasible for %s: minimal demand %.0f B/core \
            (execute state + %d overlapping preloads) exceeds %.0f B/core \
            SRAM by %.0f B"
           (op_label ()) total n capacity (total -. capacity))
    else begin
      let exec_plan = exec.P.payloads.(exec_part.idx) in
      let chosen_window =
        List.init n (fun k -> (ids.(k), opts.(k).(parts.(k + 1).idx)))
      in
      let total = demand parts in
      assert (
        let packed = pack_current () in
        well_packed packed && extent packed = total);
      let chip = P.ctx_chip ctx in
      let link_bw = chip.Arch.intercore_link.Arch.bandwidth in
      let cores = float_of_int chip.Arch.cores in
      let inject_total =
        List.fold_left (fun a (_, o) -> a +. o.P.noc_inject_bytes) 0. chosen_window
      in
      (* Interconnect contention is a per-core PORT phenomenon: during this
         operator's execution each core's ports serve its own exchange
         (already inside [exec_time] as serialized transfer time) plus its
         share of the preload injection overlapping the execution.  The
         injection rate is bounded by what the HBM can feed. *)
      let inject_overlap_pc =
        Float.min (inject_total /. cores)
          (chip.Arch.hbm_bandwidth /. cores *. exec_plan.P.exec_time)
      in
      let exchange_pc = exec_plan.P.exchange_bytes_per_core in
      let port_service = (inject_overlap_pc +. exchange_pc) /. link_bw in
      let contention = Float.max 0. (port_service -. exec_plan.P.exec_time) in
      let dist_total =
        List.fold_left (fun a (_, o) -> a +. P.preload_overhead o) 0. chosen_window
      in
      Ok
        {
          exec_plan;
          window = chosen_window;
          exec_time = exec_plan.P.exec_time +. contention;
          objective = exec_plan.P.exec_time +. contention +. dist_total;
          total_space = total;
          contention;
        }
    end
  end

let allocate ctx ~capacity ~exec_op ~window =
  match allocate_or_error ctx ~capacity ~exec_op ~window with
  | Ok r -> Some r
  | Error msg ->
      (* Infeasibility is routine during the window search (the caller
         retries with fewer preloads), so this is debug-level — but the
         message now names the capacity, the demanded bytes, and the
         offending operator instead of a bare [None]. *)
      Elk_obs.Logger.debug ~src:"alloc" msg;
      None

let min_preload_space ctx (node : Elk_model.Graph.node) =
  match P.exec_frontier ctx node.Elk_model.Graph.op with
  | [] -> infinity
  | frontier ->
      (* The smallest preload footprint over all execute-state plans. *)
      List.fold_left
        (fun acc pt ->
          let opts = P.preload_options ctx node.Elk_model.Graph.op pt.Pareto.payload in
          List.fold_left (fun a o -> Float.min a o.P.preload_space) acc opts)
        infinity frontier
