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

(* Half-open intersection of [a_base, a_base + a_size) and
   [b_base, b_base + b_size): touching intervals ([0,4) and [4,8)) do not
   overlap.  Zero-byte buffers overlap nothing, not even themselves. *)
let[@inline] intervals_overlap a_base a_size b_base b_size =
  a_size > 0. && b_size > 0. && a_base < b_base +. b_size && b_base < a_base +. a_size

let overlaps a b = intervals_overlap a.a_base a.a_size b.a_base b.a_size

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

(* ---- the horizon sweep ---------------------------------------------------

   The scheduler evaluates one executing operator against a growing
   window: the window at horizon [h + 1] is the window at [h] plus at most
   one operator.  A sweep holds the participants once, each pointing at
   its memoized frontier arrays, and every [solve] re-runs the greedy
   descent from the top points over a prefix of them.  Nothing is
   carried from one solve to the next but the participants, so each
   solve returns exactly what a fresh call on that prefix would. *)

(* One participant in the greedy descent: a memoized frontier of
   (space, time) choices, currently sitting at [idx] (reset to the
   largest-space / fastest end by every solve) and able to step down to
   [idx - 1]. *)
type participant = {
  spaces : float array;  (** ascending. *)
  times : float array;  (** descending. *)
  mutable idx : int;
}

let participant (t : _ P.tradeoff) = { spaces = t.P.spaces; times = t.P.times; idx = 0 }

(* The footprint of participants [0 .. upto]: the left-to-right float sum
   of their current spaces, execute state first, then the window in order
   — the same operands in the same association order as the bump-packed
   extent [well_packed] checks.  Re-summed on every step: a running total
   updated by subtract/add would round differently and change plans.
   Inlined so the descent's per-step sum is never boxed. *)
let[@inline] demand parts upto =
  let s = ref 0. in
  for k = 0 to upto do
    let p = parts.(k) in
    s := !s +. p.spaces.(p.idx)
  done;
  !s

(* Index of the participant in [0 .. upto] whose next step down frees the
   most bytes per added second (first one on ties), or [-1] when every
   participant is at its smallest point. *)
let steepest parts upto =
  let best = ref (-1) and best_d = ref 0. in
  for k = 0 to upto do
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

(* The combination bump-packed into consecutive address intervals, as
   the schedule would hand them to the race analysis: every pair of
   intervals is disjoint and the packed extent equals [total], the
   [demand] the descent compared against the capacity.  Bases are the
   running left-to-right sums, rebuilt for each pair without allocating. *)
let well_packed parts upto total =
  let ok = ref true and extent = ref 0. and base_j = ref 0. in
  for j = 0 to upto do
    let pj = parts.(j) in
    let size_j = pj.spaces.(pj.idx) in
    let base_k = ref (!base_j +. size_j) in
    for k = j + 1 to upto do
      let pk = parts.(k) in
      let size_k = pk.spaces.(pk.idx) in
      if intervals_overlap !base_j size_j !base_k size_k then ok := false;
      base_k := !base_k +. size_k
    done;
    extent := Float.max !extent (!base_j +. size_j);
    base_j := !base_j +. size_j
  done;
  !ok && !extent = total

(* The figures of the last successful solve; all floats, so stored
   unboxed. *)
type figures = {
  mutable total : float;
  mutable contention : float;
  mutable exec_time : float;  (** including [contention]. *)
}

type sweep = {
  ctx : P.ctx;
  capacity : float;
  exec_op : Elk_model.Graph.node;
  exec : P.plan P.tradeoff;
  (* Parallel arrays by participant: [0] is the execute state, [k] the
     k-th pushed window operator; the first [len + 1] entries are live. *)
  mutable parts : participant array;
  mutable ids : int array;
  mutable opts : P.preload_opt array array;
  mutable len : int;
  fig : figures;
}

let sweep ctx ~capacity ~exec_op =
  let exec = P.exec_tradeoff ctx exec_op.Elk_model.Graph.op in
  {
    ctx;
    capacity;
    exec_op;
    exec;
    parts = Array.make 8 (participant exec);
    ids = Array.make 8 exec_op.Elk_model.Graph.id;
    opts = Array.make 8 [||];
    len = 0;
    fig = { total = 0.; contention = 0.; exec_time = 0. };
  }

let grow a fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let push s (node : Elk_model.Graph.node) plan =
  let t = P.preload_tradeoff s.ctx node.Elk_model.Graph.op plan in
  let k = s.len + 1 in
  if k = Array.length s.parts then begin
    s.parts <- grow s.parts s.parts.(0);
    s.ids <- grow s.ids 0;
    s.opts <- grow s.opts [||]
  end;
  s.parts.(k) <- participant t;
  s.ids.(k) <- node.Elk_model.Graph.id;
  s.opts.(k) <- t.P.payloads;
  s.len <- k

let pushed s = s.len

(* The greedy descent over participants [0 .. upto], from their top
   points: step the steepest participant down until the combination fits.
   On success fills [s.fig]; builds no list and no message either way. *)
let fit s ~upto =
  if upto < 0 || upto > s.len then invalid_arg "Alloc.solve: upto out of range";
  Array.length s.exec.P.spaces > 0
  && begin
       let parts = s.parts in
       for k = 0 to upto do
         let p = parts.(k) in
         p.idx <- Array.length p.spaces - 1
       done;
       let fits = ref false and stuck = ref false in
       while not (!fits || !stuck) do
         if demand parts upto <= s.capacity then fits := true
         else
           match steepest parts upto with
           | -1 -> stuck := true
           | k -> parts.(k).idx <- parts.(k).idx - 1
       done;
       !fits
       && begin
            let total = demand parts upto in
            assert (well_packed parts upto total);
            let exec_plan = s.exec.P.payloads.(parts.(0).idx) in
            let chip = P.ctx_chip s.ctx in
            let link_bw = chip.Arch.intercore_link.Arch.bandwidth in
            let cores = float_of_int chip.Arch.cores in
            let inject_total = ref 0. in
            for k = 1 to upto do
              inject_total :=
                !inject_total +. s.opts.(k).(parts.(k).idx).P.noc_inject_bytes
            done;
            (* Interconnect contention is a per-core PORT phenomenon:
               during this operator's execution each core's ports serve
               its own exchange (already inside [exec_time] as serialized
               transfer time) plus its share of the preload injection
               overlapping the execution.  The injection rate is bounded
               by what the HBM can feed. *)
            let inject_overlap_pc =
              Float.min (!inject_total /. cores)
                (chip.Arch.hbm_bandwidth /. cores *. exec_plan.P.exec_time)
            in
            let exchange_pc = exec_plan.P.exchange_bytes_per_core in
            let port_service = (inject_overlap_pc +. exchange_pc) /. link_bw in
            let contention = Float.max 0. (port_service -. exec_plan.P.exec_time) in
            s.fig.total <- total;
            s.fig.contention <- contention;
            s.fig.exec_time <- exec_plan.P.exec_time +. contention;
            true
          end
     end

(* Why [fit s ~upto] failed, read from the participants it left at their
   smallest points. *)
let infeasible_message s ~upto =
  let op_label =
    Printf.sprintf "op %d (%s)" s.exec_op.Elk_model.Graph.id
      s.exec_op.Elk_model.Graph.op.Elk_tensor.Opspec.name
  in
  if Array.length s.exec.P.spaces = 0 then
    Printf.sprintf
      "allocation infeasible for %s: no execute-state plan fits %.0f B/core SRAM"
      op_label s.capacity
  else
    (* Every participant is at its smallest Pareto point, so [demand] is
       the irreducible demand of this window combination. *)
    let total = demand s.parts upto in
    Printf.sprintf
      "allocation infeasible for %s: minimal demand %.0f B/core (execute \
       state + %d overlapping preloads) exceeds %.0f B/core SRAM by %.0f B"
      op_label total upto s.capacity (total -. s.capacity)

let solve s ~upto =
  fit s ~upto
  ||
  (* Infeasibility is routine during the window search (the caller
     retries with fewer preloads), so this is debug-level, and the
     message is only built when it will be printed. *)
  (if Elk_obs.Logger.enabled Elk_obs.Logger.Debug then
     Elk_obs.Logger.debug ~src:"alloc" (infeasible_message s ~upto);
   false)

let exec_plan s = s.exec.P.payloads.(s.parts.(0).idx)
let total_space s = s.fig.total
let exec_time s = s.fig.exec_time

(* The [result] of the last successful [fit s ~upto]. *)
let materialize s ~upto =
  let window = List.init upto (fun k -> (s.ids.(k + 1), s.opts.(k + 1).(s.parts.(k + 1).idx))) in
  let exec_plan = exec_plan s in
  let dist_total = List.fold_left (fun a (_, o) -> a +. P.preload_overhead o) 0. window in
  {
    exec_plan;
    window;
    exec_time = s.fig.exec_time;
    objective = exec_plan.P.exec_time +. s.fig.contention +. dist_total;
    total_space = s.fig.total;
    contention = s.fig.contention;
  }

let result s ~upto = if fit s ~upto then Some (materialize s ~upto) else None

let sweep_of ctx ~capacity ~exec_op ~window =
  let s = sweep ctx ~capacity ~exec_op in
  List.iter (fun (node, plan) -> push s node plan) window;
  s

let allocate_or_error ctx ~capacity ~exec_op ~window =
  let s = sweep_of ctx ~capacity ~exec_op ~window in
  if fit s ~upto:s.len then Ok (materialize s ~upto:s.len)
  else Error (infeasible_message s ~upto:s.len)

let allocate ctx ~capacity ~exec_op ~window =
  let s = sweep_of ctx ~capacity ~exec_op ~window in
  if solve s ~upto:s.len then Some (materialize s ~upto:s.len) else None

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
