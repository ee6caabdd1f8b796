open Elk_util
open Elk_tensor
open Elk_arch

type plan = {
  factors : int array;
  tile : int array;
  cores_used : int;
  exec_space : float;
  exec_time : float;
  compute_time : float;
  exchange_bytes_per_core : float;
  hbm_needed_per_core : float;
  max_share_group : int;
}

type preload_opt = {
  frac : float;
  preload_space : float;
  dist_bytes_per_core : float;
  dist_time : float;
  hbm_device_bytes : float;
  noc_inject_bytes : float;
  preload_len : float;
  hbm_floor : float;
}

let preload_overhead o = o.dist_time +. Float.max 0. (o.preload_len -. o.hbm_floor)

(* A frontier as parallel arrays, indexed from the smallest space up —
   the form the allocator's greedy descent walks. *)
type 'a tradeoff = { spaces : float array; times : float array; payloads : 'a array }

let tradeoff_of_points pts =
  {
    spaces = Array.of_list (List.map (fun p -> p.Pareto.x) pts);
    times = Array.of_list (List.map (fun p -> p.Pareto.y) pts);
    payloads = Array.of_list (List.map (fun p -> p.Pareto.payload) pts);
  }

type enum_entry = {
  plans : plan list;
  frontier : plan Pareto.point list;
  exec : plan tradeoff;
}

type popt_entry = { opts : preload_opt list; popt : preload_opt tradeoff }

(* Memo key: the operator itself, compared on exactly the fields
   {!plan_signature} digests (the name and tensor names are ignored), so
   a hit costs one structural hash and compare instead of a digest.
   Floats compare as [%h] renders them: NaNs alike, signed zeros apart. *)
module Op_key = struct
  type t = Opspec.t

  let tensor_equal (a : Opspec.tensor) (b : Opspec.tensor) =
    a.Opspec.source == b.Opspec.source && List.equal Int.equal a.Opspec.dims b.Opspec.dims

  let equal (a : t) (b : t) =
    a == b
    || String.equal a.Opspec.kind b.Opspec.kind
       && a.Opspec.iter = b.Opspec.iter
       && List.equal tensor_equal a.Opspec.inputs b.Opspec.inputs
       && tensor_equal a.Opspec.output b.Opspec.output
       && Float.equal a.Opspec.flops_per_point b.Opspec.flops_per_point
       && Float.sign_bit a.Opspec.flops_per_point = Float.sign_bit b.Opspec.flops_per_point
       && a.Opspec.dtype == b.Opspec.dtype

  let mix h v = (h * 65599) + v

  let hash_tensor h (t : Opspec.tensor) =
    mix
      (List.fold_left mix h t.Opspec.dims)
      (match t.Opspec.source with Opspec.Weights -> 1 | Opspec.Kv_cache -> 2 | Opspec.Activation -> 3)

  let hash (op : t) =
    let h = Array.fold_left mix (Hashtbl.hash op.Opspec.kind) op.Opspec.iter in
    hash_tensor (List.fold_left hash_tensor h op.Opspec.inputs) op.Opspec.output
end

module Op_tbl = Hashtbl.Make (Op_key)

module Factors_tbl = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) b = a = b
  let hash (f : t) = Hashtbl.hash f
end)

(* Everything memoized for one operator: its enumeration (filled by the
   first {!lookup}) and its preload options per plan, keyed by factors
   (filled by the first {!popt_entry} for that plan). *)
type op_memo = { mutable enum : enum_entry option; popts : popt_entry Factors_tbl.t }

type ctx = {
  chip : Arch.chip;
  cost : Elk_cost.Costmodel.t;
  max_plans : int;
  fp : string;  (* digest of (chip, cost model, max_plans). *)
  lock : Mutex.t;  (* guards [memo] and every [op_memo] in it; see [lookup]. *)
  memo : op_memo Op_tbl.t;
}

(* Cross-compile memo sharing: contexts built from behaviorally identical
   cost models (same chip, same training) index the same memo tables, so
   a serving loop that rebuilds a context per recompile — or a bench that
   builds a fresh env per run — still reuses every enumeration and
   preload frontier already computed.  Sharing is sound because memo
   values are pure functions of (operator, fingerprint) and keys compare
   every field those functions read.  Disable with [ELK_COMPILE_CACHE=0]
   or {!set_memo_sharing} (fresh private tables per context, the
   pre-cache behavior). *)
let sharing =
  ref (match Sys.getenv_opt "ELK_COMPILE_CACHE" with Some "0" -> false | _ -> true)

let set_memo_sharing v = sharing := v
let memo_sharing () = !sharing

type shared_store = { s_lock : Mutex.t; s_memo : op_memo Op_tbl.t; mutable s_stamp : int }

let registry_lock = Mutex.create ()
let registry : (string, shared_store) Hashtbl.t = Hashtbl.create 8
let registry_tick = ref 0
let registry_cap = 8

let reset_shared_memos () =
  Mutex.lock registry_lock;
  (* Clear tables in place, not just the registry: live contexts keep
     references to their shared store and must also go cold. *)
  Hashtbl.iter
    (fun _ s ->
      Mutex.lock s.s_lock;
      Op_tbl.reset s.s_memo;
      Mutex.unlock s.s_lock)
    registry;
  Hashtbl.reset registry;
  Mutex.unlock registry_lock

let shared_store_count () =
  Mutex.lock registry_lock;
  let n = Hashtbl.length registry in
  Mutex.unlock registry_lock;
  n

let make_ctx ?(max_plans_per_op = 512) cost =
  let chip = Elk_cost.Costmodel.chip cost in
  let fp =
    Digest.to_hex
      (Digest.string
         (Arch.fingerprint chip ^ "|"
         ^ Elk_cost.Costmodel.fingerprint cost
         ^ "|" ^ string_of_int max_plans_per_op))
  in
  let fresh () =
    { s_lock = Mutex.create (); s_memo = Op_tbl.create 64; s_stamp = 0 }
  in
  let store =
    if not (memo_sharing ()) then fresh ()
    else begin
      Mutex.lock registry_lock;
      incr registry_tick;
      let s =
        match Hashtbl.find_opt registry fp with
        | Some s -> s
        | None ->
            (* Keep the registry small: evict the least-recently-used
               fingerprint (an abandoned chip/cost configuration) once
               over capacity. *)
            if Hashtbl.length registry >= registry_cap then begin
              let victim =
                Hashtbl.fold
                  (fun k s acc ->
                    match acc with
                    | Some (_, st) when st <= s.s_stamp -> acc
                    | _ -> Some (k, s.s_stamp))
                  registry None
              in
              match victim with
              | Some (k, _) -> Hashtbl.remove registry k
              | None -> ()
            end;
            let s = fresh () in
            Hashtbl.add registry fp s;
            s
      in
      s.s_stamp <- !registry_tick;
      Mutex.unlock registry_lock;
      s
    end
  in
  {
    chip;
    cost;
    max_plans = max_plans_per_op;
    fp;
    lock = store.s_lock;
    memo = store.s_memo;
  }

let fingerprint ctx = ctx.fp

let memo_sizes ctx =
  Mutex.lock ctx.lock;
  let sizes =
    Op_tbl.fold
      (fun _ m (e, p) ->
        ((if Option.is_some m.enum then e + 1 else e), p + Factors_tbl.length m.popts))
      ctx.memo (0, 0)
  in
  Mutex.unlock ctx.lock;
  sizes

let ctx_chip ctx = ctx.chip
let ctx_cost ctx = ctx.cost

(* Collision-safe memo key: a digest over a length-prefixed canonical
   encoding of every field partitioning depends on.  Length prefixes make
   separator injection impossible (the old "|"/";"-joined concatenation
   could in principle conflate crafted shapes), and [flops_per_point] is
   included because it changes execution-time estimates even when the
   shape is identical. *)
let plan_signature (op : Opspec.t) =
  let b = Buffer.create 128 in
  let str s =
    Buffer.add_string b (string_of_int (String.length s));
    Buffer.add_char b ':';
    Buffer.add_string b s
  in
  let ints l =
    Buffer.add_string b (string_of_int (List.length l));
    Buffer.add_char b '#';
    List.iter
      (fun v ->
        Buffer.add_string b (string_of_int v);
        Buffer.add_char b ',')
      l
  in
  let tensor (t : Opspec.tensor) =
    ints t.Opspec.dims;
    Buffer.add_char b
      (match t.Opspec.source with
      | Opspec.Weights -> 'w'
      | Opspec.Kv_cache -> 'k'
      | Opspec.Activation -> 'a')
  in
  str op.Opspec.kind;
  ints (Array.to_list op.Opspec.iter);
  Buffer.add_string b (string_of_int (List.length op.Opspec.inputs));
  Buffer.add_char b '!';
  List.iter tensor op.Opspec.inputs;
  tensor op.Opspec.output;
  Buffer.add_string b (Printf.sprintf "%h" op.Opspec.flops_per_point);
  str (Dtype.to_string op.Opspec.dtype);
  Digest.to_hex (Digest.string (Buffer.contents b))

let ceil_div a b = (a + b - 1) / b

(* Candidate part counts for one dimension: its divisors plus powers of
   two, bounded by the extent and the core count. *)
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

let comm_hops chip =
  match chip.Arch.topology with
  | Arch.All_to_all -> 2
  | Arch.Clustered _ -> 3
  | Arch.Mesh2d _ -> 1

(* Rate at which HBM controllers can inject preload traffic into the
   interconnect: the controllers' aggregate bandwidth, or on a mesh the
   boundary entry strips (two rows of [cols] links). *)
let inject_rate chip =
  let link_bw = chip.Arch.intercore_link.Arch.bandwidth in
  match chip.Arch.topology with
  | Arch.All_to_all -> chip.Arch.hbm_bandwidth
  | Arch.Clustered { l2_bandwidth; _ } -> Float.min chip.Arch.hbm_bandwidth l2_bandwidth
  | Arch.Mesh2d { cols; _ } ->
      (* Deliveries fan out of ~2 cols entry cores, each spreading over
         roughly two useful mesh directions. *)
      Float.min chip.Arch.hbm_bandwidth (4. *. float_of_int cols *. link_bw)

(* An operator as costing a factor vector reads it, built once per
   enumeration or preload-option computation: each tensor as the
   iteration dimensions indexing it.  Inputs are split by source, each
   class in operator order, so every float sum below adds its terms in
   the order the operator lists them. *)
type shape = {
  op : Opspec.t;
  esize : float;
  out : int array;
  acts : int array array;  (* on-chip inputs *)
  hbms : int array array;  (* HBM-resident inputs: weights and KV cache *)
}

let shape_of (op : Opspec.t) =
  let inputs keep =
    Array.of_list
      (List.filter_map
         (fun (t : Opspec.tensor) ->
           if keep t.Opspec.source then Some (Array.of_list t.Opspec.dims) else None)
         op.Opspec.inputs)
  in
  {
    op;
    esize = float_of_int (Dtype.size_bytes op.Opspec.dtype);
    out = Array.of_list op.Opspec.output.Opspec.dims;
    acts = inputs (function Opspec.Activation -> true | _ -> false);
    hbms = inputs (function Opspec.Weights | Opspec.Kv_cache -> true | _ -> false);
  }

(* Per-core bytes of a tensor's slice under [tile]. *)
let[@inline] needed sh tile dims =
  let v = ref 1. in
  for j = 0 to Array.length dims - 1 do
    v := !v *. float_of_int tile.(dims.(j))
  done;
  !v *. sh.esize

let rec indexes dims d j = j < Array.length dims && (dims.(j) = d || indexes dims d (j + 1))

(* Cores sharing one slice of a tensor: the parts of every dimension that
   does not index it. *)
let share_group factors dims =
  let g = ref 1 in
  for d = 0 to Array.length factors - 1 do
    if not (indexes dims d 0) then g := !g * factors.(d)
  done;
  !g

(* Cost the factor vector [factors], writing its tile into the scratch
   [tile].  [None] when the execution space exceeds [space_cap]; the cost
   model runs, and both arrays are copied, only for a plan that fits. *)
let cost_factors ctx sh ~space_cap factors tile =
  let op = sh.op in
  let tiles = ref 1 in
  for i = 0 to Array.length factors - 1 do
    tile.(i) <- ceil_div op.Opspec.iter.(i) factors.(i);
    tiles := !tiles * factors.(i)
  done;
  let cores = ctx.chip.Arch.cores in
  (* Operators whose tiles outnumber the cores execute in [rounds]
     sequential rounds, one tile per core per round — how real compilers
     handle operators too large for one spatial pass.  Per-round working
     sets bound the execution space; HBM-resident inputs for all rounds
     must be preloaded, so they scale with [rounds]. *)
  let froll = float_of_int (ceil_div !tiles cores) in
  let out_slice = needed sh tile sh.out in
  let reduce_group = share_group factors sh.out in
  let act_slice = ref 0. and act_fetch = ref 0. in
  for i = 0 to Array.length sh.acts - 1 do
    let dims = sh.acts.(i) in
    let need = needed sh tile dims and g = share_group factors dims in
    act_slice := !act_slice +. need;
    if g > 1 then act_fetch := !act_fetch +. (need *. float_of_int (g - 1) /. float_of_int g)
  done;
  let hbm_needed_round = ref 0. and max_g = ref 1 in
  for i = 0 to Array.length sh.hbms - 1 do
    let dims = sh.hbms.(i) in
    hbm_needed_round := !hbm_needed_round +. needed sh tile dims;
    max_g := Int.max !max_g (share_group factors dims)
  done;
  (* Execution space per core and round: the activation working set, the
     preloaded HBM slices of every round, and the output of the current
     round (plus a partial-result buffer when a reduction dimension is
     split; completed round outputs stream onward). *)
  let exec_space =
    !act_slice
    +. (!hbm_needed_round *. froll)
    +. (out_slice *. if reduce_group > 1 then 2. else 1.)
  in
  if exec_space > space_cap then None
  else begin
    let factors = Array.copy factors and tile = Array.copy tile in
    let red_bytes =
      if reduce_group > 1 then
        out_slice *. float_of_int (reduce_group - 1) /. float_of_int reduce_group
      else 0.
    in
    let exchange = (!act_fetch +. red_bytes) *. froll in
    let t_comm =
      if exchange > 0. then
        Elk_cost.Costmodel.predict_transfer ctx.cost ~hops:(comm_hops ctx.chip) ~bytes:exchange
      else 0.
    in
    let t_compute =
      froll *. Elk_cost.Costmodel.predict_exec ctx.cost ~kind:op.Opspec.kind ~iter:tile
    in
    Some
      {
        factors;
        tile;
        cores_used = min !tiles cores;
        exec_space;
        exec_time = t_compute +. t_comm;
        compute_time = t_compute;
        exchange_bytes_per_core = exchange;
        hbm_needed_per_core = !hbm_needed_round *. froll;
        max_share_group = !max_g;
      }
  end

(* Every plan fits under an infinite cap. *)
let plan_of_factors ctx op factors =
  Option.get
    (cost_factors ctx (shape_of op) ~space_cap:infinity factors
       (Array.make (Array.length factors) 0))

(* Walk the factor vectors depth first — per-dim part counts ascending,
   product within [cores * 16] (up to 16 sequential rounds, so operators
   bigger than one spatial pass still get plans), at most
   [max_split_dims] partitioned dimensions, the first [max_plans * 64]
   vectors only — in one scratch array, and keep the vectors with at
   least [min_cores] parts that fit in SRAM. *)
let compute_plans ctx sh =
  let op = sh.op in
  let iter = op.Opspec.iter in
  let ndims = Array.length iter in
  let cores = ctx.chip.Arch.cores in
  let bound = cores * 16 in
  let max_split_dims =
    match ctx.chip.Arch.topology with
    | Arch.All_to_all | Arch.Clustered _ -> ndims
    | Arch.Mesh2d _ -> 2
  in
  let cands = Array.map (fun extent -> Array.of_list (dim_candidates ~extent ~cores:bound)) iter in
  let cap = ctx.max_plans * 64 in
  let points = Array.fold_left (fun a e -> if a > cores then a else a * e) 1 iter in
  let min_cores = min (max 1 (cores / 4)) points in
  let sram = Arch.usable_sram_per_core ctx.chip in
  let factors = Array.make ndims 1 and tile = Array.make ndims 0 in
  let count = ref 0 and kept = ref [] in
  let rec go dim prod split_dims =
    if !count >= cap then ()
    else if dim = ndims then begin
      incr count;
      if prod >= min_cores then
        match cost_factors ctx sh ~space_cap:sram factors tile with
        | Some p -> kept := p :: !kept
        | None -> ()
    end
    else
      let c = cands.(dim) in
      for j = 0 to Array.length c - 1 do
        let f = c.(j) in
        if prod * f <= bound && (f = 1 || split_dims < max_split_dims) then begin
          factors.(dim) <- f;
          go (dim + 1) (prod * f) (if f = 1 then split_dims else split_dims + 1);
          factors.(dim) <- 1
        end
      done
  in
  go 0 1 0;
  (* [kept] runs from the last vector walked to the first.  Deduplicate
     by tile shape (distinct factorizations can yield the same
     ceil-divided tile) and keep the fastest representative, the first
     seen in that order on ties. *)
  let table = Hashtbl.create 64 in
  List.iter
    (fun p ->
      let key = Array.to_list p.tile in
      match Hashtbl.find_opt table key with
      | Some q when q.exec_time <= p.exec_time -> ()
      | _ -> Hashtbl.replace table key p)
    !kept;
  let sorted = Array.of_list (Hashtbl.fold (fun _ p acc -> p :: acc) table []) in
  Array.stable_sort (fun a b -> Float.compare a.exec_time b.exec_time) sorted;
  List.init (min ctx.max_plans (Array.length sorted)) (Array.get sorted)

(* One preload-state candidate under evaluation.  All fields are floats,
   so the record is flat and filling it allocates nothing. *)
type preload_point = {
  mutable pp_space : float;
  mutable pp_dist_bytes : float;
  mutable pp_inject : float;
  mutable pp_dist_time : float;
  mutable pp_len : float;
}

(* An operator's plan-independent preload terms, with scratch for the
   plan under evaluation.  Built per call, never shared. *)
type preloader = {
  pshape : shape;
  pdevice_bytes : float;
  pfloor : float;  (* the HBM device roofline time of all its inputs *)
  needs : float array;  (* per HBM input: all rounds' slice bytes per core *)
  groups : int array;  (* per HBM input: its share group *)
  point : preload_point;
}

let preloader ctx sh =
  let device_bytes =
    List.fold_left
      (fun a (t : Opspec.tensor) ->
        match t.Opspec.source with
        | Opspec.Weights | Opspec.Kv_cache -> a +. Opspec.tensor_bytes sh.op t
        | Opspec.Activation -> a)
      0. sh.op.Opspec.inputs
  in
  let n = Array.length sh.hbms in
  {
    pshape = sh;
    pdevice_bytes = device_bytes;
    pfloor = (if n = 0 then 0. else Elk_cost.Costmodel.hbm_time ctx.cost ~bytes:device_bytes);
    needs = Array.make n 0.;
    groups = Array.make n 1;
    point = { pp_space = 0.; pp_dist_bytes = 0.; pp_inject = 0.; pp_dist_time = 0.; pp_len = 0. };
  }

(* Load [plan]'s HBM inputs into the scratch; return the largest share
   group. *)
let load_plan ctx pl plan =
  let rounds = ceil_div (Array.fold_left ( * ) 1 plan.factors) ctx.chip.Arch.cores in
  let max_g = ref 1 in
  for i = 0 to Array.length pl.needs - 1 do
    let dims = pl.pshape.hbms.(i) in
    (* All rounds' HBM-resident slices must be delivered to the core. *)
    pl.needs.(i) <- needed pl.pshape plan.tile dims *. float_of_int rounds;
    let g = share_group plan.factors dims in
    pl.groups.(i) <- g;
    max_g := Int.max !max_g g
  done;
  !max_g

(* The broadcast fractions tried for a largest share group [max_g], in
   ascending order: [1/max_g], then the [halvings max_g] powers of two
   from the smallest above [1/max_g] up to 1. *)
let halvings max_g =
  let k = ref 0 and f = ref 1. in
  while !f *. float_of_int max_g > 1.000001 do
    incr k;
    f := !f /. 2.
  done;
  !k

let frac_at ~max_g ~halvings i =
  if i = 0 then 1. /. float_of_int max_g else Float.ldexp 1. (i - halvings)

(* Fill [pl.point] with the preload state of the loaded plan that
   broadcasts [frac] of each shared input at preload time. *)
let eval_frac ctx pl plan frac =
  let space = ref 0. and dist_bytes = ref 0. and inject = ref 0. in
  for i = 0 to Array.length pl.needs - 1 do
    let need = pl.needs.(i) in
    let f = Float.max frac (1. /. float_of_int pl.groups.(i)) in
    space := !space +. (need *. f);
    dist_bytes := !dist_bytes +. (need *. (1. -. f));
    inject := !inject +. (need *. f *. float_of_int plan.cores_used)
  done;
  let pt = pl.point in
  pt.pp_space <- !space;
  pt.pp_dist_bytes <- !dist_bytes;
  pt.pp_inject <- !inject;
  pt.pp_dist_time <-
    (if !dist_bytes > 0. then
       Elk_cost.Costmodel.predict_transfer ctx.cost ~hops:(comm_hops ctx.chip) ~bytes:!dist_bytes
     else 0.);
  pt.pp_len <-
    Float.max pl.pfloor
      (Float.max (!inject /. inject_rate ctx.chip)
         (!space /. ctx.chip.Arch.intercore_link.Arch.bandwidth))

(* {!preload_overhead} of [pl.point]. *)
let point_overhead pl =
  pl.point.pp_dist_time +. Float.max 0. (pl.point.pp_len -. pl.pfloor)

let compute_preload_options ctx (op : Opspec.t) plan =
  let pl = preloader ctx (shape_of op) in
  if Array.length pl.needs = 0 then
    [
      {
        frac = 1.;
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
    let max_g = load_plan ctx pl plan in
    let halvings = halvings max_g in
    let opts =
      List.init (halvings + 1) (fun i ->
          let frac = frac_at ~max_g ~halvings i in
          eval_frac ctx pl plan frac;
          let pt = pl.point in
          {
            frac;
            preload_space = pt.pp_space;
            dist_bytes_per_core = pt.pp_dist_bytes;
            dist_time = pt.pp_dist_time;
            hbm_device_bytes = pl.pdevice_bytes;
            noc_inject_bytes = pt.pp_inject;
            preload_len = pt.pp_len;
            hbm_floor = pl.pfloor;
          })
    in
    let frontier =
      Pareto.frontier
        (List.map
           (fun o -> { Pareto.x = o.preload_space; y = preload_overhead o; payload = o })
           opts)
    in
    match frontier with
    | [] -> [ List.hd opts ]
    | pts -> List.map (fun p -> p.Pareto.payload) pts
  end

(* The least {!preload_overhead} among [preload_options ctx op plan],
   computed over the same candidates without building them.  The
   options' frontier keeps the least non-NaN overhead below infinity;
   when there is none the options fall back to the first candidate, and
   an infinite overhead there counts as none. *)
let best_overhead ctx pl plan =
  if Array.length pl.needs = 0 then 0.
  else begin
    let max_g = load_plan ctx pl plan in
    let halvings = halvings max_g in
    let best = ref infinity and first = ref 0. in
    for i = 0 to halvings do
      eval_frac ctx pl plan (frac_at ~max_g ~halvings i);
      let y = point_overhead pl in
      if i = 0 then first := y;
      if y < !best then best := y
    done;
    if !best < infinity then !best else if Float.is_nan !first then !first else 0.
  end

(* The memo is shared by the design workers of [Dse.evaluate_all] (and
   by every context with the same fingerprint), so every access is
   serialized under [ctx.lock].  A hit takes the lock once: one
   structural hash of the operator, then a field read or one
   factors-keyed find.  The compute itself runs {e outside} the lock: it
   is a pure function of the key.  If two workers miss the same key
   concurrently both compute it; the first to publish wins and the
   duplicate — structurally identical — is dropped. *)

(* Under [ctx.lock]: the operator's memo record, created empty on first
   sight. *)
let op_memo ctx op =
  match Op_tbl.find_opt ctx.memo op with
  | Some m -> m
  | None ->
      let m = { enum = None; popts = Factors_tbl.create 16 } in
      Op_tbl.add ctx.memo op m;
      m

(* Publish a value computed outside the lock unless another worker
   already did; return the published one. *)
let publish ctx find add v =
  Mutex.lock ctx.lock;
  let v =
    match find () with
    | Some winner -> winner
    | None ->
        add v;
        v
  in
  Mutex.unlock ctx.lock;
  v

let lookup ctx op =
  Mutex.lock ctx.lock;
  let m = op_memo ctx op in
  match m.enum with
  | Some e ->
      Mutex.unlock ctx.lock;
      e
  | None ->
      Mutex.unlock ctx.lock;
      let sh = shape_of op in
      let plans = compute_plans ctx sh in
      let pl = preloader ctx sh in
      let frontier =
        Pareto.frontier
          (List.map
             (fun p ->
               { Pareto.x = p.exec_space; y = p.exec_time +. best_overhead ctx pl p; payload = p })
             plans)
      in
      publish ctx
        (fun () -> m.enum)
        (fun e -> m.enum <- Some e)
        { plans; frontier; exec = tradeoff_of_points frontier }

(* Filled on the first request for a plan's options, not by [lookup]:
   most enumerated plans never leave the exec frontier's construction. *)
let popt_entry ctx op plan =
  Mutex.lock ctx.lock;
  let m = op_memo ctx op in
  match Factors_tbl.find_opt m.popts plan.factors with
  | Some e ->
      Mutex.unlock ctx.lock;
      e
  | None ->
      Mutex.unlock ctx.lock;
      let opts = compute_preload_options ctx op plan in
      let popt =
        tradeoff_of_points
          (List.map
             (fun o -> { Pareto.x = o.preload_space; y = preload_overhead o; payload = o })
             opts)
      in
      publish ctx
        (fun () -> Factors_tbl.find_opt m.popts plan.factors)
        (Factors_tbl.add m.popts (Array.copy plan.factors))
        { opts; popt }

let enumerate ctx op = (lookup ctx op).plans
let exec_frontier ctx op = (lookup ctx op).frontier
let exec_tradeoff ctx op = (lookup ctx op).exec
let preload_options ctx op plan = (popt_entry ctx op plan).opts
let preload_tradeoff ctx op plan = (popt_entry ctx op plan).popt

let fastest_plan ctx op =
  match Pareto.min_y (exec_frontier ctx op) with
  | Some p -> p.Pareto.payload
  | None ->
      invalid_arg
        (Printf.sprintf "Partition.fastest_plan: no plan fits on chip for %s" op.Opspec.name)

let fastest_plan_within ctx op ~space =
  match Pareto.best_y_under_x (exec_frontier ctx op) space with
  | Some p -> Some p.Pareto.payload
  | None -> None

let plan_with_factors ctx (op : Opspec.t) factors =
  let rank = Array.length op.Opspec.iter in
  if Array.length factors <> rank then
    Error (Printf.sprintf "%s: factor rank %d, expected %d" op.Opspec.name
             (Array.length factors) rank)
  else if Array.exists (fun f -> f < 1) factors then
    Error (op.Opspec.name ^ ": nonpositive factor")
  else if
    Array.exists2 (fun f e -> f > e) factors op.Opspec.iter
  then Error (op.Opspec.name ^ ": factor exceeds extent")
  else Ok (plan_of_factors ctx op factors)

let preload_option_near ctx op plan ~frac =
  match preload_options ctx op plan with
  | [] -> invalid_arg "Partition.preload_option_near: no options"
  | first :: rest ->
      List.fold_left
        (fun best o ->
          if Float.abs (o.frac -. frac) < Float.abs (best.frac -. frac) then o else best)
        first rest

let pp_plan fmt p =
  Format.fprintf fmt "<%s> tile=%s cores=%d space=%a time=%a"
    (String.concat "," (Array.to_list p.factors |> List.map string_of_int))
    (String.concat "x" (Array.to_list p.tile |> List.map string_of_int))
    p.cores_used Units.pp_bytes p.exec_space Units.pp_time p.exec_time
