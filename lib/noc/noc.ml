open Elk_arch

type node = Core of int | Hbm of int

type link =
  | Port_in of node
  | Port_out of node
  | Edge of { from_core : int; to_core : int }
  | Hbm_edge of { ctrl : int; entry : int }
  | L2_fabric

type path = { links : int array; latency : float; bottleneck : float; hops : int }

type t = {
  chip : Arch.chip;
  rows : int;
  cols : int;
  link_of : link array;  (* by id: the chip's links in compare_link order *)
  mutable paths : path array;
      (* by [src node id * cores + dst core], [unknown] until first use;
         allocated by the first [path] call *)
}

let unknown = { links = [||]; latency = nan; bottleneck = nan; hops = -1 }
let chip t = t.chip
let cores t = t.chip.Arch.cores
let is_mesh t = match t.chip.Arch.topology with Arch.Mesh2d _ -> true | _ -> false

let cluster_of t c =
  match t.chip.Arch.topology with
  | Arch.Clustered { cluster_size; _ } -> Some (c / cluster_size)
  | _ -> None

let validate_node t = function
  | Core c -> c >= 0 && c < cores t
  | Hbm h -> h >= 0 && h < t.chip.Arch.hbm_controllers

let check_node t n fn =
  if not (validate_node t n) then invalid_arg ("Noc." ^ fn ^ ": unknown node")

let per_ctrl_bw t =
  t.chip.Arch.hbm_bandwidth /. float_of_int t.chip.Arch.hbm_controllers

(* Mesh geometry: core i sits at (i / cols, i mod cols).  Controller h
   enters the mesh at an evenly spaced boundary core of row 0 or the last
   row, alternating sides. *)
let coord t c = (c / t.cols, c mod t.cols)
let core_at t r c = (r * t.cols) + c

(* Controller [h] owns a strip of boundary cores: even controllers on the
   top row, odd on the bottom, strips tiling the columns.  A preload to a
   destination core enters the mesh at the strip core closest to the
   destination's column, so injection spreads over the whole strip. *)
let ctrl_strip t h =
  let nc = t.chip.Arch.hbm_controllers in
  let per_side = (nc + 1) / 2 in
  let idx = h / 2 in
  let lo = idx * t.cols / per_side in
  let hi = min (t.cols - 1) (((idx + 1) * t.cols / per_side) - 1) in
  let row = if h mod 2 = 0 then 0 else t.rows - 1 in
  (row, lo, max lo hi)

let entry_core_for t h dst =
  let row, lo, hi = ctrl_strip t h in
  let _, dst_col = coord t dst in
  core_at t row (max lo (min hi dst_col))

let mesh_route t src dst =
  (* Dimension-order: walk columns first, then rows. *)
  let r0, c0 = coord t src and r1, c1 = coord t dst in
  let edges = ref [] in
  let cur_r = ref r0 and cur_c = ref c0 in
  while !cur_c <> c1 do
    let next = if c1 > !cur_c then !cur_c + 1 else !cur_c - 1 in
    edges := Edge { from_core = core_at t !cur_r !cur_c; to_core = core_at t !cur_r next } :: !edges;
    cur_c := next
  done;
  while !cur_r <> r1 do
    let next = if r1 > !cur_r then !cur_r + 1 else !cur_r - 1 in
    edges := Edge { from_core = core_at t !cur_r !cur_c; to_core = core_at t next !cur_c } :: !edges;
    cur_r := next
  done;
  List.rev !edges

let route t ~src ~dst =
  check_node t src "route";
  check_node t dst "route";
  if src = dst then []
  else
    match (src, dst) with
    | _, Hbm _ -> invalid_arg "Noc.route: HBM controllers only send"
    | Core s, Core d -> (
        if is_mesh t then mesh_route t s d
        else
          match (cluster_of t s, cluster_of t d) with
          | Some cs, Some cd when cs <> cd ->
              (* Inter-cluster traffic crosses the shared L2 fabric. *)
              [ Port_out (Core s); L2_fabric; Port_in (Core d) ]
          | _ -> [ Port_out (Core s); Port_in (Core d) ])
    | Hbm h, Core d ->
        if is_mesh t then
          let entry = entry_core_for t h d in
          Port_out (Hbm h) :: Hbm_edge { ctrl = h; entry } :: mesh_route t entry d
        else if cluster_of t d <> None then
          (* GPU-style: HBM sits behind the L2. *)
          [ Port_out (Hbm h); L2_fabric; Port_in (Core d) ]
        else [ Port_out (Hbm h); Port_in (Core d) ]

let hops t ~src ~dst = List.length (route t ~src ~dst)

let link_bandwidth t = function
  | Port_in (Core _) | Port_out (Core _) -> t.chip.Arch.intercore_link.Arch.bandwidth
  | Port_in (Hbm _) | Port_out (Hbm _) -> per_ctrl_bw t
  | Edge _ -> t.chip.Arch.intercore_link.Arch.bandwidth
  | Hbm_edge _ ->
      (* The controller's pipe into its boundary strip runs at the
         controller's rate; the mesh-internal hops behind the entry are
         where the delivery contends. *)
      per_ctrl_bw t
  | L2_fabric -> (
      match t.chip.Arch.topology with
      | Arch.Clustered { l2_bandwidth; _ } -> l2_bandwidth
      | _ -> invalid_arg "Noc.link_bandwidth: L2 on a non-clustered chip")

let route_latency t ~src ~dst =
  float_of_int (max 1 (hops t ~src ~dst)) *. t.chip.Arch.intercore_link.Arch.latency

(* Structural compare is a total order on this variant (constructor
   declaration order, then field order) — deterministic, independent of
   hash-table layout, and stable across runs and worker counts. *)
let compare_link (a : link) (b : link) = Stdlib.compare a b

(* ---- dense link table -------------------------------------------------- *)

(* Every link a route can traverse: the core ports and the controller
   ports of the all-to-all and clustered fabrics (plus the shared L2),
   or the directed edges, controller entry edges and controller ports of
   a mesh.  Ids are positions in compare_link order. *)
let chip_links t =
  let n = cores t and nc = t.chip.Arch.hbm_controllers in
  let ctrl_ports = List.init nc (fun h -> Port_out (Hbm h)) in
  let links =
    let ports =
      List.init n (fun c -> Port_in (Core c)) @ List.init n (fun c -> Port_out (Core c))
    in
    match t.chip.Arch.topology with
    | Arch.All_to_all -> ports @ ctrl_ports
    | Arch.Clustered _ -> (L2_fabric :: ports) @ ctrl_ports
    | Arch.Mesh2d _ ->
        let edges =
          List.concat
            (List.init n (fun c ->
                 let r, col = coord t c in
                 List.filter_map
                   (fun (r', c') ->
                     if r' >= 0 && r' < t.rows && c' >= 0 && c' < t.cols then
                       Some (Edge { from_core = c; to_core = core_at t r' c' })
                     else None)
                   [ (r - 1, col); (r, col - 1); (r, col + 1); (r + 1, col) ]))
        in
        let entries =
          List.concat
            (List.init nc (fun h ->
                 let row, lo, hi = ctrl_strip t h in
                 List.init (hi - lo + 1) (fun i ->
                     Hbm_edge { ctrl = h; entry = core_at t row (lo + i) })))
        in
        ctrl_ports @ edges @ entries
  in
  let a = Array.of_list links in
  Array.sort compare_link a;
  a

let create chip =
  (match Arch.validate_chip chip with
  | Ok () -> ()
  | Error m -> invalid_arg ("Noc.create: " ^ m));
  let rows, cols =
    match chip.Arch.topology with
    | Arch.All_to_all | Arch.Clustered _ -> (1, chip.Arch.cores)
    | Arch.Mesh2d { rows; cols } -> (rows, cols)
  in
  let t = { chip; rows; cols; link_of = [||]; paths = [||] } in
  { t with link_of = chip_links t }

let num_links t = Array.length t.link_of

let link_of_id t id =
  if id < 0 || id >= num_links t then invalid_arg "Noc.link_of_id: unknown id";
  t.link_of.(id)

(* Binary search over the canonical order. *)
let link_id t l =
  let rec go lo hi =
    if lo >= hi then invalid_arg "Noc.link_id: not a link of this chip"
    else
      let mid = (lo + hi) / 2 in
      let c = compare_link l t.link_of.(mid) in
      if c = 0 then mid else if c < 0 then go lo mid else go (mid + 1) hi
  in
  go 0 (num_links t)

let num_nodes t = cores t + t.chip.Arch.hbm_controllers

let node_id t n =
  check_node t n "node_id";
  match n with Core c -> c | Hbm h -> cores t + h

let node_of_id t i =
  if i < 0 || i >= num_nodes t then invalid_arg "Noc.node_of_id: unknown id";
  if i < cores t then Core i else Hbm (i - cores t)

let path t ~src ~dst =
  let n = cores t in
  if src < 0 || src >= num_nodes t || dst < 0 || dst >= n then
    invalid_arg "Noc.path: unknown node id";
  if Array.length t.paths = 0 then t.paths <- Array.make (num_nodes t * n) unknown;
  let k = (src * n) + dst in
  let p = t.paths.(k) in
  if p.hops >= 0 then p
  else begin
    let r = route t ~src:(node_of_id t src) ~dst:(Core dst) in
    let hops = List.length r in
    let p =
      {
        links = Array.of_list (List.map (link_id t) r);
        latency = float_of_int (max 1 hops) *. t.chip.Arch.intercore_link.Arch.latency;
        bottleneck =
          List.fold_left (fun bw l -> Float.min bw (link_bandwidth t l)) infinity r;
        hops;
      }
    in
    t.paths.(k) <- p;
    p
  end

let path_time p ~bytes =
  if p.hops = 0 then 0. else p.latency +. (bytes /. p.bottleneck)

let core_path t ~src ~dst =
  match dst with
  | Core d -> path t ~src:(node_id t src) ~dst:d
  | Hbm _ ->
      check_node t dst "route";
      invalid_arg "Noc.route: HBM controllers only send"

let transfer_time t ~src ~dst ~bytes =
  if bytes < 0. then invalid_arg "Noc.transfer_time: negative size";
  if src = dst then 0. else path_time (core_path t ~src ~dst) ~bytes

let hbm_ctrl_for_core t c =
  check_node t (Core c) "hbm_ctrl_for_core";
  Hbm (c mod t.chip.Arch.hbm_controllers)

let link_name (l : link) =
  match l with
  | Port_in (Core c) -> Printf.sprintf "port_in(core %d)" c
  | Port_in (Hbm h) -> Printf.sprintf "port_in(hbm %d)" h
  | Port_out (Core c) -> Printf.sprintf "port_out(core %d)" c
  | Port_out (Hbm h) -> Printf.sprintf "port_out(hbm %d)" h
  | Edge { from_core; to_core } -> Printf.sprintf "edge(%d->%d)" from_core to_core
  | Hbm_edge { ctrl; entry } -> Printf.sprintf "hbm_edge(%d->%d)" ctrl entry
  | L2_fabric -> "l2_fabric"

module Load = struct
  type loads = {
    noc : t;
    volumes : float array;  (* by link id *)
    touched : bool array;  (* by link id: some transfer crossed it *)
    mutable total : float;
    mutable worst_latency : float;
  }

  let create noc =
    let n = num_links noc in
    { noc; volumes = Array.make n 0.; touched = Array.make n false; total = 0.;
      worst_latency = 0. }

  let add l ~src ~dst ~bytes =
    if bytes < 0. then invalid_arg "Noc.Load.add: negative size";
    let p = core_path l.noc ~src ~dst in
    Array.iter
      (fun id ->
        if l.touched.(id) then l.volumes.(id) <- l.volumes.(id) +. bytes
        else begin
          l.touched.(id) <- true;
          l.volumes.(id) <- bytes
        end)
      p.links;
    l.total <- l.total +. bytes;
    if p.hops > 0 then l.worst_latency <- Float.max l.worst_latency p.latency

  let volume_on l link =
    match link_id l.noc link with
    | id -> l.volumes.(id)
    | exception Invalid_argument _ -> 0.

  (* Canonical iteration over per-link volumes: ascending link id, which
     is {!compare_link} order, so every consumer (busiest link, profiles,
     reports) sees links in one deterministic order. *)
  let fold l f init =
    let acc = ref init in
    Array.iteri
      (fun id touched -> if touched then acc := f !acc l.noc.link_of.(id) l.volumes.(id))
      l.touched;
    !acc

  let total_volume l = l.total

  let makespan l =
    let worst =
      fold l
        (fun acc link vol -> Float.max acc (vol /. link_bandwidth l.noc link))
        0.
    in
    if worst = 0. then 0. else worst +. l.worst_latency

  let busiest l =
    fold l
      (fun acc link vol ->
        let time = vol /. link_bandwidth l.noc link in
        match acc with
        | Some (_, best) when best >= time -> acc
        | _ -> Some (link, time))
      None

  let mean_utilization l ~horizon =
    if horizon <= 0. then 0.
    else
      let n = cores l.noc in
      let sum = ref 0. in
      for c = 0 to n - 1 do
        let vol =
          if is_mesh l.noc then
            (* On a mesh the port view does not exist; approximate each
               core's port load by the traffic on its outgoing edges. *)
            fold l
              (fun acc link v ->
                match link with Edge { from_core; _ } when from_core = c -> acc +. v | _ -> acc)
              0.
          else volume_on l (Port_in (Core c)) +. volume_on l (Port_out (Core c))
        in
        let bw = l.noc.chip.Arch.intercore_link.Arch.bandwidth in
        let denominator = if is_mesh l.noc then bw *. 4. else bw *. 2. in
        sum := !sum +. Float.min 1. (vol /. denominator /. horizon)
      done;
      !sum /. float_of_int n
end

let broadcast_time t ~src ~dsts ~bytes_per_dst =
  check_node t src "broadcast_time";
  let loads = Load.create t in
  List.iter (fun d -> Load.add loads ~src ~dst:(Core d) ~bytes:bytes_per_dst) dsts;
  Load.makespan loads
