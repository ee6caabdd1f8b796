open Elk_noc
open Elk_arch

let a2a () = Noc.create (Arch.Presets.scaled_chip ())
let mesh () = Noc.create (Arch.Presets.scaled_chip ~topology_kind:`Mesh ())

let test_create_rejects_invalid () =
  let bad = { (Arch.Presets.scaled_chip ()) with Arch.cores = -1 } in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Noc.create bad);
       false
     with Invalid_argument _ -> true)

let test_validate_node () =
  let t = a2a () in
  Alcotest.(check bool) "core ok" true (Noc.validate_node t (Noc.Core 0));
  Alcotest.(check bool) "core oob" false (Noc.validate_node t (Noc.Core 64));
  Alcotest.(check bool) "hbm ok" true (Noc.validate_node t (Noc.Hbm 3));
  Alcotest.(check bool) "hbm oob" false (Noc.validate_node t (Noc.Hbm 4))

let test_a2a_route () =
  let t = a2a () in
  let r = Noc.route t ~src:(Noc.Core 3) ~dst:(Noc.Core 11) in
  Alcotest.(check int) "two ports" 2 (List.length r);
  Alcotest.(check bool) "out then in" true
    (r = [ Noc.Port_out (Noc.Core 3); Noc.Port_in (Noc.Core 11) ])

let test_self_route_empty () =
  let t = a2a () in
  Alcotest.(check int) "empty" 0 (List.length (Noc.route t ~src:(Noc.Core 5) ~dst:(Noc.Core 5)));
  Tu.check_float "zero time" 0. (Noc.transfer_time t ~src:(Noc.Core 5) ~dst:(Noc.Core 5) ~bytes:100.)

let test_route_to_hbm_rejected () =
  let t = a2a () in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Noc.route t ~src:(Noc.Core 0) ~dst:(Noc.Hbm 0));
       false
     with Invalid_argument _ -> true)

let test_mesh_route_xy () =
  let t = mesh () in
  (* 8x8 mesh: core 0 = (0,0), core 27 = (3,3): 3 column hops + 3 row hops. *)
  let r = Noc.route t ~src:(Noc.Core 0) ~dst:(Noc.Core 27) in
  Alcotest.(check int) "manhattan hops" 6 (List.length r);
  List.iter
    (fun l -> match l with Noc.Edge _ -> () | _ -> Alcotest.fail "expected mesh edges")
    r

let test_mesh_route_adjacent () =
  let t = mesh () in
  Alcotest.(check int) "neighbor 1 hop" 1
    (List.length (Noc.route t ~src:(Noc.Core 0) ~dst:(Noc.Core 1)))

let test_mesh_hbm_route () =
  let t = mesh () in
  let r = Noc.route t ~src:(Noc.Hbm 0) ~dst:(Noc.Core 63) in
  (match r with
  | Noc.Port_out (Noc.Hbm 0) :: Noc.Hbm_edge _ :: _ -> ()
  | _ -> Alcotest.fail "expected controller port then entry edge");
  Alcotest.(check bool) "reaches far corner" true (List.length r >= 3)

let test_a2a_hbm_bandwidths () =
  let t = a2a () in
  let chip = Noc.chip t in
  let per_ctrl = chip.Arch.hbm_bandwidth /. float_of_int chip.Arch.hbm_controllers in
  Tu.check_float "ctrl port at per-controller rate" per_ctrl
    (Noc.link_bandwidth t (Noc.Port_out (Noc.Hbm 0)));
  Tu.check_float "core port at link rate" chip.Arch.intercore_link.Arch.bandwidth
    (Noc.link_bandwidth t (Noc.Port_in (Noc.Core 0)))

let test_transfer_time_formula () =
  let t = a2a () in
  let chip = Noc.chip t in
  let bytes = 1e6 in
  let expect =
    (2. *. chip.Arch.intercore_link.Arch.latency)
    +. (bytes /. chip.Arch.intercore_link.Arch.bandwidth)
  in
  Tu.check_rel "latency + bytes/bw" ~tolerance:1e-9 expect
    (Noc.transfer_time t ~src:(Noc.Core 0) ~dst:(Noc.Core 1) ~bytes)

let test_mesh_farther_is_slower () =
  let t = mesh () in
  let near = Noc.transfer_time t ~src:(Noc.Core 0) ~dst:(Noc.Core 1) ~bytes:1e3 in
  let far = Noc.transfer_time t ~src:(Noc.Core 0) ~dst:(Noc.Core 63) ~bytes:1e3 in
  Alcotest.(check bool) "farther slower" true (far > near)

let test_hbm_ctrl_striping () =
  let t = a2a () in
  Alcotest.(check bool) "striped" true
    (Noc.hbm_ctrl_for_core t 0 = Noc.Hbm 0
    && Noc.hbm_ctrl_for_core t 1 = Noc.Hbm 1
    && Noc.hbm_ctrl_for_core t 4 = Noc.Hbm 0)

let test_load_accounting () =
  let t = a2a () in
  let l = Noc.Load.create t in
  Noc.Load.add l ~src:(Noc.Core 0) ~dst:(Noc.Core 1) ~bytes:100.;
  Noc.Load.add l ~src:(Noc.Core 2) ~dst:(Noc.Core 1) ~bytes:50.;
  Tu.check_float "total once per transfer" 150. (Noc.Load.total_volume l);
  Tu.check_float "receiver port accumulates" 150.
    (Noc.Load.volume_on l (Noc.Port_in (Noc.Core 1)));
  Tu.check_float "sender port" 100. (Noc.Load.volume_on l (Noc.Port_out (Noc.Core 0)))

let test_load_makespan_bottleneck () =
  let t = a2a () in
  let chip = Noc.chip t in
  let bw = chip.Arch.intercore_link.Arch.bandwidth in
  let l = Noc.Load.create t in
  (* Two senders into one receiver: the receiver port serializes. *)
  Noc.Load.add l ~src:(Noc.Core 0) ~dst:(Noc.Core 2) ~bytes:1e6;
  Noc.Load.add l ~src:(Noc.Core 1) ~dst:(Noc.Core 2) ~bytes:1e6;
  Tu.check_rel "makespan ~ 2MB over one port" ~tolerance:0.01 (2e6 /. bw)
    (Noc.Load.makespan l);
  match Noc.Load.busiest l with
  | Some (Noc.Port_in (Noc.Core 2), time) -> Tu.check_rel "busiest" ~tolerance:1e-9 (2e6 /. bw) time
  | _ -> Alcotest.fail "expected receiver port to be busiest"

let test_load_empty () =
  let t = a2a () in
  let l = Noc.Load.create t in
  Tu.check_float "makespan 0" 0. (Noc.Load.makespan l);
  Alcotest.(check bool) "no busiest" true (Noc.Load.busiest l = None)

let test_broadcast_time () =
  let t = a2a () in
  let chip = Noc.chip t in
  let bw = chip.Arch.intercore_link.Arch.bandwidth in
  (* One core sending 1KB to 10 others serializes on its outbound port. *)
  let dsts = List.init 10 (fun i -> i + 1) in
  let time = Noc.broadcast_time t ~src:(Noc.Core 0) ~dsts ~bytes_per_dst:1e3 in
  let latency = 2. *. chip.Arch.intercore_link.Arch.latency in
  Tu.check_rel "outbound serialized" ~tolerance:1e-6 ((10. *. 1e3 /. bw) +. latency) time

let test_hbm_broadcast_parallel () =
  let t = a2a () in
  let chip = Noc.chip t in
  (* A controller broadcasting to all cores is limited by per-core inbound
     ports (parallel), not by its own port (much faster). *)
  let dsts = List.init chip.Arch.cores (fun i -> i) in
  let per_core = 1e5 in
  let time = Noc.broadcast_time t ~src:(Noc.Hbm 0) ~dsts ~bytes_per_dst:per_core in
  let inbound = per_core /. chip.Arch.intercore_link.Arch.bandwidth in
  let ctrl =
    float_of_int chip.Arch.cores *. per_core
    /. (chip.Arch.hbm_bandwidth /. float_of_int chip.Arch.hbm_controllers)
  in
  Tu.check_rel "max(inbound, ctrl)" ~tolerance:0.15 (Float.max inbound ctrl) time

let test_load_fold_canonical () =
  let t = a2a () in
  let l = Noc.Load.create t in
  Noc.Load.add l ~src:(Noc.Core 5) ~dst:(Noc.Core 1) ~bytes:10.;
  Noc.Load.add l ~src:(Noc.Core 0) ~dst:(Noc.Core 3) ~bytes:20.;
  Noc.Load.add l ~src:(Noc.Hbm 0) ~dst:(Noc.Core 2) ~bytes:30.;
  let links = List.rev (Noc.Load.fold l (fun acc link _ -> link :: acc) []) in
  let rec sorted = function
    | a :: (b :: _ as rest) -> Noc.compare_link a b < 0 && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "canonically sorted" true (sorted links);
  Alcotest.(check int) "each touched link appears once" 6 (List.length links);
  Tu.check_float "per-link volume sum (both ports per transfer)" 120.
    (Noc.Load.fold l (fun acc _ v -> acc +. v) 0.);
  (* busiest goes through the same fold: the 30-byte HBM delivery rides
     the faster controller port, so the hottest core port wins. *)
  match Noc.Load.busiest l with
  | Some (Noc.Port_in (Noc.Core 2), _) -> ()
  | _ -> Alcotest.fail "expected port_in(core 2) as busiest"

let test_mean_utilization_zero_horizon () =
  let t = a2a () in
  let l = Noc.Load.create t in
  Noc.Load.add l ~src:(Noc.Core 0) ~dst:(Noc.Core 1) ~bytes:1e6;
  Tu.check_float "zero horizon" 0. (Noc.Load.mean_utilization l ~horizon:0.);
  Tu.check_float "negative horizon" 0.
    (Noc.Load.mean_utilization l ~horizon:(-1.))

let test_mesh_utilization_nonzero () =
  let t = mesh () in
  let l = Noc.Load.create t in
  Noc.Load.add l ~src:(Noc.Core 0) ~dst:(Noc.Core 7) ~bytes:1e6;
  Alcotest.(check bool) "mean util > 0" true (Noc.Load.mean_utilization l ~horizon:1e-3 > 0.)

let qcheck_mesh_route_connects =
  Tu.qtest ~count:80 "noc: mesh XY routes have manhattan length"
    QCheck2.Gen.(pair (int_bound 63) (int_bound 63))
    (fun (s, d) ->
      let t = mesh () in
      let hops = Noc.hops t ~src:(Noc.Core s) ~dst:(Noc.Core d) in
      let manhattan = abs ((s / 8) - (d / 8)) + abs ((s mod 8) - (d mod 8)) in
      hops = manhattan)

let qcheck_transfer_time_monotone =
  Tu.qtest ~count:60 "noc: transfer time grows with volume"
    QCheck2.Gen.(pair (float_range 1. 1e6) (float_range 1. 1e6))
    (fun (b1, b2) ->
      let t = a2a () in
      let f b = Noc.transfer_time t ~src:(Noc.Core 0) ~dst:(Noc.Core 1) ~bytes:b in
      if b1 <= b2 then f b1 <= f b2 else f b2 <= f b1)

let qcheck_transfer_time_monotone_mesh =
  Tu.qtest ~count:60 "noc: mesh transfer time grows with volume"
    QCheck2.Gen.(triple (float_range 1. 1e6) (float_range 1. 1e6)
                   (pair (int_bound 63) (int_bound 63)))
    (fun (b1, b2, (s, d)) ->
      let t = mesh () in
      let f b = Noc.transfer_time t ~src:(Noc.Core s) ~dst:(Noc.Core d) ~bytes:b in
      if b1 <= b2 then f b1 <= f b2 else f b2 <= f b1)

let qcheck_hops_equals_route_length =
  Tu.qtest ~count:80 "noc: hops equals route length on both topologies"
    QCheck2.Gen.(triple bool (int_bound 63) (int_bound 63))
    (fun (use_mesh, s, d) ->
      let t = if use_mesh then mesh () else a2a () in
      let agrees src dst =
        Noc.hops t ~src ~dst = List.length (Noc.route t ~src ~dst)
      in
      agrees (Noc.Core s) (Noc.Core d) && agrees (Noc.Hbm (s mod 4)) (Noc.Core d))

(* XY routes are hop-minimal *and* valid: a chain of unit-distance mesh
   edges from src to dst. *)
let qcheck_mesh_route_valid_path =
  Tu.qtest ~count:80 "noc: mesh XY route is a connected edge path"
    QCheck2.Gen.(pair (int_bound 63) (int_bound 63))
    (fun (s, d) ->
      let t = mesh () in
      let r = Noc.route t ~src:(Noc.Core s) ~dst:(Noc.Core d) in
      let adjacent a b =
        abs ((a / 8) - (b / 8)) + abs ((a mod 8) - (b mod 8)) = 1
      in
      let ok, last =
        List.fold_left
          (fun (ok, cur) l ->
            match l with
            | Noc.Edge { from_core; to_core } ->
                (ok && from_core = cur && adjacent from_core to_core, to_core)
            | _ -> (false, cur))
          (true, s) r
      in
      ok && last = d && (s <> d || r = []))


(* ---- GPU-style clustered fabric ----------------------------------- *)

let clustered () = Noc.create (Arch.Presets.gpu_like_chip ~cores:64 ~clusters:8 ())

let test_cluster_intra_route () =
  let t = clustered () in
  (* Cores 0 and 7 share cluster 0: direct ports, no L2. *)
  let r = Noc.route t ~src:(Noc.Core 0) ~dst:(Noc.Core 7) in
  Alcotest.(check bool) "no L2" true (not (List.mem Noc.L2_fabric r));
  Alcotest.(check int) "two ports" 2 (List.length r)

let test_cluster_inter_route () =
  let t = clustered () in
  (* Cores 0 and 8 are in different clusters: traffic crosses the L2. *)
  let r = Noc.route t ~src:(Noc.Core 0) ~dst:(Noc.Core 8) in
  Alcotest.(check bool) "via L2" true (List.mem Noc.L2_fabric r)

let test_cluster_hbm_via_l2 () =
  let t = clustered () in
  let r = Noc.route t ~src:(Noc.Hbm 0) ~dst:(Noc.Core 3) in
  Alcotest.(check bool) "HBM behind L2" true (List.mem Noc.L2_fabric r)

let test_cluster_l2_bandwidth () =
  let chip = Arch.Presets.gpu_like_chip () in
  let t = Noc.create chip in
  Tu.check_float "L2 bw = HBM bw (paper 7 regime)" chip.Arch.hbm_bandwidth
    (Noc.link_bandwidth t Noc.L2_fabric)

let test_cluster_l2_serializes () =
  let t = clustered () in
  let l = Noc.Load.create t in
  (* Many inter-cluster transfers pile onto the single L2 fabric. *)
  for c = 0 to 7 do
    Noc.Load.add l ~src:(Noc.Core c) ~dst:(Noc.Core (c + 8)) ~bytes:1e6
  done;
  Tu.check_float "L2 carries all" 8e6 (Noc.Load.volume_on l Noc.L2_fabric)

(* ---- dense link table ---------------------------------------------- *)

let table_chips () = [ ("a2a", a2a ()); ("mesh", mesh ()); ("clustered", clustered ()) ]

let test_link_ids_bijective () =
  List.iter
    (fun (name, t) ->
      let n = Noc.num_links t in
      Alcotest.(check bool) (name ^ ": has links") true (n > 0);
      for id = 0 to n - 1 do
        Alcotest.(check int) (name ^ ": id round-trips") id (Noc.link_id t (Noc.link_of_id t id))
      done;
      let distinct = List.sort_uniq Noc.compare_link (List.init n (Noc.link_of_id t)) in
      Alcotest.(check int) (name ^ ": links distinct") n (List.length distinct))
    (table_chips ())

let test_link_ids_canonical () =
  List.iter
    (fun (name, t) ->
      for id = 1 to Noc.num_links t - 1 do
        Alcotest.(check bool)
          (Printf.sprintf "%s: id %d after id %d" name id (id - 1))
          true
          (Noc.compare_link (Noc.link_of_id t (id - 1)) (Noc.link_of_id t id) < 0)
      done)
    (table_chips ())

(* Every memoized path agrees with the list-based route, hop count and
   latency, and its bottleneck is the route's least link bandwidth. *)
let test_paths_match_routes () =
  List.iter
    (fun (name, t) ->
      let chip = Noc.chip t in
      let nodes =
        List.init chip.Arch.cores (fun c -> Noc.Core c)
        @ List.init chip.Arch.hbm_controllers (fun h -> Noc.Hbm h)
      in
      List.iter
        (fun src ->
          for d = 0 to chip.Arch.cores - 1 do
            let dst = Noc.Core d in
            let p = Noc.path t ~src:(Noc.node_id t src) ~dst:d in
            let r = Noc.route t ~src ~dst in
            let label = Printf.sprintf "%s: %s" name (Noc.link_name (Noc.Port_out src)) in
            Alcotest.(check (list int)) (label ^ " links")
              (List.map (Noc.link_id t) r) (Array.to_list p.Noc.links);
            Alcotest.(check int) (label ^ " hops") (Noc.hops t ~src ~dst) p.Noc.hops;
            Alcotest.(check bool) (label ^ " latency") true
              (Noc.route_latency t ~src ~dst = p.Noc.latency);
            Alcotest.(check bool) (label ^ " bottleneck") true
              (List.fold_left (fun bw l -> Float.min bw (Noc.link_bandwidth t l)) infinity r
              = p.Noc.bottleneck);
            Alcotest.(check bool) (label ^ " memoized") true
              (Noc.path t ~src:(Noc.node_id t src) ~dst:d == p)
          done)
        nodes)
    (table_chips ())

let suite =
  [
    ("noc: link ids are a bijection", `Quick, test_link_ids_bijective);
    ("noc: link ids follow compare_link", `Quick, test_link_ids_canonical);
    ("noc: memoized paths match routes", `Quick, test_paths_match_routes);
    ("noc: rejects invalid chip", `Quick, test_create_rejects_invalid);
    ("noc: node validation", `Quick, test_validate_node);
    ("noc: all-to-all route", `Quick, test_a2a_route);
    ("noc: self route", `Quick, test_self_route_empty);
    ("noc: core->hbm rejected", `Quick, test_route_to_hbm_rejected);
    ("noc: mesh XY routing", `Quick, test_mesh_route_xy);
    ("noc: mesh adjacency", `Quick, test_mesh_route_adjacent);
    ("noc: mesh HBM entry", `Quick, test_mesh_hbm_route);
    ("noc: link bandwidths", `Quick, test_a2a_hbm_bandwidths);
    ("noc: transfer time formula", `Quick, test_transfer_time_formula);
    ("noc: mesh distance", `Quick, test_mesh_farther_is_slower);
    ("noc: controller striping", `Quick, test_hbm_ctrl_striping);
    ("noc: load accounting", `Quick, test_load_accounting);
    ("noc: makespan bottleneck", `Quick, test_load_makespan_bottleneck);
    ("noc: empty load", `Quick, test_load_empty);
    ("noc: broadcast from core", `Quick, test_broadcast_time);
    ("noc: HBM broadcast parallel", `Quick, test_hbm_broadcast_parallel);
    ("noc: load fold canonical order", `Quick, test_load_fold_canonical);
    ("noc: mean utilization guards empty horizon", `Quick,
     test_mean_utilization_zero_horizon);
    ("noc: mesh utilization", `Quick, test_mesh_utilization_nonzero);
    ("noc: cluster intra route", `Quick, test_cluster_intra_route);
    ("noc: cluster inter route", `Quick, test_cluster_inter_route);
    ("noc: cluster HBM via L2", `Quick, test_cluster_hbm_via_l2);
    ("noc: cluster L2 bandwidth", `Quick, test_cluster_l2_bandwidth);
    ("noc: cluster L2 serializes", `Quick, test_cluster_l2_serializes);
    qcheck_mesh_route_connects;
    qcheck_transfer_time_monotone;
    qcheck_transfer_time_monotone_mesh;
    qcheck_hops_equals_route_length;
    qcheck_mesh_route_valid_path;
  ]
