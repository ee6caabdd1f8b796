(* Shared fixtures for the test suite.  Cost-model training is the most
   expensive setup step, so trained contexts are created lazily and
   shared. *)

let default_pod = lazy (Elk_arch.Arch.Presets.scaled_pod ())

let small_pod =
  lazy (Elk_arch.Arch.Presets.scaled_pod ~chips:2 ~cores:16 ())

let mesh_pod = lazy (Elk_arch.Arch.Presets.scaled_pod ~topology_kind:`Mesh ())

let ctx_of pod =
  let chip = (Lazy.force pod).Elk_arch.Arch.chip in
  Elk_partition.Partition.make_ctx
    (Elk_cost.Costmodel.train ~samples_per_kind:150 chip)

let default_ctx = lazy (ctx_of default_pod)
let small_ctx = lazy (ctx_of small_pod)
let mesh_ctx = lazy (ctx_of mesh_pod)

(* A small but structurally complete decode model: 2 transformer layers of
   a 1/16-scale Llama2-13B. *)
let tiny_llama =
  lazy
    (let cfg = Elk_model.Zoo.scale Elk_model.Zoo.llama2_13b ~factor:16 ~layer_factor:20 in
     Elk_model.Zoo.build cfg (Elk_model.Zoo.Decode { batch = 16; ctx = 128 }))

let tiny_llama_chip_graph =
  lazy (Elk.Sharding.shard_graph ~chips:4 (Lazy.force tiny_llama))

let tiny_schedule =
  lazy (Elk.Scheduler.run (Lazy.force default_ctx) (Lazy.force tiny_llama_chip_graph))

let mesh_schedule =
  lazy (Elk.Scheduler.run (Lazy.force mesh_ctx) (Lazy.force tiny_llama_chip_graph))

let matmul_op = Elk_tensor.Opspec.matmul ~name:"t.mm" ~m:32 ~n:256 ~k:256 ()

(* Run [f] with the pool's job count set to [jobs], restoring it after. *)
let with_jobs jobs f =
  let prev = Elk_util.Pool.current_jobs () in
  Elk_util.Pool.set_jobs jobs;
  Fun.protect ~finally:(fun () -> Elk_util.Pool.set_jobs prev) f

let check_float = Alcotest.(check (float 1e-9))
let check_close ?(eps = 1e-6) name a b = Alcotest.(check (float eps)) name a b

let check_rel name ~tolerance expected actual =
  let rel =
    if expected = 0. then Float.abs actual
    else Float.abs (actual -. expected) /. Float.abs expected
  in
  if rel > tolerance then
    Alcotest.failf "%s: expected %g within %.1f%%, got %g (off by %.1f%%)" name expected
      (100. *. tolerance) actual (100. *. rel)

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)
