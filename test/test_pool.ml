open Elk_util

(* ------------------------------------------------------------------ *)
(* Pool: per-call domain fan-out with deterministic map               *)
(* ------------------------------------------------------------------ *)

(* Distinct domains a map's callbacks ran on. *)
let domains_used xs =
  let ids = Pool.map (fun _ -> (Domain.self () :> int)) xs in
  List.length (List.sort_uniq compare ids)

let test_map_order () =
  Tu.with_jobs 4 (fun () ->
      let xs = List.init 100 Fun.id in
      Alcotest.(check (list int))
        "order preserved" (List.map (fun x -> x * x) xs)
        (Pool.map (fun x -> x * x) xs))

let test_map_empty_and_singleton () =
  Tu.with_jobs 4 (fun () ->
      Alcotest.(check (list int)) "empty" [] (Pool.map (fun x -> x) []);
      Alcotest.(check (list int)) "singleton" [ 7 ] (Pool.map (fun x -> x + 1) [ 6 ]))

let test_jobs_one_fallback () =
  Tu.with_jobs 1 (fun () ->
      let self = (Domain.self () :> int) in
      let seen = ref [] in
      let r =
        Pool.map
          (fun x ->
            seen := (x, (Domain.self () :> int)) :: !seen;
            x * 2)
          [ 1; 2; 3 ]
      in
      Alcotest.(check (list int)) "results" [ 2; 4; 6 ] r;
      (* Sequential fallback runs in list order on the calling domain. *)
      Alcotest.(check (list (pair int int)))
        "sequential order" [ (3, self); (2, self); (1, self) ] !seen)

let test_exception_propagation () =
  Tu.with_jobs 4 (fun () ->
      let raised =
        try
          ignore
            (Pool.map
               (fun x -> if x mod 3 = 0 then failwith (string_of_int x) else x)
               (List.init 20 (fun i -> i + 1)));
          None
        with Failure m -> Some m
      in
      (* Lowest-index failure wins regardless of completion timing. *)
      Alcotest.(check (option string)) "first failure" (Some "3") raised)

let test_exception_then_reuse () =
  Tu.with_jobs 4 (fun () ->
      (try ignore (Pool.map (fun _ -> failwith "boom") [ 1; 2; 3 ]) with Failure _ -> ());
      (* A raising map still joins its domains; the next map works. *)
      Alcotest.(check (list int)) "reused" [ 2; 3; 4 ] (Pool.map (fun x -> x + 1) [ 1; 2; 3 ]))

let test_nested_map () =
  Tu.with_jobs 4 (fun () ->
      let r =
        Pool.map
          (fun x ->
            (* A map issued from a callback runs inline on the callback's
               own domain. *)
            let outer = (Domain.self () :> int) in
            let inner = Pool.map (fun y -> (x * y, (Domain.self () :> int))) [ 1; 2; 3 ] in
            assert (List.for_all (fun (_, d) -> d = outer) inner);
            List.fold_left (fun a (v, _) -> a + v) 0 inner)
          (List.init 16 (fun i -> i))
      in
      Alcotest.(check (list int)) "nested results" (List.init 16 (fun i -> 6 * i)) r)

let test_many_tasks_few_workers () =
  Tu.with_jobs 2 (fun () ->
      let n = 500 in
      let r = Pool.map (fun x -> x + 1) (List.init n Fun.id) in
      Alcotest.(check int) "length" n (List.length r);
      Alcotest.(check (list int)) "values" (List.init n (fun i -> i + 1)) r)

let test_clamping () =
  (* Checked through the requested count, so no domains spawn. *)
  Tu.with_jobs 0 (fun () -> Alcotest.(check int) "zero -> 1" 1 (Pool.current_jobs ()));
  Tu.with_jobs (-3) (fun () -> Alcotest.(check int) "negative -> 1" 1 (Pool.current_jobs ()));
  Tu.with_jobs 10_000 (fun () ->
      Alcotest.(check int) "huge clamped" Pool.max_jobs (Pool.current_jobs ()))

let test_shared_pool () =
  Tu.with_jobs 3 (fun () ->
      Alcotest.(check int) "requested jobs" 3 (Pool.current_jobs ());
      Alcotest.(check bool) "at most 3 domains" true (domains_used (List.init 64 Fun.id) <= 3);
      Pool.set_jobs 2;
      Alcotest.(check int) "resized" 2 (Pool.current_jobs ());
      Alcotest.(check (list int))
        "shared map" [ 0; 2; 4; 6 ]
        (Pool.map (fun x -> 2 * x) [ 0; 1; 2; 3 ]))

let suite =
  [
    Alcotest.test_case "map preserves order" `Quick test_map_order;
    Alcotest.test_case "map edge sizes" `Quick test_map_empty_and_singleton;
    Alcotest.test_case "jobs=1 sequential fallback" `Quick test_jobs_one_fallback;
    Alcotest.test_case "lowest-index exception wins" `Quick test_exception_propagation;
    Alcotest.test_case "pool survives exceptions" `Quick test_exception_then_reuse;
    Alcotest.test_case "nested maps run inline" `Quick test_nested_map;
    Alcotest.test_case "many tasks, few workers" `Quick test_many_tasks_few_workers;
    Alcotest.test_case "jobs clamping" `Quick test_clamping;
    Alcotest.test_case "shared pool resize" `Quick test_shared_pool;
  ]
