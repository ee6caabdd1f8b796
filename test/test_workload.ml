(* Workload generator: determinism, arrival-process shape, length
   distributions.  The determinism tests are the contract the serving
   SLO snapshots rest on: the same seed must give the byte-identical
   request list on every run. *)

open Elk_serve

let poisson_spec =
  {
    Workload.arrival = Workload.Poisson { rate = 10. };
    prompt = Workload.Uniform { lo = 16; hi = 64 };
    output = Workload.Uniform { lo = 4; hi = 12 };
  }

let show reqs = Workload.to_json reqs

let test_same_seed_identical () =
  let a = Workload.generate ~seed:123 ~n:50 poisson_spec in
  let b = Workload.generate ~seed:123 ~n:50 poisson_spec in
  Alcotest.(check string) "byte-identical" (show a) (show b)

let test_different_seeds_differ () =
  let a = Workload.generate ~seed:1 ~n:50 poisson_spec in
  let b = Workload.generate ~seed:2 ~n:50 poisson_spec in
  Alcotest.(check bool) "different streams" true (show a <> show b)

let check_basic reqs n spec =
  Alcotest.(check int) "count" n (List.length reqs);
  List.iteri
    (fun i (r : Workload.request) ->
      Alcotest.(check int) "ids sequential" i r.Workload.req_id;
      Alcotest.(check bool) "arrival nonnegative" true (r.Workload.arrival_s >= 0.);
      (match spec.Workload.prompt with
      | Workload.Uniform { lo; hi } ->
          Alcotest.(check bool) "prompt in band" true
            (lo <= r.Workload.prompt_len && r.Workload.prompt_len <= hi)
      | _ -> ());
      match spec.Workload.output with
      | Workload.Uniform { lo; hi } ->
          Alcotest.(check bool) "output in band" true
            (lo <= r.Workload.output_len && r.Workload.output_len <= hi)
      | _ -> ())
    reqs;
  let rec mono = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool) "arrivals nondecreasing" true
          (a.Workload.arrival_s <= b.Workload.arrival_s);
        mono rest
    | _ -> ()
  in
  mono reqs

let test_all_arrival_kinds () =
  List.iter
    (fun arrival ->
      let spec = { poisson_spec with Workload.arrival } in
      check_basic (Workload.generate ~seed:5 ~n:40 spec) 40 spec)
    [
      Workload.Poisson { rate = 10. };
      Workload.Bursty
        { rate_on = 20.; rate_off = 0.; mean_on = 0.5; mean_off = 0.5 };
      Workload.Diurnal { base_rate = 5.; peak_rate = 15.; period = 4. };
    ]

let test_poisson_mean_rate () =
  (* 400 arrivals at rate 10: the empirical rate should land well within
     5x of nominal (it is a seeded draw, so this cannot flake). *)
  let reqs = Workload.generate ~seed:11 ~n:400 poisson_spec in
  let last = List.nth reqs 399 in
  let rate = 400. /. last.Workload.arrival_s in
  Alcotest.(check bool) "rate plausible" true (rate > 2. && rate < 50.)

let test_diurnal_rate_curve () =
  let f = Workload.diurnal_rate ~base_rate:2. ~peak_rate:10. ~period:8. in
  Alcotest.(check (float 1e-9)) "starts at base" 2. (f 0.);
  Alcotest.(check (float 1e-9)) "peaks mid-period" 10. (f 4.);
  Alcotest.(check (float 1e-9)) "returns to base" 2. (f 8.)

let test_fixed_and_lognormal () =
  let spec =
    {
      Workload.arrival = Workload.Poisson { rate = 5. };
      prompt = Workload.Fixed 32;
      output = Workload.Lognormal { mu = 2.; sigma = 0.5; lo = 2; hi = 20 };
    }
  in
  let reqs = Workload.generate ~seed:3 ~n:60 spec in
  List.iter
    (fun (r : Workload.request) ->
      Alcotest.(check int) "fixed prompt" 32 r.Workload.prompt_len;
      Alcotest.(check bool) "lognormal clamped" true
        (2 <= r.Workload.output_len && r.Workload.output_len <= 20))
    reqs

let test_validation () =
  let bad f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  bad (fun () ->
      Workload.validate
        { poisson_spec with Workload.arrival = Workload.Poisson { rate = 0. } });
  bad (fun () ->
      Workload.validate
        { poisson_spec with Workload.prompt = Workload.Uniform { lo = 8; hi = 4 } });
  bad (fun () ->
      Workload.validate
        { poisson_spec with Workload.output = Workload.Fixed 0 });
  bad (fun () -> ignore (Workload.generate ~seed:1 ~n:0 poisson_spec))

let test_presets () =
  List.iter
    (fun name ->
      match Workload.preset name ~rate:8. ~prompt_mean:64 ~output_mean:16 with
      | None -> Alcotest.fail ("preset missing: " ^ name)
      | Some spec ->
          Workload.validate spec;
          Alcotest.(check string) "arrival matches name" name
            (Workload.arrival_name spec.Workload.arrival))
    Workload.preset_names;
  Alcotest.(check bool) "unknown preset" true
    (Workload.preset "steady" ~rate:1. ~prompt_mean:8 ~output_mean:8 = None)

let suite =
  [
    Alcotest.test_case "same seed identical" `Quick test_same_seed_identical;
    Alcotest.test_case "different seeds differ" `Quick test_different_seeds_differ;
    Alcotest.test_case "all arrival kinds" `Quick test_all_arrival_kinds;
    Alcotest.test_case "poisson mean rate" `Quick test_poisson_mean_rate;
    Alcotest.test_case "diurnal rate curve" `Quick test_diurnal_rate_curve;
    Alcotest.test_case "fixed and lognormal" `Quick test_fixed_and_lognormal;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "presets" `Quick test_presets;
  ]
