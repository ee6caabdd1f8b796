(* Elk_analyze: dominant-resource classification and report invariants. *)

module A = Elk_analyze.Analyze
module Pc = Elk_sim.Perfcore
module Sim = Elk_sim.Sim

let resource = Alcotest.testable (Fmt.of_to_string A.resource_name) ( = )

let attrib ?(hbm = 0.) ?(ic = 0.) ?(compute = 0.) ?(port = 0.) () =
  { Pc.a_hbm = hbm; a_interconnect = ic; a_compute = compute; a_port = port }

let test_classify_synthetic () =
  (* Hand-built attributions with one clearly dominant bucket. *)
  Alcotest.check resource "clearly HBM-bound" A.Hbm
    (A.classify (attrib ~hbm:8e-3 ~ic:1e-4 ~compute:2e-4 ()));
  Alcotest.check resource "clearly interconnect-bound" A.Interconnect
    (A.classify (attrib ~ic:5e-3 ~hbm:1e-4 ~compute:1e-3 ~port:2e-4 ()));
  Alcotest.check resource "compute-bound" A.Compute
    (A.classify (attrib ~compute:9e-3 ~ic:1e-3 ()));
  Alcotest.check resource "port-bound" A.Port
    (A.classify (attrib ~port:3e-3 ~compute:1e-3 ()))

let test_classify_edge_cases () =
  (* No attributed time at all, and exact ties, both read as compute. *)
  Alcotest.check resource "all-zero defaults to compute" A.Compute
    (A.classify (attrib ()));
  Alcotest.check resource "tie with compute goes to compute" A.Compute
    (A.classify (attrib ~hbm:1e-3 ~compute:1e-3 ()))

let result =
  lazy (Sim.run (Lazy.force Tu.default_ctx) (Lazy.force Tu.tiny_schedule))

let report =
  lazy
    (let s = Lazy.force Tu.tiny_schedule in
     A.analyze ~top:4 s.Elk.Schedule.graph (Lazy.force result))

let test_report_invariants () =
  let r = Lazy.force result and rep = Lazy.force report in
  Tu.check_rel "resource totals sum to makespan" ~tolerance:1e-6 r.Sim.total
    (List.fold_left (fun acc (_, t) -> acc +. t) 0. rep.A.resource_totals);
  List.iter
    (fun (res, h) ->
      Alcotest.(check bool)
        (A.resource_name res ^ " headroom bounded")
        true
        (h >= 0. && h <= r.Sim.total +. 1e-12))
    rep.A.headroom;
  Alcotest.(check int) "mix covers every operator"
    (Array.length rep.A.ops)
    (List.fold_left (fun acc (_, n) -> acc + n) 0 rep.A.mix);
  Alcotest.(check int) "top-k cores bounded" 4 (List.length rep.A.top_cores);
  Alcotest.(check bool) "imbalance >= 1" true (rep.A.imbalance >= 1.);
  (* top cores come out busiest-first *)
  let rec sorted = function
    | a :: (b :: _ as tl) -> Pc.busy a.A.buckets >= Pc.busy b.A.buckets && sorted tl
    | _ -> true
  in
  Alcotest.(check bool) "cores sorted by busy" true (sorted rep.A.top_cores)

let test_exports () =
  let rep = Lazy.force report in
  let json = A.to_json rep in
  let contains n h =
    let nl = String.length n and hl = String.length h in
    let rec go i = i + nl <= hl && (String.sub h i nl = n || go (i + 1)) in
    go 0
  in
  List.iter
    (fun key -> Alcotest.(check bool) ("json has " ^ key) true (contains key json))
    [
      "\"total\""; "\"imbalance\""; "\"resource_seconds\""; "\"headroom_latency\"";
      "\"mix\""; "\"top_cores\""; "\"ops\""; "\"bandwidth\"";
    ];
  Alcotest.(check int) "five tables" 5 (List.length (A.tables rep));
  let counters = A.chrome_counter_events ~bins:16 ~top:2 (Lazy.force result) in
  Alcotest.(check bool) "counter events present" true (counters <> []);
  List.iter
    (fun ev ->
      Alcotest.(check bool) "is a C event" true (contains "\"ph\":\"C\"" ev))
    counters

(* Degenerate single-operator model: one tiny matmul leaves most buckets
   at exactly zero, which is where an unguarded share/headroom division
   turns into nan and leaks into the JSON as null. *)
let test_degenerate_single_op () =
  let b = Elk_model.Graph.builder ~name:"degenerate" in
  let _ =
    Elk_model.Graph.add b ~role:"lm_head"
      (Elk_tensor.Opspec.matmul ~name:"only" ~m:4 ~n:64 ~k:64 ())
  in
  let g = Elk_model.Graph.finish b in
  let ctx = Lazy.force Tu.default_ctx in
  let s = Elk.Scheduler.run ctx g in
  let r = Sim.run ~events:true ctx s in
  let rep = A.analyze g r in
  (* Jsonx.number renders non-finite floats as null, so a nan/inf that
     escaped a guard shows up as a ":null" value in the document. *)
  let no_bad what str =
    let contains n h =
      let nl = String.length n and hl = String.length h in
      let rec go i = i + nl <= hl && (String.sub h i nl = n || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) (what ^ " free of null") false (contains ":null" str);
    Alcotest.(check bool) (what ^ " free of inf") false (contains "inf" str)
  in
  no_bad "analyze json" (A.to_json rep);
  List.iter
    (fun (res, h) ->
      Alcotest.(check bool)
        (A.resource_name res ^ " headroom finite")
        true
        (Float.is_finite h && h >= 0.))
    rep.A.headroom;
  Alcotest.(check bool) "imbalance finite" true (Float.is_finite rep.A.imbalance);
  (* The slack-aware cross-check must hold on degenerate models too. *)
  match r.Sim.events with
  | None -> Alcotest.fail "no events"
  | Some ev -> (
      let sum = Elk_sim.Critpath.extract ev in
      no_bad "critpath json" (Elk_sim.Critpath.to_json g sum);
      match A.headroom_check rep sum with
      | Ok () -> ()
      | Error m -> Alcotest.fail m)

(* Slack-aware headroom: the causal chain bounds how much of each
   resource's attributed time is actually load-bearing, so the
   slack-aware estimate can never promise more latency reduction than
   the chain spends on that resource. *)
let test_slack_headroom () =
  let r = Lazy.force (lazy (Sim.run ~events:true (Lazy.force Tu.default_ctx) (Lazy.force Tu.tiny_schedule))) in
  let s = Lazy.force Tu.tiny_schedule in
  let rep = A.analyze ~top:4 s.Elk.Schedule.graph r in
  match r.Sim.events with
  | None -> Alcotest.fail "no events"
  | Some ev ->
      let sum = Elk_sim.Critpath.extract ev in
      (match A.headroom_check rep sum with
      | Ok () -> ()
      | Error m -> Alcotest.fail m);
      List.iter
        (fun (res, attrib_h, slack_h) ->
          Alcotest.(check bool)
            (A.resource_name res ^ " slack-aware headroom bounded")
            true
            (Float.is_finite slack_h && slack_h >= 0.
            && slack_h <= rep.A.total +. 1e-12
            && attrib_h >= 0.))
        (A.slack_headroom rep sum)

(* The report skeleton fails the command on any check error: the error
   comes back unchanged and nothing is printed or exported. *)
let test_report_skeleton_fails () =
  let rep =
    {
      Elk_analyze.Report.what = "synthetic report";
      check = Error "synthetic violation";
      warnings = [ "never shown" ];
      print = (fun () -> Alcotest.fail "printed despite a failed check");
      to_json = (fun () -> "{}");
      trace_events = (fun () -> []);
      gauges = [];
    }
  in
  Alcotest.(check (result unit string)) "error returned" (Error "synthetic violation")
    (Elk_analyze.Report.emit rep);
  (* A real run whose attribution leaks a second fails elk analyze. *)
  let s = Lazy.force Tu.tiny_schedule in
  let r = Sim.run (Lazy.force Tu.default_ctx) s in
  let b = r.Sim.perf.Pc.per_core.(0) in
  b.Pc.idle <- b.Pc.idle +. 1.;
  match Elk_analyze.Report.emit (A.report s.Elk.Schedule.graph r) with
  | Error m ->
      Alcotest.(check bool) "names the leak" true
        (String.starts_with ~prefix:"attribution leak: " m)
  | Ok () -> Alcotest.fail "leaking attribution passed the check"

let suite =
  [
    ("classify: synthetic dominant buckets", `Quick, test_classify_synthetic);
    ("classify: ties and zeros", `Quick, test_classify_edge_cases);
    ("report invariants on a real run", `Quick, test_report_invariants);
    ("json/table/counter exports", `Quick, test_exports);
    ("degenerate single-op model stays finite", `Quick, test_degenerate_single_op);
    ("slack-aware headroom cross-check", `Quick, test_slack_headroom);
    ("report skeleton fails on a check error", `Quick, test_report_skeleton_fails);
  ]
