(* Deterministic request-arrival workloads for the serving front-end.

   A workload is an arrival process (Poisson, Markov-modulated on/off
   bursts, or a diurnal rate curve) paired with prompt- and
   output-length distributions.  Everything is driven by the repo's
   splittable PRNG (Elk_util.Xrng): the same seed always yields the
   byte-identical request list, whatever machine or
   evaluation order — the serving SLO numbers downstream inherit that
   determinism.  Three independent streams (arrivals, prompt lengths,
   output lengths) are split off the seed up front, so changing one
   distribution never perturbs the samples of another. *)

module R = Elk_util.Xrng

type dist =
  | Fixed of int
  | Uniform of { lo : int; hi : int }
  | Lognormal of { mu : float; sigma : float; lo : int; hi : int }

type arrival =
  | Poisson of { rate : float }
  | Bursty of {
      rate_on : float;
      rate_off : float;
      mean_on : float;  (* mean sojourn in the on state, seconds *)
      mean_off : float;
    }
  | Diurnal of { base_rate : float; peak_rate : float; period : float }

type spec = { arrival : arrival; prompt : dist; output : dist }

type request = {
  req_id : int;
  arrival_s : float;  (* seconds since the start of the run *)
  prompt_len : int;  (* KV entries the prompt occupies *)
  output_len : int;  (* tokens to generate *)
}

let arrival_name = function
  | Poisson _ -> "poisson"
  | Bursty _ -> "bursty"
  | Diurnal _ -> "diurnal"

let validate_dist what = function
  | Fixed n when n > 0 -> ()
  | Uniform { lo; hi } when 0 < lo && lo <= hi -> ()
  | Lognormal { sigma; lo; hi; _ } when sigma >= 0. && 0 < lo && lo <= hi -> ()
  | _ -> invalid_arg (Printf.sprintf "Workload: invalid %s distribution" what)

let validate spec =
  (match spec.arrival with
  | Poisson { rate } ->
      if rate <= 0. then invalid_arg "Workload: Poisson rate must be positive"
  | Bursty { rate_on; rate_off; mean_on; mean_off } ->
      if rate_on <= 0. || rate_off < 0. then
        invalid_arg "Workload: bursty rates must be positive (off may be 0)";
      if mean_on <= 0. || mean_off <= 0. then
        invalid_arg "Workload: bursty sojourn means must be positive"
  | Diurnal { base_rate; peak_rate; period } ->
      if base_rate < 0. || peak_rate <= 0. || peak_rate < base_rate then
        invalid_arg "Workload: diurnal rates must satisfy 0 <= base <= peak, peak > 0";
      if period <= 0. then invalid_arg "Workload: diurnal period must be positive");
  validate_dist "prompt" spec.prompt;
  validate_dist "output" spec.output

(* Exponential variate; [1 - u] keeps the log argument in (0, 1]. *)
let exponential rng rate = -.log (Float.max 1e-12 (1. -. R.float rng 1.)) /. rate

let sample_dist rng = function
  | Fixed n -> n
  | Uniform { lo; hi } -> lo + R.int rng (hi - lo + 1)
  | Lognormal { mu; sigma; lo; hi } ->
      let v = exp (mu +. (sigma *. R.gaussian rng)) in
      max lo (min hi (int_of_float (Float.round v)))

(* The diurnal instantaneous rate: a raised cosine that starts (t = 0)
   at [base] and peaks once per [period]. *)
let diurnal_rate ~base_rate ~peak_rate ~period t =
  base_rate
  +. ((peak_rate -. base_rate)
     *. 0.5
     *. (1. -. cos (2. *. Float.pi *. t /. period)))

let arrivals rng spec ~n =
  match spec.arrival with
  | Poisson { rate } ->
      let t = ref 0. in
      List.init n (fun _ ->
          t := !t +. exponential rng rate;
          !t)
  | Bursty { rate_on; rate_off; mean_on; mean_off } ->
      (* Markov-modulated Poisson process: exponential sojourns in an
         on/off state, arrivals at the state's rate.  Sojourns are
         memoryless, so on every step we race the next arrival against
         the next state switch and redraw. *)
      let t = ref 0. and on = ref true in
      let next () =
        let rec go () =
          let rate = if !on then rate_on else rate_off in
          let switch = exponential rng (1. /. if !on then mean_on else mean_off) in
          let arrival = if rate > 0. then exponential rng rate else Float.infinity in
          if arrival <= switch then t := !t +. arrival
          else begin
            t := !t +. switch;
            on := not !on;
            go ()
          end
        in
        go ();
        !t
      in
      List.init n (fun _ -> next ())
  | Diurnal { base_rate; peak_rate; period } ->
      (* Lewis–Shedler thinning against the constant majorant [peak]. *)
      let t = ref 0. in
      let next () =
        let rec go () =
          t := !t +. exponential rng peak_rate;
          let lambda = diurnal_rate ~base_rate ~peak_rate ~period !t in
          if R.float rng 1. < lambda /. peak_rate then !t else go ()
        in
        go ()
      in
      List.init n (fun _ -> next ())

let generate ~seed ~n spec =
  if n <= 0 then invalid_arg "Workload.generate: n must be positive";
  validate spec;
  let root = R.create seed in
  (* Independent streams: resampling one never shifts the others. *)
  let arr_rng = R.split root in
  let prompt_rng = R.split root in
  let output_rng = R.split root in
  let times = arrivals arr_rng spec ~n in
  List.mapi
    (fun i arrival_s ->
      {
        req_id = i;
        arrival_s;
        prompt_len = sample_dist prompt_rng spec.prompt;
        output_len = sample_dist output_rng spec.output;
      })
    times

(* ---- named mixes for the CLI ---------------------------------------- *)

(* A mean length becomes a uniform band around it: [mean/2, mean*3/2]
   (at least 1 wide), enough spread to exercise padding/goodput without
   extra flags. *)
let band mean =
  if mean <= 1 then Fixed 1
  else Uniform { lo = max 1 (mean / 2); hi = max (mean / 2 + 1) (mean * 3 / 2) }

let preset name ~rate ~prompt_mean ~output_mean =
  if rate <= 0. then invalid_arg "Workload.preset: rate must be positive";
  let prompt = band prompt_mean and output = band output_mean in
  match name with
  | "poisson" -> Some { arrival = Poisson { rate }; prompt; output }
  | "bursty" ->
      (* On/off with a 4x rate contrast and sojourns long enough that a
         run sees a handful of bursts. *)
      Some
        {
          arrival =
            Bursty
              {
                rate_on = 2. *. rate;
                rate_off = 0.5 *. rate;
                mean_on = 4. /. rate;
                mean_off = 4. /. rate;
              };
          prompt;
          output;
        }
  | "diurnal" ->
      (* One "day" every 32 mean inter-arrivals; trough at 25% of peak. *)
      Some
        {
          arrival =
            Diurnal
              {
                base_rate = 0.5 *. rate;
                peak_rate = 1.5 *. rate;
                period = 32. /. rate;
              };
          prompt;
          output;
        }
  | _ -> None

let preset_names = [ "poisson"; "bursty"; "diurnal" ]

(* ---- export ---------------------------------------------------------- *)

let request_json r =
  Printf.sprintf "{\"id\":%d,\"arrival\":%s,\"prompt\":%d,\"output\":%d}" r.req_id
    (Elk_obs.Jsonx.number r.arrival_s)
    r.prompt_len r.output_len

let to_json reqs = "[" ^ String.concat "," (List.map request_json reqs) ^ "]"

let pp_request fmt r =
  Format.fprintf fmt "req %d @ %a (prompt %d, output %d)" r.req_id
    Elk_util.Units.pp_time r.arrival_s r.prompt_len r.output_len

let total_output_tokens reqs =
  List.fold_left (fun a r -> a + r.output_len) 0 reqs
