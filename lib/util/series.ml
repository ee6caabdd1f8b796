type contrib = { t0 : float; t1 : float; volume : float }
type t = { mutable contribs : contrib list }

let create () = { contribs = [] }

let add t ~t_start ~t_end ~volume =
  if t_end < t_start then invalid_arg "Series.add: negative interval";
  t.contribs <- { t0 = t_start; t1 = t_end; volume } :: t.contribs

let horizon t =
  match t.contribs with
  | [] -> (0., 0.)
  | c :: rest ->
      List.fold_left
        (fun (lo, hi) c -> (Float.min lo c.t0, Float.max hi c.t1))
        (c.t0, c.t1) rest

let total t = List.fold_left (fun a c -> a +. c.volume) 0. t.contribs

let bins t ~n =
  if n <= 0 then invalid_arg "Series.bins: n must be positive";
  let lo, hi = horizon t in
  let span = hi -. lo in
  let width = if span = 0. then 1. else span /. float_of_int n in
  let acc = Array.make n 0. in
  let clamp i = max 0 (min (n - 1) i) in
  List.iter
    (fun c ->
      if c.t1 <= c.t0 then begin
        (* Instantaneous contribution: all volume into one bin. *)
        let i = clamp (int_of_float ((c.t0 -. lo) /. width)) in
        acc.(i) <- acc.(i) +. c.volume
      end
      else
        let first = clamp (int_of_float ((c.t0 -. lo) /. width)) in
        let last = clamp (int_of_float ((c.t1 -. lo) /. width -. 1e-9)) in
        let per_time = c.volume /. (c.t1 -. c.t0) in
        for i = first to last do
          let b0 = lo +. (float_of_int i *. width) and b1 = lo +. (float_of_int (i + 1) *. width) in
          let overlap = Float.min c.t1 b1 -. Float.max c.t0 b0 in
          if overlap > 0. then acc.(i) <- acc.(i) +. (per_time *. overlap)
        done)
    t.contribs;
  Array.init n (fun i ->
      (lo +. ((float_of_int i +. 0.5) *. width), acc.(i) /. width))

let peak_rate t ~n =
  if t.contribs = [] then 0.
  else Array.fold_left (fun a (_, r) -> Float.max a r) 0. (bins t ~n)

let mean_rate t =
  let lo, hi = horizon t in
  if hi <= lo then 0. else total t /. (hi -. lo)

let union_measure intervals =
  let sorted = List.sort compare (List.filter (fun (a, b) -> b > a) intervals) in
  let rec go acc cur = function
    | [] -> ( match cur with None -> acc | Some (a, b) -> acc +. (b -. a))
    | (a, b) :: rest -> (
        match cur with
        | None -> go acc (Some (a, b)) rest
        | Some (ca, cb) ->
            if a <= cb then go acc (Some (ca, Float.max cb b)) rest
            else go (acc +. (cb -. ca)) (Some (a, b)) rest)
  in
  go 0. None sorted
