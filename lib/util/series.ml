(* Contributions are stored as three unboxed floats each — start, end,
   volume — in fixed-size chunks, so recording one allocates nothing
   beyond its share of a chunk.  Readers visit them newest first. *)
let chunk_floats = 3 * 64

type t = {
  mutable chunk : float array;  (* being filled; [||] before the first add *)
  mutable fill : int;  (* floats used in [chunk] *)
  mutable older : float array list;  (* full chunks, newest first *)
}

let create () = { chunk = [||]; fill = 0; older = [] }

(* Room for one more contribution: its index in [t.chunk]. *)
let next_slot t =
  if t.fill = Array.length t.chunk then begin
    if t.fill > 0 then t.older <- t.chunk :: t.older;
    t.chunk <- Array.make chunk_floats 0.;
    t.fill <- 0
  end;
  let i = t.fill in
  t.fill <- i + 3;
  i

let[@inline] add t ~t_start ~t_end ~volume =
  if t_end < t_start then invalid_arg "Series.add: negative interval";
  let i = next_slot t in
  let c = t.chunk in
  c.(i) <- t_start;
  c.(i + 1) <- t_end;
  c.(i + 2) <- volume

let add_from t a i = add t ~t_start:a.(i) ~t_end:a.(i + 1) ~volume:a.(i + 2)

(* [iter t f] calls [f c i] on every contribution, newest first; its
   start, end and volume are [c.(i)], [c.(i+1)] and [c.(i+2)]. *)
let iter t f =
  let walk c n =
    let i = ref (n - 3) in
    while !i >= 0 do
      f c !i;
      i := !i - 3
    done
  in
  walk t.chunk t.fill;
  List.iter (fun c -> walk c (Array.length c)) t.older

let is_empty t = t.fill = 0

let horizon t =
  if is_empty t then (0., 0.)
  else begin
    let lo_hi = [| infinity; neg_infinity |] in
    iter t (fun c i ->
        lo_hi.(0) <- Float.min lo_hi.(0) c.(i);
        lo_hi.(1) <- Float.max lo_hi.(1) c.(i + 1));
    (lo_hi.(0), lo_hi.(1))
  end

let total t =
  let sum = [| 0. |] in
  iter t (fun c i -> sum.(0) <- sum.(0) +. c.(i + 2));
  sum.(0)

let bins t ~n =
  if n <= 0 then invalid_arg "Series.bins: n must be positive";
  let lo, hi = horizon t in
  let span = hi -. lo in
  let width = if span = 0. then 1. else span /. float_of_int n in
  let acc = Array.make n 0. in
  let clamp i = max 0 (min (n - 1) i) in
  iter t (fun c i ->
      let t0 = c.(i) and t1 = c.(i + 1) and volume = c.(i + 2) in
      if t1 <= t0 then begin
        (* Instantaneous contribution: all volume into one bin. *)
        let i = clamp (int_of_float ((t0 -. lo) /. width)) in
        acc.(i) <- acc.(i) +. volume
      end
      else
        let first = clamp (int_of_float ((t0 -. lo) /. width)) in
        let last = clamp (int_of_float ((t1 -. lo) /. width -. 1e-9)) in
        let per_time = volume /. (t1 -. t0) in
        for i = first to last do
          let b0 = lo +. (float_of_int i *. width) and b1 = lo +. (float_of_int (i + 1) *. width) in
          let overlap = Float.min t1 b1 -. Float.max t0 b0 in
          if overlap > 0. then acc.(i) <- acc.(i) +. (per_time *. overlap)
        done);
  Array.init n (fun i ->
      (lo +. ((float_of_int i +. 0.5) *. width), acc.(i) /. width))

let peak_rate t ~n =
  if is_empty t then 0.
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
