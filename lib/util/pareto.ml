type 'a point = { x : float; y : float; payload : 'a }

let frontier pts =
  (* Stable-sort by (x, y) — [Float.compare] orders NaN first and ±0 as
     equal, as polymorphic compare does, without building tuples — then a
     single left-to-right scan keeps a point iff its y strictly improves
     on the best y seen so far. *)
  let sorted = Array.of_list pts in
  Array.stable_sort
    (fun a b ->
      let c = Float.compare a.x b.x in
      if c <> 0 then c else Float.compare a.y b.y)
    sorted;
  let best = ref infinity and kept = ref [] in
  for i = 0 to Array.length sorted - 1 do
    let p = sorted.(i) in
    if p.y < !best then begin
      best := p.y;
      kept := p :: !kept
    end
  done;
  List.rev !kept

let is_frontier pts =
  let rec go = function
    | a :: (b :: _ as rest) -> a.x < b.x && a.y > b.y && go rest
    | [ _ ] | [] -> true
  in
  go pts

let best_y_under_x pts budget =
  List.fold_left
    (fun best p ->
      if p.x > budget then best
      else
        match best with
        | Some b when b.y <= p.y -> best
        | _ -> Some p)
    None pts

let min_x = function
  | [] -> None
  | p :: rest -> Some (List.fold_left (fun a b -> if b.x < a.x then b else a) p rest)

let min_y = function
  | [] -> None
  | p :: rest -> Some (List.fold_left (fun a b -> if b.y < a.y then b else a) p rest)
