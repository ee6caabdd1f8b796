(* Top-down merge sorts specialised to float keys: every comparison
   reads two elements of a [float array] and compares them as floats, so
   nothing is boxed.  [sort] merges the keys themselves; [sort_with]
   merges indices, taking from the left run on ties, and gathers the
   pairs through them. *)

let is_sorted (a : float array) =
  let i = ref 1 in
  while !i < Array.length a && a.(!i - 1) <= a.(!i) do
    incr i
  done;
  !i >= Array.length a

(* Sort [a.(lo) .. a.(hi - 1)] using [tmp] (same length) as scratch. *)
let rec sort_range (a : float array) tmp lo hi =
  if hi - lo > 1 then begin
    let mid = (lo + hi) / 2 in
    sort_range a tmp lo mid;
    sort_range a tmp mid hi;
    if a.(mid - 1) > a.(mid) then begin
      Array.blit a lo tmp lo (hi - lo);
      let i = ref lo and j = ref mid in
      for k = lo to hi - 1 do
        if !j >= hi || (!i < mid && tmp.(!i) <= tmp.(!j)) then begin
          a.(k) <- tmp.(!i);
          incr i
        end
        else begin
          a.(k) <- tmp.(!j);
          incr j
        end
      done
    end
  end

let sort a =
  if not (is_sorted a) then sort_range a (Array.make (Array.length a) 0.) 0 (Array.length a)

let rec order_range (keys : float array) ix tmp lo hi =
  if hi - lo > 1 then begin
    let mid = (lo + hi) / 2 in
    order_range keys ix tmp lo mid;
    order_range keys ix tmp mid hi;
    if keys.(ix.(mid - 1)) > keys.(ix.(mid)) then begin
      Array.blit ix lo tmp lo (hi - lo);
      let i = ref lo and j = ref mid in
      for k = lo to hi - 1 do
        if !j >= hi || (!i < mid && keys.(tmp.(!i)) <= keys.(tmp.(!j))) then begin
          ix.(k) <- tmp.(!i);
          incr i
        end
        else begin
          ix.(k) <- tmp.(!j);
          incr j
        end
      done
    end
  end

let sort_with keys values n =
  let ix = Array.init n Fun.id in
  order_range keys ix (Array.make n 0) 0 n;
  let keys' = Array.make n 0. and values' = Array.make n 0. in
  for k = 0 to n - 1 do
    keys'.(k) <- keys.(ix.(k));
    values'.(k) <- values.(ix.(k))
  done;
  (keys', values')
