(* Dynamic per-link interconnect recording for the simulator event loop.

   The flow model books every transfer onto the links of its route (the
   two fluid fabrics serialize bookings per link within each traffic
   class).  When recording is on, each booking is mirrored here twice:
   once per link touched — (class, op, link id, bytes, busy interval),
   the exact reservation the fabric made — and once per transfer —
   (class, op, src, dst, bytes, hops, queueing wait, envelope).

   Bookings are the bulk of the record, so they are stored as columns:
   per booking three ints and three unboxed floats, in fixed-size chunks
   that are filled and never copied.  Everything else (per-link volumes
   and busy time, class breakdowns, hop histograms, utilization
   timelines) is derived on demand.  The two per-key lookups an analysis
   repeats — one link's busy intervals, one operator's largest wait —
   read indexes built in one pass on the first query after recording.
   Like every Probe, the recorder is pure bookkeeping: nothing here is
   ever read back into a timing computation (the cram suite checks
   simulated output is byte-identical with recording on and off). *)

module N = Elk_noc.Noc

type cls = Probe.cls = Preload | Distribute | Exchange
type booking = Probe.booking
type transfer = Probe.transfer

open Probe

let cls_index = function Preload -> 0 | Distribute -> 1 | Exchange -> 2
let cls_of_index = function 0 -> Preload | 1 -> Distribute | _ -> Exchange

(* One link's busy intervals as parallel start/end arrays: each class in
   chronological order, and the union of the two classes. *)
type busy = {
  pre_start : float array;
  pre_end : float array;
  exch_start : float array;
  exch_end : float array;
  union_start : float array;
  union_end : float array;
}

let idle =
  { pre_start = [||]; pre_end = [||]; exch_start = [||]; exch_end = [||];
    union_start = [||]; union_end = [||] }

(* Bookings per chunk.  Booking [i] sits in chunk [i / chunk] at slot
   [i mod chunk]: ints (op, link id, class) at [3 * slot], floats
   (bytes, start, end) at [3 * slot]. *)
let chunk = 256

type t = {
  noc : N.t;
  mutable n_bookings : int;
  mutable ints : int array array;  (* chunks in emission order *)
  mutable floats : float array array;
  mutable transfers : transfer list;  (* reverse emission order *)
  mutable n_transfers : int;
  mutable busy : busy array option;
      (* by link id; dropped by every new booking *)
  mutable waits : float array option;
      (* by [op * 3 + class]; dropped by every new transfer *)
}

let create noc =
  { noc; n_bookings = 0; ints = [||]; floats = [||]; transfers = []; n_transfers = 0;
    busy = None; waits = None }
let noc t = t.noc
let num_transfers t = t.n_transfers

let record_booking t b =
  let c = t.n_bookings / chunk and k = 3 * (t.n_bookings mod chunk) in
  if k = 0 then begin
    if c = Array.length t.ints then begin
      let grow a fill = Array.append a (Array.make (max 4 c) fill) in
      t.ints <- grow t.ints [||];
      t.floats <- grow t.floats [||]
    end;
    t.ints.(c) <- Array.make (3 * chunk) 0;
    t.floats.(c) <- Array.make (3 * chunk) 0.
  end;
  let ints = t.ints.(c) and floats = t.floats.(c) in
  ints.(k) <- b.b_op;
  ints.(k + 1) <- b.b_link;
  ints.(k + 2) <- cls_index b.b_cls;
  floats.(k) <- b.b_bytes;
  floats.(k + 1) <- b.b_start;
  floats.(k + 2) <- b.b_end;
  t.n_bookings <- t.n_bookings + 1;
  t.busy <- None

let probe t =
  {
    preload = ignore;
    execute = ignore;
    links =
      Some
        {
          booking = record_booking t;
          transfer =
            (fun tr ->
              t.transfers <- tr :: t.transfers;
              t.n_transfers <- t.n_transfers + 1;
              t.waits <- None);
        };
  }

(* ---- derived views ---------------------------------------------------- *)

(* Visit every booking in emission order: [f ints floats k] reads its
   fields at [ints.(k ..)] and [floats.(k ..)]. *)
let iter_bookings t f =
  for i = 0 to t.n_bookings - 1 do
    f t.ints.(i / chunk) t.floats.(i / chunk) (3 * (i mod chunk))
  done

let bookings t =
  Array.init t.n_bookings (fun i ->
      let ints = t.ints.(i / chunk) and floats = t.floats.(i / chunk) in
      let k = 3 * (i mod chunk) in
      { b_cls = cls_of_index ints.(k + 2); b_op = ints.(k); b_link = ints.(k + 1);
        b_bytes = floats.(k); b_start = floats.(k + 1); b_end = floats.(k + 2) })

let transfers t = Array.of_list (List.rev t.transfers)

(* Per-link aggregate, derived on demand. *)
type link_stat = {
  ls_link : N.link;
  ls_id : int;  (* dense link id *)
  ls_bandwidth : float;  (* raw link capacity, B/s *)
  ls_volume : float;  (* total booked bytes *)
  ls_preload : float;  (* booked bytes, preload class *)
  ls_distribute : float;  (* booked bytes, distribute phase *)
  ls_exchange : float;  (* booked bytes, exchange phase *)
  ls_busy : float;  (* summed reservation time across both classes *)
  ls_bookings : int;
}

(* All touched links in canonical order, with volumes and busy time.
   Bookings within one class never overlap on a link (the fabric's
   free-time serialization), so summed reservation time is exact per
   class; across the two classes the link is a shared fluid and the sum
   can exceed the horizon only if the recording drifted from the model
   (Nocprof.check enforces the bound per class). *)
let link_stats t =
  let n = N.num_links t.noc in
  let volume = Array.make n 0. and busy = Array.make n 0. in
  let by_cls = Array.make (3 * n) 0. and count = Array.make n 0 in
  iter_bookings t (fun ints floats k ->
      let id = ints.(k + 1) in
      let c = (3 * id) + ints.(k + 2) in
      volume.(id) <- volume.(id) +. floats.(k);
      by_cls.(c) <- by_cls.(c) +. floats.(k);
      busy.(id) <- busy.(id) +. Float.max 0. (floats.(k + 2) -. floats.(k + 1));
      count.(id) <- count.(id) + 1);
  (* Ascending ids are the canonical order. *)
  let stats = ref [] in
  for id = n - 1 downto 0 do
    if count.(id) > 0 then
      let link = N.link_of_id t.noc id in
      stats :=
        { ls_link = link; ls_id = id; ls_bandwidth = N.link_bandwidth t.noc link;
          ls_volume = volume.(id); ls_preload = by_cls.(3 * id);
          ls_distribute = by_cls.((3 * id) + 1); ls_exchange = by_cls.((3 * id) + 2);
          ls_busy = busy.(id); ls_bookings = count.(id) }
        :: !stats
  done;
  !stats

(* Put one class's intervals, filled in emission order, in start order.
   The fabric books each link in time order, so this is almost always
   the identity; otherwise a stable sort, as a list sort would give. *)
let chronological starts ends =
  if Elk_util.Fsort.is_sorted starts then (starts, ends)
  else Elk_util.Fsort.sort_with starts ends (Array.length starts)

(* The union of the two classes' intervals: merge them by start (preload
   first at equal starts), then fold each interval that starts before
   the current one ends into it.  Written into [us]/[ue] when they are
   not empty; returns the number of union intervals either way. *)
let union_into b us ue =
  let write = Array.length us > 0 in
  let np = Array.length b.pre_start and nx = Array.length b.exch_start in
  let i = ref 0 and j = ref 0 and n = ref 0 in
  let cs = ref 0. and ce = ref 0. in
  while !i < np || !j < nx do
    let pre = !j >= nx || (!i < np && b.pre_start.(!i) <= b.exch_start.(!j)) in
    let s = if pre then b.pre_start.(!i) else b.exch_start.(!j) in
    let e = if pre then b.pre_end.(!i) else b.exch_end.(!j) in
    if pre then incr i else incr j;
    if !n > 0 && s <= !ce then ce := Float.max !ce e
    else begin
      if write && !n > 0 then begin
        us.(!n - 1) <- !cs;
        ue.(!n - 1) <- !ce
      end;
      incr n;
      cs := s;
      ce := e
    end
  done;
  if write && !n > 0 then begin
    us.(!n - 1) <- !cs;
    ue.(!n - 1) <- !ce
  end;
  !n

(* Busy intervals of every link, by link id: one counting pass sizes the
   per-class arrays, a second fills them in emission order. *)
let busy_index t =
  match t.busy with
  | Some idx -> idx
  | None ->
      let n = N.num_links t.noc in
      let pre = Array.make n 0 and exch = Array.make n 0 in
      iter_bookings t (fun ints _ k ->
          let id = ints.(k + 1) in
          if ints.(k + 2) = 0 then pre.(id) <- pre.(id) + 1 else exch.(id) <- exch.(id) + 1);
      let idx =
        Array.init n (fun id ->
            if pre.(id) + exch.(id) = 0 then idle
            else
              let col m = Array.make m 0. in
              { idle with
                pre_start = col pre.(id); pre_end = col pre.(id);
                exch_start = col exch.(id); exch_end = col exch.(id) })
      in
      Array.fill pre 0 n 0;
      Array.fill exch 0 n 0;
      iter_bookings t (fun ints floats k ->
          let id = ints.(k + 1) and b = idx.(ints.(k + 1)) in
          if ints.(k + 2) = 0 then begin
            b.pre_start.(pre.(id)) <- floats.(k + 1);
            b.pre_end.(pre.(id)) <- floats.(k + 2);
            pre.(id) <- pre.(id) + 1
          end
          else begin
            b.exch_start.(exch.(id)) <- floats.(k + 1);
            b.exch_end.(exch.(id)) <- floats.(k + 2);
            exch.(id) <- exch.(id) + 1
          end);
      Array.iteri
        (fun id b ->
          if pre.(id) + exch.(id) > 0 then begin
            let pre_start, pre_end = chronological b.pre_start b.pre_end in
            let exch_start, exch_end = chronological b.exch_start b.exch_end in
            let b = { b with pre_start; pre_end; exch_start; exch_end } in
            let m = union_into b [||] [||] in
            let union_start = Array.make m 0. and union_end = Array.make m 0. in
            ignore (union_into b union_start union_end);
            idx.(id) <- { b with union_start; union_end }
          end)
        idx;
      t.busy <- Some idx;
      idx

let busy t ~id =
  if id < 0 || id >= N.num_links t.noc then idle else (busy_index t).(id)

let busy_intervals t ~link =
  match N.link_id t.noc link with
  | id ->
      let b = (busy_index t).(id) in
      let pairs s e = List.init (Array.length s) (fun i -> (s.(i), e.(i))) in
      (pairs b.pre_start b.pre_end, pairs b.exch_start b.exch_end)
  | exception Invalid_argument _ -> ([], [])

(* Transfer byte sums, newest first as recorded; the accumulator is a
   float array so no step boxes. *)
let class_bytes t ~cls =
  let acc = [| 0. |] in
  List.iter (fun tr -> if tr.t_cls = cls then acc.(0) <- acc.(0) +. tr.t_bytes) t.transfers;
  acc.(0)

let total_transfer_bytes t =
  let acc = [| 0. |] in
  List.iter (fun tr -> acc.(0) <- acc.(0) +. tr.t_bytes) t.transfers;
  acc.(0)

(* Hop-count histogram: [(hops, transfers, bytes)] sorted by hops. *)
let hop_histogram t =
  let longest = List.fold_left (fun m tr -> max m tr.t_hops) 0 t.transfers in
  let count = Array.make (longest + 1) 0 and bytes = Array.make (longest + 1) 0. in
  List.iter
    (fun tr ->
      count.(tr.t_hops) <- count.(tr.t_hops) + 1;
      bytes.(tr.t_hops) <- bytes.(tr.t_hops) +. tr.t_bytes)
    t.transfers;
  let rows = ref [] in
  for h = longest downto 0 do
    if count.(h) > 0 then rows := (h, count.(h), bytes.(h)) :: !rows
  done;
  !rows

(* Max queueing wait per (op, class) — the quantity Critpath caps into
   an event's [port_wait]. *)
let wait_index t =
  match t.waits with
  | Some w -> w
  | None ->
      let ops = List.fold_left (fun m tr -> max m (tr.t_op + 1)) 0 t.transfers in
      let w = Array.make (3 * ops) 0. in
      List.iter
        (fun tr ->
          let k = (3 * tr.t_op) + cls_index tr.t_cls in
          w.(k) <- Float.max w.(k) tr.t_wait)
        t.transfers;
      t.waits <- Some w;
      w

let max_wait t ~op ~cls =
  let w = wait_index t in
  let k = (3 * op) + cls_index cls in
  if op < 0 || k >= Array.length w then 0. else w.(k)
