(* Dynamic per-link interconnect recording for the simulator event loop.

   The flow model books every transfer onto the links of its route (the
   two fluid fabrics serialize bookings per link within each traffic
   class).  When recording is on, each booking is mirrored here twice:
   once per link touched — (class, op, link, bytes, busy interval), the
   exact reservation the fabric made — and once per transfer — (class,
   op, src, dst, bytes, hops, queueing wait, envelope).  Everything else
   (per-link volumes and busy time, class breakdowns, hop histograms,
   utilization timelines) is derived on demand from those records, so
   recording itself is a list cons per booking.  The two per-key lookups
   an analysis repeats — one link's busy intervals, one operator's
   largest wait — read indexes built in one pass on the first query
   after recording.  Like every Probe, the recorder
   is pure bookkeeping: nothing here is ever read back into a timing
   computation (the cram suite checks simulated output is
   byte-identical with recording on and off). *)

module N = Elk_noc.Noc

type cls = Probe.cls = Preload | Distribute | Exchange
type booking = Probe.booking
type transfer = Probe.transfer

open Probe

type intervals = (float * float) list

type t = {
  noc : N.t;
  mutable bookings : booking list;  (* reverse emission order *)
  mutable transfers : transfer list;  (* reverse emission order *)
  mutable n_transfers : int;
  mutable busy : (intervals * intervals) array option;
      (* by link id; dropped by every new booking *)
  mutable waits : float array option;
      (* by [op * 3 + class]; dropped by every new transfer *)
}

let create noc =
  { noc; bookings = []; transfers = []; n_transfers = 0; busy = None; waits = None }
let noc t = t.noc
let num_transfers t = t.n_transfers

let probe t =
  {
    preload = ignore;
    execute = ignore;
    links =
      Some
        {
          booking =
            (fun b ->
              t.bookings <- b :: t.bookings;
              t.busy <- None);
          transfer =
            (fun tr ->
              t.transfers <- tr :: t.transfers;
              t.n_transfers <- t.n_transfers + 1;
              t.waits <- None);
        };
  }

(* ---- derived views ---------------------------------------------------- *)

let cls_index = function Preload -> 0 | Distribute -> 1 | Exchange -> 2

let bookings t = Array.of_list (List.rev t.bookings)
let transfers t = Array.of_list (List.rev t.transfers)

(* Per-link aggregate, derived on demand. *)
type link_stat = {
  ls_link : N.link;
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
  List.iter
    (fun b ->
      let id = N.link_id t.noc b.b_link in
      let k = (3 * id) + cls_index b.b_cls in
      volume.(id) <- volume.(id) +. b.b_bytes;
      by_cls.(k) <- by_cls.(k) +. b.b_bytes;
      busy.(id) <- busy.(id) +. Float.max 0. (b.b_end -. b.b_start);
      count.(id) <- count.(id) + 1)
    (List.rev t.bookings);
  (* Ascending ids are the canonical order. *)
  let stats = ref [] in
  for id = n - 1 downto 0 do
    if count.(id) > 0 then
      let link = N.link_of_id t.noc id in
      stats :=
        { ls_link = link; ls_bandwidth = N.link_bandwidth t.noc link;
          ls_volume = volume.(id); ls_preload = by_cls.(3 * id);
          ls_distribute = by_cls.((3 * id) + 1); ls_exchange = by_cls.((3 * id) + 2);
          ls_busy = busy.(id); ls_bookings = count.(id) }
        :: !stats
  done;
  !stats

(* Busy intervals of every link, chronological, one list per class. *)
let busy_index t =
  match t.busy with
  | Some idx -> idx
  | None ->
      let n = N.num_links t.noc in
      let pre = Array.make n [] and exch = Array.make n [] in
      (* Newest first, so each list ends up in emission order. *)
      List.iter
        (fun b ->
          let id = N.link_id t.noc b.b_link in
          let iv = (b.b_start, b.b_end) in
          match b.b_cls with
          | Preload -> pre.(id) <- iv :: pre.(id)
          | Distribute | Exchange -> exch.(id) <- iv :: exch.(id))
        t.bookings;
      let by_start l = List.sort (fun (a, _) (b, _) -> Float.compare a b) l in
      let idx = Array.init n (fun id -> (by_start pre.(id), by_start exch.(id))) in
      t.busy <- Some idx;
      idx

let busy_intervals t ~link =
  match N.link_id t.noc link with
  | id -> (busy_index t).(id)
  | exception Invalid_argument _ -> ([], [])

let class_bytes t ~cls =
  List.fold_left
    (fun a tr -> if tr.t_cls = cls then a +. tr.t_bytes else a)
    0. t.transfers

let total_transfer_bytes t =
  List.fold_left (fun a tr -> a +. tr.t_bytes) 0. t.transfers

(* Hop-count histogram: [(hops, transfers, bytes)] sorted by hops. *)
let hop_histogram t =
  let tbl : (int, (int * float) ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun tr ->
      match Hashtbl.find_opt tbl tr.t_hops with
      | Some r ->
          let n, b = !r in
          r := (n + 1, b +. tr.t_bytes)
      | None -> Hashtbl.add tbl tr.t_hops (ref (1, tr.t_bytes)))
    t.transfers;
  Hashtbl.fold (fun h r acc -> (h, fst !r, snd !r) :: acc) tbl []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

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
