type t = {
  name : string;
  start : float;
  dur : float;
  depth : int;
  seq : int;
  domain : int;
  attrs : (string * string) list;
}

let lock = Mutex.create ()
let completed : t list ref = ref [] (* reverse completion order *)
let n_completed = ref 0

(* Nesting depth is a per-domain notion: spans opened by pool workers
   during the parallel order search nest within their own domain's stack,
   not within whatever the main domain happens to be timing. *)
let depth_key : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

let clear () =
  Mutex.lock lock;
  completed := [];
  n_completed := 0;
  (* Only the calling domain's depth can be reset; other domains are
     either idle (depth already 0 — [with_span] restores it on exit) or
     mid-span, in which case resetting would corrupt their nesting. *)
  Domain.DLS.get depth_key := 0;
  Mutex.unlock lock

let with_span ?(attrs = []) name f =
  if not (Control.is_enabled ()) then f ()
  else begin
    let depth = Domain.DLS.get depth_key in
    let d = !depth in
    incr depth;
    let domain = (Domain.self () :> int) in
    let t0 = Control.now () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Control.now () in
        decr depth;
        Mutex.lock lock;
        incr n_completed;
        completed :=
          { name; start = t0; dur = t1 -. t0; depth = d; seq = !n_completed; domain; attrs }
          :: !completed;
        Mutex.unlock lock)
      f
  end

let spans () =
  Mutex.lock lock;
  let s = List.rev !completed in
  Mutex.unlock lock;
  s

let count () = !n_completed

let totals () =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      (* Tie-break equal start timestamps (clock granularity) by depth:
         at the same tick the enclosing span is the one that started
         first, so "ordered by first start" stays deterministic. *)
      match Hashtbl.find_opt tbl s.name with
      | None -> Hashtbl.add tbl s.name ((s.start, s.depth), 1, s.dur)
      | Some (k, c, tot) ->
          Hashtbl.replace tbl s.name (min k (s.start, s.depth), c + 1, tot +. s.dur))
    (spans ());
  Hashtbl.fold (fun name (k, c, tot) acc -> (k, name, c, tot) :: acc) tbl []
  |> List.sort compare
  |> List.map (fun (_, name, c, tot) -> (name, c, tot))

let wall name =
  List.filter_map
    (fun s -> if s.name = name then Some (s.start, s.start +. s.dur) else None)
    (spans ())
  |> Elk_util.Series.union_measure

let chrome_events ?(pid = 1) ?(tid = 3) () =
  match spans () with
  | [] -> []
  | ss ->
      let base = List.fold_left (fun a s -> Float.min a s.start) Float.infinity ss in
      (* One trace thread per domain that recorded spans.  Tracks are
         numbered from [tid] by each domain's earliest recorded span
         (start, then global seq) — a content-derived key — rather than
         by raw [Domain.self] id, which depends on how many pool domains
         were spawned before the trace (job count, earlier fan-outs).
         The main domain opens the root span first, so it keeps the
         historical "compiler" track. *)
      let earliest = Hashtbl.create 8 in
      List.iter
        (fun s ->
          let k = (s.start, s.seq) in
          match Hashtbl.find_opt earliest s.domain with
          | Some k' when k' <= k -> ()
          | _ -> Hashtbl.replace earliest s.domain k)
        ss;
      let doms =
        Hashtbl.fold (fun d k acc -> (k, d) :: acc) earliest []
        |> List.sort compare
        |> List.map snd
      in
      let tid_of d =
        let rec index i = function
          | [] -> 0
          | x :: rest -> if x = d then i else index (i + 1) rest
        in
        tid + index 0 doms
      in
      List.mapi
        (fun i _ ->
          Chrome.thread_name ~pid ~tid:(tid + i)
            (if i = 0 then "compiler" else Printf.sprintf "compiler-w%d" i))
        doms
      @ List.map
          (fun s ->
            Chrome.complete_event ~pid ~tid:(tid_of s.domain) ~name:s.name ~cat:"elk-obs"
              ~start:(s.start -. base) ~dur:s.dur
              ~args:(List.map (fun (k, v) -> (k, Jsonx.quote v)) s.attrs)
              ())
          ss
