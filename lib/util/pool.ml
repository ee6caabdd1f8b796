let max_jobs = 64
let clamp n = if n < 1 then 1 else if n > max_jobs then max_jobs else n

let default_jobs () =
  match Option.bind (Sys.getenv_opt "ELK_JOBS") (fun s -> int_of_string_opt (String.trim s)) with
  | Some n -> clamp n
  | None -> clamp (Domain.recommended_domain_count ())

let requested_jobs : int option ref = ref None
let set_jobs n = requested_jobs := Some (clamp n)
let current_jobs () = match !requested_jobs with Some n -> n | None -> default_jobs ()

(* Set while a domain computes elements of a map: a map issued from there
   runs inline instead of spawning domains of its own. *)
let in_map : bool ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref false)

let map f xs =
  let inside = Domain.DLS.get in_map in
  let domains = min (current_jobs ()) (List.length xs) in
  if domains <= 1 || !inside then List.map f xs
  else begin
    let arr = Array.of_list xs in
    let n = Array.length arr in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let rec work () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        results.(i) <-
          Some (try Ok (f arr.(i)) with e -> Error (e, Printexc.get_raw_backtrace ()));
        work ()
      end
    in
    let spawned =
      List.init (domains - 1) (fun _ ->
          Domain.spawn (fun () ->
              Domain.DLS.get in_map := true;
              work ()))
    in
    inside := true;
    work ();
    inside := false;
    List.iter Domain.join spawned;
    (* Deterministic propagation: the lowest-index failure wins, whichever
       domain finished first. *)
    Array.iter
      (function Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt | _ -> ())
      results;
    List.map (function Some (Ok v) -> v | _ -> assert false) (Array.to_list results)
  end
