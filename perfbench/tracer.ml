(* Spans for the traced run.

   The benchmark opens a span around each call it makes into a layer's
   public function ({!with_span}); every span carries its name, start,
   end, parent and the id of the benchmark operation it belongs to.
   While the traced run is on, the program's own [Elk_obs] spans
   (compile phases, allocator horizon searches, simulator runs, ...) are
   folded in after each operation ({!absorb_program_spans}).  Parents
   are assigned by interval containment over both kinds ({!link}): a
   benchmark span opened inside a program call (the verifier hook runs
   inside [Compile.compile]) nests under the program span that contains
   it.  Everything stays in memory until {!write_chrome} at the end of
   the run. *)

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (** id of the innermost enclosing span, -1 for an operation root. *)
  op : int;  (** benchmark operation id. *)
  own : bool;  (** recorded by the benchmark (vs. absorbed from [Elk_obs]). *)
  depth : int;  (** [Elk_obs] nesting depth; 0 for the benchmark's spans. *)
}

let enabled = ref false
let completed : span list ref = ref []
let next_id = ref 0
let current_op = ref 0
let now = Elk_obs.Control.now

let fresh_id () =
  incr next_id;
  !next_id

let with_span name f =
  if not !enabled then f ()
  else begin
    let id = fresh_id () in
    let start = now () in
    Fun.protect
      ~finally:(fun () ->
        completed :=
          { id; name; start; stop = now (); parent = -1; op = !current_op; own = true; depth = 0 }
          :: !completed)
      f
  end

(* Move the spans [Elk_obs] collected since the last call into the
   benchmark's list, tagged with the current operation. *)
let absorb_program_spans () =
  if !enabled then begin
    List.iter
      (fun (s : Elk_obs.Span.t) ->
        completed :=
          {
            id = fresh_id ();
            name = s.Elk_obs.Span.name;
            start = s.Elk_obs.Span.start;
            stop = s.Elk_obs.Span.start +. s.Elk_obs.Span.dur;
            parent = -1;
            op = !current_op;
            own = false;
            depth = s.Elk_obs.Span.depth;
          }
          :: !completed)
      (Elk_obs.Span.spans ());
    Elk_obs.Span.clear ()
  end

(* Give every span the innermost span of its operation that contains it
   as its parent.  Outer spans sort first: earlier start, then later end,
   then the benchmark's own span (on a tie it is the one wrapping the
   program call), then the smaller [Elk_obs] depth. *)
let link spans =
  let sorted =
    List.sort
      (fun a b ->
        compare
          (a.op, a.start, -.a.stop, not a.own, a.depth)
          (b.op, b.start, -.b.stop, not b.own, b.depth))
      spans
  in
  let stack = ref [] in
  List.map
    (fun s ->
      let rec pop () =
        match !stack with
        | top :: rest when top.op <> s.op || top.stop < s.stop || top.start > s.start ->
            stack := rest;
            pop ()
        | _ -> ()
      in
      pop ();
      let s = { s with parent = (match !stack with top :: _ -> top.id | [] -> -1) } in
      stack := s :: !stack;
      s)
    sorted

let spans () = link !completed

(* Self time: a span's duration minus the part its children cover
   (children of one parent never overlap at jobs = 1). *)
let self_times spans =
  let child_sum = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_sum s.parent
          ((s.stop -. s.start)
          +. Option.value (Hashtbl.find_opt child_sum s.parent) ~default:0.))
    spans;
  List.map
    (fun s ->
      let kids = Option.value (Hashtbl.find_opt child_sum s.id) ~default:0. in
      (s, Float.max 0. (s.stop -. s.start -. kids)))
    spans

let write_chrome ~path ~layer_of spans =
  let t0 = List.fold_left (fun a s -> Float.min a s.start) infinity spans in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\
         \"args\":{\"id\":%d,\"parent\":%d,\"op\":%d,\"layer\":%S}}\n"
        (if i = 0 then "" else ",")
        s.name
        ((s.start -. t0) *. 1e6)
        ((s.stop -. s.start) *. 1e6)
        s.id s.parent s.op (layer_of s.name))
    spans;
  output_string oc "]}\n";
  close_out oc
