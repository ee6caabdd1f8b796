type cls = Preload | Distribute | Exchange

type preload = {
  p_op : int;
  p_exec_ready : float;
  p_pre_ready : float;
  p_gate : float;
  p_reads_hbm : bool;
  p_hbm_done : float;
  p_finish : float;
  p_port_wait : float;
  p_bytes : float;
}

type execute = {
  e_op : int;
  e_prev_ready : float;
  e_pre_end : float;
  e_start : float;
  e_dist_end : float;
  e_compute_end : float;
  e_end : float;
  e_dist_wait : float;
  e_ex_wait : float;
  e_bytes : float;
  e_cores : int;
}

type booking = {
  b_cls : cls;
  b_op : int;
  b_link : int;
  b_bytes : float;
  b_start : float;
  b_end : float;
}

type transfer = {
  t_cls : cls;
  t_op : int;
  t_src : Elk_noc.Noc.node;
  t_dst : Elk_noc.Noc.node;
  t_bytes : float;
  t_hops : int;
  t_wait : float;
  t_start : float;
  t_end : float;
}

type t = {
  preload : preload -> unit;
  execute : execute -> unit;
  links : links option;
}

and links = { booking : booking -> unit; transfer : transfer -> unit }

let ops ~preload ~execute = { preload; execute; links = None }

(* Direct recursion: a [List.iter] closure would allocate per event. *)
let rec emit_preload ps x = match ps with [] -> () | p :: ps -> p.preload x; emit_preload ps x
let rec emit_execute ps x = match ps with [] -> () | p :: ps -> p.execute x; emit_execute ps x
let rec emit_booking ls x = match ls with [] -> () | l :: ls -> l.booking x; emit_booking ls x
let rec emit_transfer ls x = match ls with [] -> () | l :: ls -> l.transfer x; emit_transfer ls x
