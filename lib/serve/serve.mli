(** Multi-token serving: autoregressive decoding as a system-level loop.

    The paper evaluates single decode steps; a serving system generates
    many tokens, and the KV cache — hence every attention operator's shape
    and HBM volume — grows each step.  This module drives that loop: it
    compiles a plan for the current context length, simulates decode steps
    with it, and recompiles when the context has grown enough that the
    plan's shapes are stale (amortizing Elk's compile time across steps,
    exactly how a deployment would run it).

    The result quantifies end-to-end serving: tokens/second over a whole
    generation, the latency growth as the KV cache fills, and how many
    recompilations the run needed. *)

type step = {
  token : int;  (** 0-based generated-token index. *)
  ctx : int;  (** KV length the step ran with. *)
  latency : float;  (** simulated step latency incl. all-reduce. *)
  recompiled : bool;  (** a fresh plan was compiled for this step. *)
}

type run = {
  steps : step list;
  prefill_latency : float;
      (** simulated prefill-phase latency (0 when [prefill] was false). *)
  total_time : float;  (** sum of decode-step latencies. *)
  compile_time : float;  (** total wall-clock spent compiling. *)
  tokens_per_second : float;  (** steps / total_time (excl. compile). *)
  recompilations : int;
  highwater : float;
      (** peak static per-core SRAM demand (bytes) across every plan the
          run compiled, prefill included — the {!Elk.Residency} ledger's
          high water, read off each schedule at compile time. *)
  busiest_link : string;
      (** name of the busiest interconnect link (by reservation time)
          across every plan the run simulated, when the run was made
          with [noc]; [""] otherwise. *)
  link_busy : float;
      (** that link's reservation seconds; [0.] without [noc]. *)
}

val serve :
  ?design:Elk_baselines.Baselines.design ->
  ?recompile_every:int ->
  ?prefill:bool ->
  ?elk_options:Elk.Compile.options ->
  ?noc:bool ->
  Elk_dse.Dse.env ->
  Elk_model.Zoo.config ->
  batch:int ->
  prompt_ctx:int ->
  tokens:int ->
  run
(** Generate [tokens] tokens for a [batch] of requests whose prompt
    occupies [prompt_ctx] KV entries.  A plan is compiled for context
    lengths rounded up to the next [recompile_every] boundary (default
    64), so shapes are always sufficient and plans are reused across
    steps.  With [prefill] (default false) the prompt is first processed
    through a prefill-phase plan, giving a time-to-first-token.  [design]
    defaults to [Elk_full].  [noc] (default false) turns on
    per-link interconnect recording in each plan's simulation and fills
    the [busiest_link]/[link_busy] fields; recording is pure
    bookkeeping, so latencies are identical either way.  Raises
    [Invalid_argument] for nonpositive [tokens]/[batch]/[prompt_ctx]. *)

val time_to_first_token : run -> float
(** [prefill_latency] plus the first decode step's latency. *)

val mean_latency : run -> float
val last_latency : run -> float

val tokens_per_second : run -> float
(** Throughput recomputed from the recorded steps: steps / total decode
    time, and 0 for degenerate runs (no steps, or zero total time) —
    never a division by zero, unlike reading the raw field off a
    hand-built [run]. *)

val pp_run : Format.formatter -> run -> unit
