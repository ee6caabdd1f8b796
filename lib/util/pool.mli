(** Per-call OCaml 5 domain fan-out for independent whole-design
    evaluations ({!Elk_dse.Dse.evaluate_all}).

    [map f xs] spawns [min jobs (length xs) - 1] domains; they and the
    caller take elements off a shared counter, and every domain is
    joined before [map] returns.  Nothing outlives the call.

    - {b order-preserving}: results come back positionally, exactly as
      [List.map] would return them;
    - {b exception-propagating}: if callbacks raise, the exception of the
      {e lowest-indexed} failing element is re-raised in the caller (with
      its backtrace) after every element has finished;
    - {b nested-map safe}: a map issued from inside a map's callback runs
      sequentially inline;
    - {b jobs = 1 fallback}: no domains — plain [List.map].

    The job count is set by {!set_jobs} ([elk_dse_cli --jobs]) or the
    [ELK_JOBS] environment variable, defaulting to
    [Domain.recommended_domain_count ()]; all counts are clamped to
    [1..max_jobs]. *)

val max_jobs : int
(** Upper clamp on job counts (64). *)

val default_jobs : unit -> int
(** [ELK_JOBS] when set to a valid integer, otherwise
    [Domain.recommended_domain_count ()]; clamped. *)

val set_jobs : int -> unit
(** Set (clamped) the job count later maps use. *)

val current_jobs : unit -> int
(** The job count maps use: the last {!set_jobs}, else {!default_jobs}. *)

val map : ('a -> 'b) -> 'a list -> 'b list
(** Parallel [List.map] over {!current_jobs} domains, with the guarantees
    documented above. *)
