(** Sorting float keys without boxing them.

    Without flambda, [Array.sort Float.compare] calls its comparison
    through a closure and boxes both operands on every call.  These
    sorts compare the keys of a [float array] directly, so they allocate
    only their scratch and result arrays.  Keys must not be NaN. *)

val sort : float array -> unit
(** Ascending, in place. *)

val sort_with : float array -> float array -> int -> float array * float array
(** [sort_with keys values n] is the first [n] entries of [keys] and
    [values], in fresh arrays, ordered by key ascending: a stable sort
    of the pairs on their key, so equal keys keep their order. *)

val is_sorted : float array -> bool
(** Whether the keys are already ascending (ties allowed). *)
