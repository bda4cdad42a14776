(** Wall-clock and CPU measurement helpers. *)

(** [time f] runs [f ()] returning its result and elapsed seconds. *)
val time : (unit -> 'a) -> 'a * float

(** Cumulative user+system CPU seconds of the whole process (all
    domains).  CPU exceeding wall clock is direct evidence of parallel
    execution. *)
val process_cpu : unit -> float

(** [time_cpu f] is [(result, wall_seconds, cpu_seconds)] for one call. *)
val time_cpu : (unit -> 'a) -> 'a * float * float
