(** Process-global metrics registry: counters, gauges and histograms.

    Complements {!Trace}: spans answer {e when and for how long}, metrics
    answer {e how much} — facts learnt per technique, propagations per
    round, substitutions applied, monomial counts.  Handles are cheap
    records around atomics, so the same counter can be bumped from every
    domain without contention beyond the cache line; registration
    (name lookup) takes a mutex and is meant to happen once, at module
    init or per run, never per event.

    Like tracing, recording is off by default and every update is a single
    branch when disabled.  Values accumulate for the whole process; {!reset}
    zeroes them (tests, per-experiment bench sections).

    Exports: {!to_json} (the [--metrics FILE] document) and {!to_extras}
    (flat numeric fields merged into the bench {!Harness.Json_out}
    records). *)

type counter
type gauge
type histogram

val set_enabled : bool -> unit
val enabled : unit -> bool

(** [counter name] registers (or finds) the counter [name].  Raises
    [Invalid_argument] if [name] is already registered as another kind. *)
val counter : string -> counter

(** [incr c] / [incr ~by:n c] adds to the counter (atomically; a no-op
    when disabled). *)
val incr : ?by:int -> counter -> unit

val counter_value : counter -> int

val gauge : string -> gauge

(** [set_gauge g v] records the current level; the peak is retained. *)
val set_gauge : gauge -> int -> unit

val gauge_value : gauge -> int
val gauge_peak : gauge -> int

val histogram : string -> histogram

(** [observe h v] folds [v] into the histogram's count/sum/min/max. *)
val observe : histogram -> float -> unit

val histogram_count : histogram -> int

(** {2 Registry-wide operations} *)

(** Zero every registered metric (registrations are kept). *)
val reset : unit -> unit

(** The metrics document:
    [{"counters": {...}, "gauges": {...}, "histograms": {...}}], keys
    sorted, gauges as [{"value": v, "peak": p}], histograms as
    [{"count": n, "sum": s, "min": m, "max": m, "mean": a}] (min/max/mean
    omitted while empty). *)
val to_json : unit -> string

(** Atomically write {!to_json} to a file (temp file + rename). *)
val write : string -> unit

(** Flat numeric view, sorted by key: counters and gauges by name (plus
    [name ^ ".peak"] for gauges), histograms as [name ^ ".count"] /
    [".sum"] / [".min"] / [".max"].  Suitable for
    {!Harness.Json_out} extras. *)
val to_extras : unit -> (string * float) list
