(** Result cache keyed on canonical instance digests.

    The daemon keys each submission on a digest of the {e canonical}
    instance text (for ANF, parse → re-render, so spelling variants of
    the same system share a key), the input format and the effective
    driver config.  Only results that are {b sound to replay} are stored:
    runs free of any conflict ceiling (which clips per-round SAT budgets
    and so changes even untripped results) that neither tripped nor
    degraded — such a run's summary is a pure function of (config,
    instance).  A cache hit is therefore observationally identical to a
    cache miss, which the differential suite checks end to end.

    Eviction is LRU over a fixed capacity.  All operations are
    thread-safe (the daemon's connection threads and worker domains
    share one cache). *)

type t

val create : ?capacity:int -> unit -> t

(** Digest of (format, canonical text, config). *)
val key :
  config:Bosphorus.Config.t -> format:Protocol.format -> canonical:string -> string

(** [find t k] bumps recency and the hit/miss counters. *)
val find : t -> string -> Protocol.summary option

val store : t -> string -> Protocol.summary -> unit
val hits : t -> int
val misses : t -> int
val size : t -> int
