(** Fair-share job scheduler: per-client FIFO queues drained round-robin
    by the worker domains, so a client that floods the daemon delays only
    its own later jobs — other clients' queues are interleaved at every
    dispatch.  All state is guarded by one mutex; worker domains block in
    {!next}, waiting connection threads in {!await}.  Safe across
    domains and threads. *)

type problem =
  [ `Anf of Anf.Poly.t list
  | `Cnf of Cnf.Formula.t * (int list * bool) list ]

type state = Queued | Running | Done | Failed | Cancelled

val state_name : state -> string

type job = {
  id : int;
  client : string;
  limits : Harness.Budget.limits;  (** the ceilings the request asked for *)
  mutable problem : problem option;
      (** the parsed instance; [None] once the job is terminal *)
  cache_key : string option;
      (** key under which an eligible result should be stored *)
  mutable state : state;
  mutable budget : Harness.Budget.t option;
      (** set by the worker just before the run; the cancel path trips it *)
  mutable cancel_requested : bool;
      (** covers the window between dispatch and budget creation *)
  mutable summary : Protocol.summary option;  (** when [Done] *)
  mutable error : string option;  (** when [Failed] *)
}

type t

val create : unit -> t

(** Terminal job records kept for {!find}: past this many, each terminal
    transition forgets the oldest one, and {!find}/{!cancel} on its id
    answer as for an id never issued.  A live (queued or running) job is
    never forgotten. *)
val retained_terminal : int

(** Enqueue; wakes one worker. *)
val submit :
  t -> client:string -> limits:Harness.Budget.limits -> ?cache_key:string ->
  problem -> job

(** Record an already-finished job (cache hit) so {!find}/status work. *)
val add_completed : t -> client:string -> Protocol.summary -> job

val find : t -> int -> job option

(** Blocks for the next runnable job (fair round-robin across clients);
    [None] once {!stop} has been called.  The job is returned in state
    [Running] with its client's running count already bumped. *)
val next : t -> job option

(** Terminal transition; decrements the client's running count and wakes
    every {!await}er. *)
val finish :
  t -> job -> [ `Done of Protocol.summary | `Failed of string ] -> unit

(** [`Cancelled]: it was still queued and is now terminally cancelled.
    [`Cancelling]: it is running; its budget has been cancelled and the
    job will finish as a degraded result. *)
val cancel : t -> int -> [ `Cancelled | `Cancelling | `Finished | `Unknown ]

(** Block until the job reaches a terminal state. *)
val await : t -> job -> unit

(** Running jobs of [client], this job's own dispatch included — the
    fair-share divisor for budget slicing. *)
val running_of : t -> string -> int

val queue_depth : t -> int
val running_count : t -> int
val stats : t -> (string * float) list

(** Cancel everything still queued and make every {!next} return [None];
    running jobs finish normally. *)
val stop : t -> unit
