(** Dedicated domains for long-running tasks.

    The repository's one parallel mechanism inside a solve: the SAT
    stage's portfolio seats ({!Sat.Portfolio}) each get a domain of their
    own through {!run_pinned}.  Every other layer runs sequentially on the
    calling domain.  (The solve daemon, [Service.Daemon], spawns its own
    worker domains; each of those runs whole solves.)

    The caller participates: it runs the first task itself, so [n] tasks
    occupy [n - 1] spawned domains.  Spawned domains come from one
    process-global worker set, grown so that every concurrently pinned
    task has a domain; idle workers never delay process exit. *)

(** Cancellation tokens: a single atomic flag shared between the party
    that decides to abort (e.g. a portfolio seat that finished first) and
    the tasks that should stop.  Setting the token never interrupts a
    running task pre-emptively — tasks are expected to poll cooperatively —
    but it does prevent not-yet-started tasks from running at all. *)
module Cancel : sig
  type t

  val create : unit -> t

  (** [set t] requests cancellation; idempotent, safe from any domain. *)
  val set : t -> unit

  val is_set : t -> bool
end

(** The error of a task slot whose cancellation token was set before the
    task started. *)
exception Cancelled

(** [run_pinned ?cancel thunks] runs long-lived tasks on {e dedicated}
    domains: the calling domain runs the first thunk, every other thunk
    gets a domain of its own, so racing tasks (whose protocol is "first
    finisher cancels the rest") can never queue behind one another, and
    the joining caller never runs another caller's task.  Results come
    back in submission order, every future joined, [Error] for failed or
    token-skipped slots (in-flight tasks must poll [cancel] themselves). *)
val run_pinned : ?cancel:Cancel.t -> (unit -> 'a) list -> ('a, exn) result list
