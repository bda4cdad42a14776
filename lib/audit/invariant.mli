(** Registry of cross-layer invariant checks.

    Checks run over a {!context} snapshot of pipeline artifacts and return
    diagnostics (codes are prefixed ["check-name/"]).  Three default
    checks register on load:

    - ["rref-validity"]: the elimination ({!Gf2.Matrix.rref}) produces a
      structurally valid RREF of the system's linear subsystem;
    - ["solver-watch-consistency"]: a solver loaded with the CNF passes
      {!Sat.Solver.invariant_violations} (watch lists, trail, XOR rows);
    - ["roundtrip-canonical"]: the ANF -> CNF -> ANF round trip preserves
      canonical forms — the emitted CNF lints clean, monomial auxiliaries
      sit beyond the ANF variable range and stand for degree >= 2
      monomials, and the recovered ANF lints clean.

    These post-hoc checks are intentionally cheap; the same environment
    variable [BOSPHORUS_AUDIT] (see {!enabled}) additionally switches on
    the inline self-checks inside [lib/gf2] and [lib/sat] themselves. *)

type context = { anf : Anf.Poly.t list; cnf : Cnf.Formula.t }

(** [register ~name run] appends a check to the registry. *)
val register : name:string -> (context -> Diagnostic.t list) -> unit

(** Registered check names, in registration order. *)
val names : unit -> string list

(** Whether the [BOSPHORUS_AUDIT] environment variable opts into the
    inline self-checks ("1", "true" or "yes"). *)
val enabled : unit -> bool

(** Run every registered check on the context. *)
val run_all : context -> Diagnostic.t list

(** [check_outcome o] is {!run_all} over the outcome's processed ANF and
    CNF. *)
val check_outcome : Bosphorus.Driver.outcome -> Diagnostic.t list
