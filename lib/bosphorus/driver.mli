(** The Bosphorus workflow (Fig. 1): an XL – ElimLin – SAT-solver
    fact-learning loop over a master ANF, with ANF propagation applied to
    the input and after every batch of learnt facts, run to the fixed point
    at which no new facts are produced.

    The master system is the only mutable copy; each technique works on a
    snapshot and its learnt facts are added to the master if not already
    present (Section III-A).  If the equation 1 = 0 appears the run stops
    with [`Unsat]; if the SAT solver finds a satisfying assignment the
    solution is recorded (and, under [Config.stop_on_solution], the loop
    exits). *)

type status =
  | Solved_sat of (int * bool) list
      (** assignment to the original ANF variables found by the SAT step *)
  | Solved_unsat  (** 1 = 0 derived (by ANF techniques or the SAT solver) *)
  | Processed  (** fixed point reached without deciding the instance *)
  | Degraded
      (** a resource budget ({!Config.t.timeout_s},
          [max_memory_monomials], [max_total_conflicts], or an injected
          fault) tripped before the fixed point: the outcome still
          carries every fact learnt up to the trip — all sound — and
          [budget_report] says what tripped, in which layer, at which
          iteration *)

(** Per-SAT-round encoding and search counters.  Under
    {!Config.t.incremental_sat}, [round_encoded]/[round_reused] count the
    polynomials newly encoded vs skipped as already encoded — an
    iteration that changed nothing shows [round_encoded = 0] — and the
    propagation/conflict counters are deltas for that round. *)
type round_info = {
  round_encoded : int;
  round_reused : int;
  round_delta_clauses : int;  (** clauses emitted (and fed to the solver) this round *)
  round_propagations : int;
  round_conflicts : int;
}

type outcome = {
  status : status;
  anf : Anf.Poly.t list;
      (** processed ANF: normalised master system plus the value and
          equivalence facts *)
  cnf : Cnf.Formula.t;  (** CNF of the processed ANF (learnt facts included) *)
  facts : Facts.t;
  iterations : int;  (** loop iterations executed *)
  sat_calls : int;
  sat_rounds : round_info list;  (** one entry per SAT stage, in order *)
  trail : Audit_trail.t option;
      (** evidence for post-hoc fact certification, recorded when
          {!Config.t.audit_trail} is set (see {!Audit_trail}) *)
  budget_report : Harness.Budget.report option;
      (** resource accounting for the run, present whenever a budget
          ceiling was configured or a trip occurred (fault injection can
          trip an otherwise unlimited run); [None] for an unbounded,
          untripped run *)
}

(** [run ?config ?budget polys] preprocesses the ANF system [polys].
    [budget], when given, replaces the budget the driver would build from
    [config]'s ceilings — the caller owns ceilings, trips and external
    cancellation ({!Harness.Budget.cancel_now}); [config]'s ceiling fields
    are ignored.  Each run builds its own conversion state and SAT solver
    and drops them on return: nothing learnt carries over to a later
    run. *)
val run :
  ?config:Config.t ->
  ?budget:Harness.Budget.t ->
  Anf.Poly.t list ->
  outcome

(** [run_cnf ?config ?xors f] uses Bosphorus as a CNF preprocessor
    (Section III-D): convert to ANF with clause cutting, learn, and return
    the processed result.  [xors] are native XOR constraints (e.g. from an
    XOR-extended DIMACS file, {!Cnf.Dimacs.parse_file_extended}); they join
    the ANF directly as linear polynomials — the encoding they were
    invented to avoid.  Per the paper, callers should solve the original
    CNF conjoined with the fact clauses; {!augmented_cnf} builds exactly
    that. *)
val run_cnf :
  ?config:Config.t ->
  ?budget:Harness.Budget.t ->
  ?xors:(int list * bool) list ->
  Cnf.Formula.t ->
  outcome

(** [augmented_cnf f outcome] is the original formula [f] strengthened with
    the learnt facts of [outcome] (facts over original CNF variables only),
    the paper's recommended output for the CNF use-case. *)
val augmented_cnf : Cnf.Formula.t -> outcome -> Cnf.Formula.t

(** Per-technique stage toggles used by the ablation benchmarks.
    [use_groebner] enables the Section-V extension (degree-bounded
    Buchberger, {!Groebner}); it is off in {!all_stages}, which matches the
    paper's tool. *)
type stages = {
  use_xl : bool;
  use_elimlin : bool;
  use_sat : bool;
  use_groebner : bool;
}

val all_stages : stages

(** [run_with_stages ?config ~stages polys] is {!run} with techniques
    disabled per [stages]. *)
val run_with_stages :
  ?config:Config.t ->
  ?budget:Harness.Budget.t ->
  stages:stages ->
  Anf.Poly.t list ->
  outcome
