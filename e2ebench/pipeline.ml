(* One instance from parsed input to a checked verdict, through the
   public entry points in the shipped configuration: [Driver.run] (ANF)
   or [Driver.run_cnf] + [Driver.augmented_cnf] (CNF), then
   [Sat.Profiles.solve] on the processed CNF when the loop did not decide
   the instance.  Benchmark-side spans wrap each call so the traced run
   can split the time by layer. *)

open Instances

let config = Bosphorus.Config.default

(* the final solve's conflict budget; a budget, not a clock, so the
   verdict does not depend on the host's speed *)
let final_budget = 100_000
let final_profile = Sat.Profiles.Cms5

type verdict = Solved | Unsolved | Failed of string

(* One request: an instance solved once (or, on daemon-mixed, one send). *)
type sample = {
  inst : int;  (** index into the workload's instances *)
  time_s : float;  (** time to the checked verdict; client latency on daemon-mixed *)
  reply_wall : float;  (** daemon-mixed: the solve time the reply reports *)
  hit : bool;  (** daemon-mixed: answered from the cache *)
  verdict : verdict;
}

(* GC words allocated inside driver calls ([Harness.Perf] around each). *)
type gc = { mutable minor : float; mutable major : float; mutable collections : int }

let gc = { minor = 0.0; major = 0.0; collections = 0 }

(* Search counters bumped by final solves, so the traced run can report
   the in-loop SAT stage and the final solve apart. *)
let sat_counters =
  [ "sat.conflicts"; "sat.propagations"; "sat.parity_propagations"; "sat.parity_conflicts"; "sat.gauss_rounds" ]

let final_counts = Hashtbl.create 8
let counter name = Obs.Metrics.counter_value (Obs.Metrics.counter name)

let reset_ledgers () =
  gc.minor <- 0.0;
  gc.major <- 0.0;
  gc.collections <- 0;
  Hashtbl.reset final_counts

let span name f = Obs.Trace.with_span ~name f

let driver_call name f =
  let c0 = (Gc.quick_stat ()).Gc.major_collections in
  let outcome, perf = Harness.Perf.measure (fun () -> span name f) in
  gc.minor <- gc.minor +. perf.Harness.Perf.minor_words;
  gc.major <- gc.major +. perf.Harness.Perf.major_words;
  gc.collections <- gc.collections + (Gc.quick_stat ()).Gc.major_collections - c0;
  outcome

let final_solve f =
  let before = List.map counter sat_counters in
  let out = span "bench.final_solve" (fun () -> Sat.Profiles.solve ~conflict_budget:final_budget final_profile f) in
  List.iter2
    (fun name b ->
      let prev = Option.value ~default:0 (Hashtbl.find_opt final_counts name) in
      Hashtbl.replace final_counts name (prev + counter name - b))
    sat_counters before;
  out.Sat.Profiles.result

(* --- the oracle: independent of the solver ---------------------------- *)

let lookup_list sol =
  let t = Hashtbl.create 64 in
  List.iter (fun (v, b) -> Hashtbl.replace t v b) sol;
  fun v -> Option.value ~default:false (Hashtbl.find_opt t v)

let lookup_array m v = v < Array.length m && m.(v)

let clauses_hold f value =
  List.for_all
    (fun c -> List.exists (fun l -> value (Cnf.Lit.var l) <> Cnf.Lit.negated l) (Cnf.Clause.to_list c))
    (Cnf.Formula.clauses f)

let holds inst value =
  match inst.problem with
  | Anf polys -> Anf.Eval.satisfies value polys
  | Cnf f -> clauses_hold f value

let check_sat inst value =
  if not (holds inst value) then Failed "model violates the input"
  else if inst.expected = Expect_unsat then Failed "model for an instance unsatisfiable by construction"
  else Solved

let check_unsat inst =
  if inst.expected = Expect_unsat then Solved else Failed "UNSAT on an instance satisfiable by construction"

(* --- the pipeline ----------------------------------------------------- *)

type answer = Sat_list of (int * bool) list | Sat_array of bool array | Unsat | Undecided

let final_answer = function
  | Sat.Types.Sat m -> Sat_array m
  | Sat.Types.Unsat -> Unsat
  | Sat.Types.Undecided -> Undecided

(* the verdict that counts, plus (CNF only) the loop's own verdict, which
   must agree with it *)
let solve inst =
  match inst.problem with
  | Anf polys -> (
      let outcome = driver_call "bench.driver_run" (fun () -> Bosphorus.Driver.run ~config polys) in
      match outcome.Bosphorus.Driver.status with
      | Bosphorus.Driver.Solved_sat sol -> (Sat_list sol, None)
      | Bosphorus.Driver.Solved_unsat -> (Unsat, None)
      | Bosphorus.Driver.Degraded -> (Undecided, None)
      | Bosphorus.Driver.Processed -> (final_answer (final_solve outcome.Bosphorus.Driver.cnf), None))
  | Cnf f ->
      (* the paper's CNF use: preprocess, then solve the original formula
         conjoined with the learnt facts *)
      let outcome = driver_call "bench.run_cnf" (fun () -> Bosphorus.Driver.run_cnf ~config f) in
      let augmented = span "bench.augmented_cnf" (fun () -> Bosphorus.Driver.augmented_cnf f outcome) in
      let loop =
        match outcome.Bosphorus.Driver.status with
        | Bosphorus.Driver.Solved_sat sol -> Sat_list sol
        | Bosphorus.Driver.Solved_unsat -> Unsat
        | Bosphorus.Driver.Processed | Bosphorus.Driver.Degraded -> Undecided
      in
      (final_answer (final_solve augmented), Some loop)

let check inst = function
  | Sat_list sol -> check_sat inst (lookup_list sol)
  | Sat_array m -> check_sat inst (lookup_array m)
  | Unsat -> check_unsat inst
  | Undecided -> Unsolved

let run i inst =
  let t0 = Unix.gettimeofday () in
  let answer = try Ok (solve inst) with e -> Error (Printexc.to_string e) in
  let time_s = Unix.gettimeofday () -. t0 in
  let verdict =
    match answer with
    | Error msg -> Failed msg
    | Ok (final, loop) -> (
        match (check inst final, Option.map (check inst) loop) with
        | (Failed _ as f), _ | _, Some (Failed _ as f) -> f
        | v, _ -> v)
  in
  { inst = i; time_s; reply_wall = 0.0; hit = false; verdict }
