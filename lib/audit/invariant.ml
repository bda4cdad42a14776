module P = Anf.Poly
module D = Diagnostic

type context = { anf : P.t list; cnf : Cnf.Formula.t }

type check = { name : string; run : context -> D.t list }

let registry : check list ref = ref []
let register ~name run = registry := !registry @ [ { name; run } ]
let names () = List.map (fun c -> c.name) !registry

let enabled () =
  match Sys.getenv_opt "BOSPHORUS_AUDIT" with
  | Some ("1" | "true" | "yes") -> true
  | Some _ | None -> false

let run_all ctx =
  List.concat_map
    (fun c ->
      List.map (fun d -> { d with D.code = c.name ^ "/" ^ d.D.code }) (c.run ctx))
    !registry

(* ---------------- default checks ---------------- *)

(* The elimination must produce a structurally valid RREF of the system's
   linear subsystem. *)
let rref_validity ctx =
  let linear = List.filter (fun p -> P.is_linear p && not (P.is_zero p)) ctx.anf in
  if linear = [] then []
  else begin
    let _, m = Bosphorus.Linearize.build linear in
    ignore (Gf2.Matrix.rref m);
    if Gf2.Matrix.is_rref m then []
    else [ D.error (D.Artifact "anf") "not-rref" "Matrix.rref output fails is_rref" ]
  end

(* Load the CNF into a fresh solver and ask it to audit its own watch
   lists, trail and XOR rows. *)
let solver_watch_consistency ctx =
  let solver = Sat.Solver.create ~nvars:(Cnf.Formula.nvars ctx.cnf) () in
  if not (Sat.Solver.add_formula solver ctx.cnf) then
    [] (* root conflict: solver is legitimately empty *)
  else
    List.map
      (fun v -> D.error (D.Artifact "cnf") "solver-invariant" "%s" v)
      (Sat.Solver.invariant_violations solver)

(* The ANF -> CNF -> ANF round trip must preserve canonical forms: the
   emitted CNF lints clean, monomial auxiliaries are allocated beyond the
   ANF variables and stand for nonlinear monomials, and the recovered ANF
   is canonical again. *)
let roundtrip_canonical ctx =
  let config = Bosphorus.Config.default in
  let conv = Bosphorus.Anf_to_cnf.convert ~config ctx.anf in
  let anf_nvars = conv.Bosphorus.Anf_to_cnf.anf_nvars in
  let cnf_errors =
    List.filter D.is_error (Lint.lint_cnf conv.Bosphorus.Anf_to_cnf.formula)
  in
  let aux_errors =
    Hashtbl.fold
      (fun v m acc ->
        if v < anf_nvars then
          D.error (D.Artifact "anf_to_cnf") "aux-collision"
            "monomial variable %d inside the ANF range (%d)" v anf_nvars
          :: acc
        else if Anf.Monomial.degree m < 2 then
          D.error (D.Artifact "anf_to_cnf") "aux-degree"
            "auxiliary variable %d stands for %s (degree < 2)" v
            (Anf.Monomial.to_string m)
          :: acc
        else acc)
      conv.Bosphorus.Anf_to_cnf.mono_of_var []
  in
  let back =
    Bosphorus.Cnf_to_anf.convert ~config conv.Bosphorus.Anf_to_cnf.formula
  in
  let back_errors =
    List.filter D.is_error (Lint.lint_anf back.Bosphorus.Cnf_to_anf.polys)
  in
  cnf_errors @ aux_errors @ back_errors

let () =
  register ~name:"rref-validity" rref_validity;
  register ~name:"solver-watch-consistency" solver_watch_consistency;
  register ~name:"roundtrip-canonical" roundtrip_canonical

let check_outcome (outcome : Bosphorus.Driver.outcome) =
  run_all
    { anf = outcome.Bosphorus.Driver.anf; cnf = outcome.Bosphorus.Driver.cnf }
