(* Seeded workload inputs.  Every instance is generated here from the
   workload seed, rendered to the text a user would hand the program
   (ANF text or DIMACS), and parsed back through the program's own
   readers; the solver never sees the in-memory generator output.  Each
   instance carries its expected answer, known by construction, so every
   verdict can be checked without trusting the solver. *)

type expect = Expect_sat | Expect_unsat

type text = Anf_text of string | Cnf_text of string
type spec = { name : string; text : text; expect : expect }

type problem = Anf of Anf.Poly.t list | Cnf of Cnf.Formula.t
type instance = { iname : string; problem : problem; expected : expect }

let rng seed family i = Random.State.make [| 0xe2e; seed; family; i |]

let anf name polys = { name; text = Anf_text (Anf.Anf_io.write_string polys); expect = Expect_sat }

(* Cipher instances encode a real key (nonce), so each is satisfiable by
   construction. *)
let simon ~plaintexts ~rounds seed i =
  let inst = Ciphers.Simon.instance ~rounds ~n_plaintexts:plaintexts ~rng:(rng seed 1 i) () in
  anf (Printf.sprintf "simon-%d-%d-%d" plaintexts rounds i) inst.Ciphers.Simon.equations

let bitcoin ~rounds ~k seed i =
  let inst = Ciphers.Sha256.nonce_instance ~rounds ~k ~rng:(rng seed 2 i) () in
  anf (Printf.sprintf "bitcoin-%d-%d" k i) inst.Ciphers.Sha256.equations

(* small-scale AES SR(1, rows, cols, 4) *)
let aes ~rows ~cols seed i =
  let params = { Ciphers.Aes_small.n = 1; r = rows; c = cols; e = 4 } in
  let inst = Ciphers.Aes_small.instance params ~rng:(rng seed (30 + (10 * rows) + cols) i) () in
  anf (Printf.sprintf "sr-1%d%d4-%d" rows cols i) inst.Ciphers.Aes_small.equations

let cnf name f expect = { name; text = Cnf_text (Cnf.Dimacs.write_string f); expect }

(* A Tseitin system is satisfiable iff every connected component of its
   graph has even total charge; each edge variable occurs in the two rows
   of its endpoints (or in none, for a cancelled self-loop). *)
let tseitin_expect rows =
  let rows = Array.of_list rows in
  let parent = Array.init (Array.length rows) Fun.id in
  let rec find i = if parent.(i) = i then i else find parent.(i) in
  let owner = Hashtbl.create 64 in
  Array.iteri
    (fun r (vars, _) ->
      List.iter
        (fun v ->
          match Hashtbl.find_opt owner v with
          | None -> Hashtbl.add owner v r
          | Some r' -> parent.(find r) <- find r')
        vars)
    rows;
  let charge = Array.make (Array.length rows) false in
  Array.iteri (fun r (_, parity) -> let c = find r in charge.(c) <- charge.(c) <> parity) rows;
  if Array.exists Fun.id charge then Expect_unsat else Expect_sat

let tseitin ~vertices ~odd seed i =
  let f, rows =
    Problems.Generators.parity_chain_xors ~vertices ~satisfiable:(not odd)
      ~rng:(rng seed (if odd then 4 else 5) i)
  in
  cnf (Printf.sprintf "tseitin-%s-%d" (if odd then "odd" else "even") i) f (tseitin_expect rows)

(* k-colouring of a random graph whose edges all join differently
   coloured vertices of a hidden colouring: satisfiable by construction. *)
let planted_coloring ~vertices ~edges ~colors seed i =
  let r = rng seed 6 i in
  let colour = Array.init vertices (fun _ -> Random.State.int r colors) in
  let v x c = (x * colors) + c in
  let clauses =
    ref (List.init vertices (fun x -> Cnf.Clause.of_list (List.init colors (fun c -> Cnf.Lit.pos (v x c)))))
  in
  let seen = Hashtbl.create edges in
  let added = ref 0 and attempts = ref 0 in
  while !added < edges && !attempts < 100 * edges do
    incr attempts;
    let a = Random.State.int r vertices and b = Random.State.int r vertices in
    let key = (min a b, max a b) in
    if colour.(a) <> colour.(b) && not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      incr added;
      for c = 0 to colors - 1 do
        clauses := Cnf.Clause.of_list [ Cnf.Lit.neg_of (v a c); Cnf.Lit.neg_of (v b c) ] :: !clauses
      done
    end
  done;
  cnf (Printf.sprintf "colour-%d" i) (Cnf.Formula.create ~nvars:(vertices * colors) !clauses) Expect_sat

(* A circuit mitred against an unmodified copy of itself: unsatisfiable
   by construction. *)
let miter_eq seed i =
  cnf (Printf.sprintf "miter-eq-%d" i)
    (Problems.Generators.miter ~inputs:12 ~gates:60 ~buggy:false ~rng:(rng seed 7 i))
    Expect_unsat

let php ~holes = cnf (Printf.sprintf "php-%d" holes) (Problems.Generators.pigeonhole ~holes) Expect_unsat

let times n f seed = List.init n (f seed)

let generate workload seed =
  match workload with
  | "anf-simon" -> times 24 (simon ~plaintexts:4 ~rounds:5) seed
  | "anf-encode-search" ->
      times 20 (aes ~rows:2 ~cols:2) seed @ times 20 (aes ~rows:4 ~cols:1) seed
  | "cnf-suite" ->
      (php ~holes:6 :: times 12 (planted_coloring ~vertices:40 ~edges:90 ~colors:4) seed)
      @ times 9 miter_eq seed
      @ times 12 (tseitin ~vertices:40 ~odd:false) seed
      @ times 12 (tseitin ~vertices:40 ~odd:true) seed
  | "daemon-mixed" -> times 16 (simon ~plaintexts:4 ~rounds:5) seed
  | w -> invalid_arg ("unknown workload " ^ w)

let workloads = [ "anf-simon"; "anf-encode-search"; "cnf-suite"; "daemon-mixed" ]

let raw = function Anf_text s | Cnf_text s -> s

(* One digest over every serialized input, in order: equal seeds must
   give equal digests. *)
let digest specs = Digest.to_hex (Digest.string (String.concat "\000" (List.map (fun s -> raw s.text) specs)))

let parse spec =
  let problem =
    match spec.text with
    | Anf_text s -> Anf (Anf.Anf_io.parse_string s)
    | Cnf_text s -> Cnf (Cnf.Dimacs.parse_string s)
  in
  { iname = spec.name; problem; expected = spec.expect }
