module M = Anf.Monomial

module Mtbl = Hashtbl.Make (struct
  type t = M.t

  let equal = M.equal
  let hash = M.hash
end)

type t = { columns : M.t array; index : int Mtbl.t }

let column_basis polys =
  let seen = Mtbl.create 64 in
  List.iter
    (fun p -> List.iter (fun m -> Mtbl.replace seen m ()) (Anf.Poly.monomials p))
    polys;
  let cols = Mtbl.fold (fun m () acc -> m :: acc) seen [] in
  Array.of_list (List.sort M.compare cols)

let g_columns = Obs.Metrics.gauge "linearize.columns"
let g_rows = Obs.Metrics.gauge "linearize.rows"

let build polys =
  Obs.Trace.with_span ~name:"linearize.build" @@ fun () ->
  let columns = column_basis polys in
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.set_gauge g_columns (Array.length columns);
    Obs.Metrics.set_gauge g_rows (List.length polys)
  end;
  let index = Mtbl.create (Array.length columns) in
  Array.iteri (fun i m -> Mtbl.replace index m i) columns;
  let t = { columns; index } in
  let ncols = Array.length columns in
  let row_of p =
    let row = Gf2.Bitvec.create ncols in
    List.iter
      (fun m -> Gf2.Bitvec.set row (Mtbl.find index m) true)
      (Anf.Poly.monomials p);
    row
  in
  (t, Gf2.Matrix.of_rows ~cols:ncols (List.map row_of polys))

let n_columns t = Array.length t.columns
let columns t = t.columns

let poly_of_row t row =
  Anf.Poly.of_monomials (Gf2.Bitvec.fold_set row [] (fun acc i -> t.columns.(i) :: acc))

let reduce ?poll polys =
  let t, matrix = build polys in
  ignore (Gf2.Matrix.rref_m4rm ?poll matrix);
  List.map (poly_of_row t) (Gf2.Matrix.nonzero_rows matrix)

let cells polys = List.length polys * Array.length (column_basis polys)
