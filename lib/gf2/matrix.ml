type t = { nrows : int; ncols : int; data : Bitvec.t array }

let create ~rows ~cols =
  if rows < 0 || cols < 0 then invalid_arg "Matrix.create";
  { nrows = rows; ncols = cols; data = Array.init (Int.max 1 rows) (fun _ -> Bitvec.create cols) }

let of_rows ~cols rows_list =
  List.iter
    (fun r ->
      if Bitvec.length r <> cols then invalid_arg "Matrix.of_rows: row length mismatch")
    rows_list;
  let nrows = List.length rows_list in
  let m = create ~rows:nrows ~cols in
  List.iteri (fun i r -> m.data.(i) <- Bitvec.copy r) rows_list;
  m

let rows m = m.nrows
let cols m = m.ncols

let check_row m i =
  if i < 0 || i >= m.nrows then
    invalid_arg (Printf.sprintf "Matrix: row %d out of range (nrows %d)" i m.nrows)

let get m i j =
  check_row m i;
  Bitvec.get m.data.(i) j

let set m i j b =
  check_row m i;
  Bitvec.set m.data.(i) j b

let row m i =
  check_row m i;
  m.data.(i)

let copy m = { m with data = Array.map Bitvec.copy m.data }

let swap_rows m i j =
  check_row m i;
  check_row m j;
  let t = m.data.(i) in
  m.data.(i) <- m.data.(j);
  m.data.(j) <- t

let xor_rows m ~src ~dst =
  check_row m src;
  check_row m dst;
  Bitvec.xor_into ~src:m.data.(src) ~dst:m.data.(dst)

(* Structural RREF validity: pivot columns strictly increase, zero rows sit
   at the bottom, and every pivot column is zero outside its pivot row. *)
let is_rref m =
  let ok = ref true in
  let last_pivot = ref (-1) in
  let seen_zero = ref false in
  for i = 0 to m.nrows - 1 do
    match Bitvec.first_set m.data.(i) with
    | None -> seen_zero := true
    | Some c ->
        if !seen_zero || c <= !last_pivot then ok := false;
        last_pivot := c;
        for r = 0 to m.nrows - 1 do
          if r <> i && Bitvec.get m.data.(r) c then ok := false
        done
  done;
  !ok

(* Reduce [v] by the pivot rows of an echelonised matrix; zero remainder
   means membership in the row space. *)
let in_row_space m v =
  if Bitvec.length v <> m.ncols then
    invalid_arg
      (Printf.sprintf "Matrix.in_row_space: vector length %d, matrix has %d columns"
         (Bitvec.length v) m.ncols);
  let v = Bitvec.copy v in
  for i = 0 to m.nrows - 1 do
    match Bitvec.first_set m.data.(i) with
    | Some c when Bitvec.get v c -> Bitvec.xor_into ~src:m.data.(i) ~dst:v
    | Some _ | None -> ()
  done;
  Bitvec.is_zero v

(* Self-checking hook of the audit layer (see lib/audit): when the
   environment opts in, every elimination verifies its own output.  Read
   eagerly, not lazily: eliminations run concurrently on the daemon's
   worker domains, and Lazy.force from several domains races
   (Lazy.RacyLazy). *)
let audit_hooks =
  match Sys.getenv_opt "BOSPHORUS_AUDIT" with
  | Some ("1" | "true" | "yes") -> true
  | Some _ | None -> false

(* Gauss-Jordan: for each column left to right, find a pivot row at or below
   the current pivot rank, swap it up, then clear that column in every other
   row.  O(rows * cols * words-per-row). *)
let rref ?(poll = fun () -> ()) m =
  let pivot_row = ref 0 in
  let col = ref 0 in
  while !pivot_row < m.nrows && !col < m.ncols do
    (* per-column cancellation point: a raising [poll] abandons the
       half-reduced matrix, so callers must not use it afterwards *)
    poll ();
    let c = !col in
    (* find a row >= pivot_row with a 1 in column c *)
    let rec find i =
      if i >= m.nrows then None else if Bitvec.get m.data.(i) c then Some i else find (i + 1)
    in
    (match find !pivot_row with
    | None -> ()
    | Some i ->
        if i <> !pivot_row then swap_rows m i !pivot_row;
        let p = m.data.(!pivot_row) in
        for r = 0 to m.nrows - 1 do
          if r <> !pivot_row && Bitvec.get m.data.(r) c then
            Bitvec.xor_into ~src:p ~dst:m.data.(r)
        done;
        incr pivot_row);
    incr col
  done;
  if audit_hooks && not (is_rref m) then
    failwith "Matrix.rref: result is not in reduced row echelon form";
  !pivot_row

let rank m = rref (copy m)

let nonzero_rows m =
  let acc = ref [] in
  for i = m.nrows - 1 downto 0 do
    if not (Bitvec.is_zero m.data.(i)) then acc := Bitvec.copy m.data.(i) :: !acc
  done;
  !acc

let pp ppf m =
  for i = 0 to m.nrows - 1 do
    if i > 0 then Format.pp_print_newline ppf ();
    Bitvec.pp ppf m.data.(i)
  done
