(** Linearisation: treating each monomial as an independent variable
    (Section II-B), mapping a polynomial system to a GF(2) matrix whose
    columns are the distinct monomials in graded order (higher degree
    leftmost), so that Gauss–Jordan elimination drives learnt low-degree
    facts into the trailing columns as in Table I. *)

type t

(** [build polys] computes the column basis and the coefficient matrix
    of the system (one row per polynomial, in the given order). *)
val build : Anf.Poly.t list -> t * Gf2.Matrix.t

(** Number of monomial columns. *)
val n_columns : t -> int

(** The column basis in order. *)
val columns : t -> Anf.Monomial.t array

(** [poly_of_row t row] converts a matrix row back to a polynomial. *)
val poly_of_row : t -> Gf2.Bitvec.t -> Anf.Poly.t

(** [reduce ?poll polys] is a reduced-row-echelon basis of the GF(2)
    span of [polys]: {!build}, {!Gf2.Matrix.rref} (which calls [poll]
    once per column step), and the nonzero rows read back as
    polynomials.  It opens no span beyond {!build}'s; callers name the
    reduction they run. *)
val reduce : ?poll:(unit -> unit) -> Anf.Poly.t list -> Anf.Poly.t list

(** [cells polys] is [rows * distinct-monomials], the "m'-by-n' linearised
    size" the subsampling parameter M bounds. *)
val cells : Anf.Poly.t list -> int
