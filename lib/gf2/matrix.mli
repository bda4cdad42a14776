(** Dense matrices over GF(2) with Gauss–Jordan elimination.

    This is the workhorse behind XL and ElimLin (the role M4RI plays in the
    original Bosphorus).  A matrix is a mutable array of {!Bitvec.t} rows;
    [rref] reduces it in place to reduced row echelon form. *)

type t

(** [create ~rows ~cols] is the all-zero matrix. *)
val create : rows:int -> cols:int -> t

(** [of_rows ~cols rows] builds a matrix from existing row vectors (which are
    copied).  Every row must have length [cols]. *)
val of_rows : cols:int -> Bitvec.t list -> t

val rows : t -> int
val cols : t -> int

(** [get m i j] / [set m i j b] access entry (row [i], column [j]). *)
val get : t -> int -> int -> bool

val set : t -> int -> int -> bool -> unit

(** [row m i] is the live [i]-th row (not a copy). *)
val row : t -> int -> Bitvec.t

(** [copy m] is a deep copy. *)
val copy : t -> t

(** [swap_rows m i j] exchanges rows [i] and [j]. *)
val swap_rows : t -> int -> int -> unit

(** [xor_rows m ~src ~dst] adds row [src] into row [dst]. *)
val xor_rows : t -> src:int -> dst:int -> unit

(** [rref ?poll m] reduces [m] in place to reduced row echelon form (full
    Gauss–Jordan: pivots are 1 and each pivot column is zero elsewhere) and
    returns the rank.  Pivot search is leftmost-column first, so columns with
    lower index are preferred as pivots — callers order columns by descending
    monomial degree so that learnt linear facts surface in the trailing
    columns, as in Table I of the paper.

    The system's one GF(2) elimination: plain bit-packed Gauss–Jordan,
    without M4RI's Method of Four Russians tables.

    [poll] (default a no-op) is called once per column step — a
    cooperative cancellation point for budgeted callers
    ({!Harness.Budget.poll}).  If it raises, the elimination aborts with
    that exception and [m] is left half-reduced: discard it. *)
val rref : ?poll:(unit -> unit) -> t -> int

(** [rank m] is the GF(2) rank (computed on a copy; [m] is unchanged). *)
val rank : t -> int

(** [is_rref m] checks the structural reduced-row-echelon-form invariant:
    pivot columns strictly increase top to bottom, zero rows are at the
    bottom, and each pivot column is zero outside its pivot row.  Used by
    the audit layer's invariant checks; with the environment variable
    [BOSPHORUS_AUDIT] set, {!rref} also verifies its own output against
    it. *)
val is_rref : t -> bool

(** [in_row_space m v] is [true] iff [v] is a GF(2) linear combination of
    the rows of [m].  [m] must be in (reduced) row echelon form — reduce it
    with {!rref} first.  Raises [Invalid_argument] if the
    vector length differs from the column count. *)
val in_row_space : t -> Bitvec.t -> bool

(** [nonzero_rows m] lists (copies of) the rows that are not identically
    zero, top to bottom. *)
val nonzero_rows : t -> Bitvec.t list

(** [pp] prints a 0/1 grid, one row per line. *)
val pp : Format.formatter -> t -> unit
