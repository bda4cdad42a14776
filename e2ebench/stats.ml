(* Order statistics over float samples. *)

let sorted xs = List.sort Float.compare xs

(* Median with the usual midpoint rule for even counts; 0 when empty. *)
let median xs =
  match sorted xs with
  | [] -> 0.0
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let max_of xs = List.fold_left Float.max 0.0 xs

(* Nearest-rank quantile, [0 < p <= 1]; 0 when empty. *)
let quantile p xs =
  match sorted xs with
  | [] -> 0.0
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let sum xs = List.fold_left ( +. ) 0.0 xs

(* The highest order statistic that still has at least ten samples above
   it, with the percentile it stands for.  [None] below 11 samples. *)
let tail xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n < 11 then None
  else Some (a.(n - 11), 100.0 *. float_of_int (n - 10) /. float_of_int n)

let ratio num den = if den > 0.0 then num /. den else 0.0
