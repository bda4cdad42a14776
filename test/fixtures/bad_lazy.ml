(* lazy-in-parallel fixture: this module is listed [parallel] in the
   test manifest, so both the lazy block and the Lazy.force are the PR 2
   Lazy.RacyLazy bug class. *)

let table = lazy (Array.init 256 (fun i -> i * i))

let lookup i = (Lazy.force table).(i)

(* forcing from inside a pinned task is flagged by the task scan too *)
let in_task () = Runtime.Pool.run_pinned [ (fun () -> Lazy.force table) ]
