(* domain-capture fixture: pinned tasks capturing non-atomic mutable
   state.  Each function trips a different sub-rule of the capture
   analysis. *)

(* captured ref and hash table *)
let bad_counter () =
  let counter = ref 0 in
  let tbl = Hashtbl.create 8 in
  ignore
    (Runtime.Pool.run_pinned
       [
         (fun () ->
           incr counter;
           Hashtbl.replace tbl !counter true);
       ]);
  !counter

(* write into a captured bytes buffer *)
let bad_bytes_write () =
  let buf = Bytes.create 8 in
  ignore (Runtime.Pool.run_pinned [ (fun () -> Bytes.set buf 0 'x') ]);
  buf

(* the task is passed by name: the analyzer resolves the local binding *)
let bad_indirect () =
  let seen = Hashtbl.create 4 in
  let task () = Hashtbl.replace seen 1 () in
  ignore (Runtime.Pool.run_pinned [ task ]);
  Hashtbl.length seen
