(* Pinned-domain runtime: submission-order joins, per-slot errors, and
   cancellation tokens. *)

module Pool = Runtime.Pool

exception Boom of int

(* ------------------------------------------------------------------ *)
(* run_pinned: dedicated domains for long tasks                         *)
(* ------------------------------------------------------------------ *)

let test_run_pinned_order_and_errors () =
  (match Pool.run_pinned [] with
  | [] -> ()
  | _ -> Alcotest.fail "empty batch");
  (match Pool.run_pinned [ (fun () -> 41 + 1) ] with
  | [ Ok 42 ] -> ()
  | _ -> Alcotest.fail "singleton runs inline");
  let results =
    Pool.run_pinned
      [ (fun () -> 1); (fun () -> raise (Boom 5)); (fun () -> 3) ]
  in
  (match results with
  | [ Ok 1; Error (Boom 5); Ok 3 ] -> ()
  | _ -> Alcotest.fail "submission order with per-slot errors");
  (* the pinned worker set is reusable *)
  match Pool.run_pinned [ (fun () -> 7); (fun () -> 8) ] with
  | [ Ok 7; Ok 8 ] -> ()
  | _ -> Alcotest.fail "pinned set reusable after a failed batch"

let test_run_pinned_cancel_skips () =
  let c = Pool.Cancel.create () in
  Pool.Cancel.set c;
  let results = Pool.run_pinned ~cancel:c [ (fun () -> 1); (fun () -> 2) ] in
  List.iter
    (function
      | Error Pool.Cancelled -> ()
      | Ok _ -> Alcotest.fail "pre-set token must skip pinned slots"
      | Error e -> Alcotest.fail ("wrong exception: " ^ Printexc.to_string e))
    results

let suite =
  [
    ( "runtime.pinned",
      [
        Alcotest.test_case "order and per-slot errors" `Quick
          test_run_pinned_order_and_errors;
        Alcotest.test_case "pre-set token skips slots" `Quick
          test_run_pinned_cancel_skips;
      ] );
  ]
