(* Dedicated domains for long-running tasks: a queue served by a
   process-global worker set, plus futures joined in submission order.

   [inflight] counts tasks currently queued or running across all
   concurrent [run_pinned] calls; the worker set is grown to match before
   submission, so every pinned task has a dedicated domain and racing
   tasks can never deadlock behind one another. *)

module Cancel = struct
  type t = bool Atomic.t

  let create () = Atomic.make false
  let set t = Atomic.set t true
  let is_set t = Atomic.get t
end

exception Cancelled

type 'a state = Pending | Done of 'a | Failed of exn

type 'a future = {
  fm : Mutex.t;
  fc : Condition.t;
  mutable state : 'a state;
}

(* Guarded by [qm]: the queue, the worker count and the in-flight
   count.  Workers never exit: an idle one blocks on [qc], and the
   process ends without joining it. *)
let qm = Mutex.create ()
let qc = Condition.create ()
let queue : (unit -> unit) Queue.t = Queue.create ()
let n_workers = ref 0
let inflight = ref 0

let rec worker_loop () =
  Mutex.lock qm;
  while Queue.is_empty queue do
    Condition.wait qc qm
  done;
  let task = Queue.pop queue in
  Mutex.unlock qm;
  task ();
  worker_loop ()

let reserve n =
  Mutex.lock qm;
  inflight := !inflight + n;
  while !n_workers < !inflight do
    ignore (Domain.spawn worker_loop : unit Domain.t);
    incr n_workers
  done;
  Mutex.unlock qm

let release n =
  Mutex.lock qm;
  inflight := !inflight - n;
  Mutex.unlock qm

let submit f =
  let fut = { fm = Mutex.create (); fc = Condition.create (); state = Pending } in
  let task () =
    (* every pinned task is a span on the domain that runs it, so each
       seat shows up as its own trace track *)
    let r =
      try Done (Obs.Trace.with_span ~name:"pool.task" f) with e -> Failed e
    in
    Mutex.lock fut.fm;
    fut.state <- r;
    Condition.broadcast fut.fc;
    Mutex.unlock fut.fm
  in
  Mutex.lock qm;
  Queue.push task queue;
  Condition.signal qc;
  Mutex.unlock qm;
  fut

let await fut =
  Mutex.lock fut.fm;
  let rec wait () =
    match fut.state with
    | Pending ->
        Condition.wait fut.fc fut.fm;
        wait ()
    | Done v -> Ok v
    | Failed e -> Error e
  in
  let r = wait () in
  Mutex.unlock fut.fm;
  r

(* Wrap a thunk so that a set cancellation token skips the work: the
   future still completes (with [Failed Cancelled]), so joins never block
   on abandoned tasks and no future is lost. *)
let guard cancel f =
  match cancel with
  | None -> f
  | Some tok -> fun () -> if Cancel.is_set tok then raise Cancelled else f ()

let run_pinned ?cancel thunks =
  match thunks with
  | [] -> []
  | first :: rest ->
      (* the caller runs the first thunk inline (it is a full participant
         in the race); the rest get dedicated domains *)
      let n = List.length rest in
      reserve n;
      Fun.protect
        ~finally:(fun () -> release n)
        (fun () ->
          let futs = List.map (fun f -> submit (guard cancel f)) rest in
          let r0 = try Ok ((guard cancel first) ()) with e -> Error e in
          r0 :: List.map await futs)
