type kind = Time | Memory | Conflicts | Injected | Cancelled

let kind_name = function
  | Time -> "time"
  | Memory -> "memory"
  | Conflicts -> "conflicts"
  | Injected -> "injected"
  | Cancelled -> "cancelled"

type trip = { kind : kind; layer : string; at_iteration : int; detail : string }

exception Tripped of trip

type t = {
  started : float;
  deadline : float option;
  max_cells : int option;
  max_conflicts : int option;
  poll_every : int;
  (* [tick] is bumped by every poll from whichever domain is polling;
     lost increments under contention only stretch the amortization
     window, never correctness — recorded trips short-circuit polls
     through the atomic [trip_cell] load. *)
  mutable tick : int;
  mutable full_checks : int;
  mutable cells_now : int;
  mutable cells_peak : int;
  mutable conflicts : int;
  mutable iteration : int;
  trip_cell : trip option Atomic.t;
}

let create ?timeout_s ?max_memory_monomials ?max_total_conflicts
    ?(poll_every = 256) () =
  if poll_every < 1 then invalid_arg "Budget.create: poll_every must be >= 1";
  let now = Unix.gettimeofday () in
  {
    started = now;
    deadline = Option.map (fun s -> now +. s) timeout_s;
    max_cells = max_memory_monomials;
    max_conflicts = max_total_conflicts;
    poll_every;
    tick = 0;
    full_checks = 0;
    cells_now = 0;
    cells_peak = 0;
    conflicts = 0;
    iteration = 0;
    trip_cell = Atomic.make None;
  }

let unlimited () = create ()

let is_limited t =
  t.deadline <> None || t.max_cells <> None || t.max_conflicts <> None

let cancelled t = Atomic.get t.trip_cell <> None
let tripped t = Atomic.get t.trip_cell
let set_iteration t i = t.iteration <- i
let full_checks t = t.full_checks

let set_cells t n =
  t.cells_now <- n;
  if n > t.cells_peak then t.cells_peak <- n

let add_cells t n = set_cells t (t.cells_now + n)
let cells t = t.cells_now
let conflicts_used t = t.conflicts

let remaining_conflicts t =
  Option.map (fun m -> max 0 (m - t.conflicts)) t.max_conflicts

let remaining_time_s t =
  Option.map (fun d -> Float.max 0.0 (d -. Unix.gettimeofday ())) t.deadline

(* First trip wins; every later trip attempt just reads the winner.  The
   winner drops an instant mark on the trace so the trip is visible on the timeline of
   whichever domain detected it. *)
let record t trip =
  if Atomic.compare_and_set t.trip_cell None (Some trip) then
    Obs.Trace.instant "budget.trip"
      ~args:
        [
          ("kind", kind_name trip.kind);
          ("layer", trip.layer);
          ("iteration", string_of_int trip.at_iteration);
          ("detail", trip.detail);
        ];
  Option.get (Atomic.get t.trip_cell)

(* ------------------------------------------------------------------ *)
(* fault injection                                                     *)
(* ------------------------------------------------------------------ *)

(* Armed countdown: number of matching full checks still to survive, and
   an optional layer filter.  Process-global so tests can trip a budget
   they never get their hands on (e.g. the one the driver creates). *)
let injection : (int * string option) option Atomic.t = Atomic.make None

let injection_enabled () =
  match Sys.getenv_opt "BOSPHORUS_FAULT_INJECT" with
  | Some ("1" | "true" | "yes") -> true
  | Some _ | None -> false

let inject_trip_after ?layer n =
  if injection_enabled () then Atomic.set injection (Some (max 0 n, layer))

let inject_clear () = Atomic.set injection None

(* Decrement the countdown for a matching check; [true] iff it fired. *)
let rec injection_fires ~layer =
  match Atomic.get injection with
  | None -> false
  | Some (_, Some want) when want <> layer -> false
  | Some (n, filter) as seen ->
      let next = if n = 0 then None else Some (n - 1, filter) in
      if Atomic.compare_and_set injection seen next then n = 0
      else injection_fires ~layer

(* ------------------------------------------------------------------ *)
(* checking                                                            *)
(* ------------------------------------------------------------------ *)

let trip_exn t ~kind ~layer ~detail =
  raise (Tripped (record t { kind; layer; at_iteration = t.iteration; detail }))

(* External revocation: the recorder raises only in the *polling* party,
   so the canceller itself just records and returns.  [record] keeps
   first-trip-wins semantics: cancelling an already-tripped budget is a
   no-op beyond reading the winner. *)
let cancel_now t ~layer ~detail =
  ignore
    (record t { kind = Cancelled; layer; at_iteration = t.iteration; detail })

(* The full check, cheapest condition first; reads the clock only when a
   deadline is configured. *)
let check t ~layer =
  t.full_checks <- t.full_checks + 1;
  (match Atomic.get t.trip_cell with
  | Some trip -> raise (Tripped trip)
  | None -> ());
  if injection_fires ~layer then
    trip_exn t ~kind:Injected ~layer ~detail:"injected fault (BOSPHORUS_FAULT_INJECT)";
  (match t.max_cells with
  | Some m when t.cells_now > m ->
      trip_exn t ~kind:Memory ~layer
        ~detail:(Printf.sprintf "monomial/clause gauge %d > ceiling %d" t.cells_now m)
  | Some _ | None -> ());
  (match t.max_conflicts with
  | Some m when t.conflicts >= m ->
      trip_exn t ~kind:Conflicts ~layer
        ~detail:(Printf.sprintf "cumulative conflicts %d >= ceiling %d" t.conflicts m)
  | Some _ | None -> ());
  match t.deadline with
  | Some d when Unix.gettimeofday () > d ->
      trip_exn t ~kind:Time ~layer
        ~detail:(Printf.sprintf "deadline of %.3fs passed" (d -. t.started))
  | Some _ | None -> ()

let poll t ~layer =
  (* a recorded trip (possibly from another domain) propagates on every
     poll, regardless of where the amortization counter stands *)
  (match Atomic.get t.trip_cell with
  | Some trip -> raise (Tripped trip)
  | None -> ());
  t.tick <- t.tick + 1;
  if t.tick >= t.poll_every then begin
    t.tick <- 0;
    check t ~layer
  end

let poll_quiet t ~layer =
  match check t ~layer with () -> false | exception Tripped _ -> true

let charge_conflicts t ~layer n =
  if n < 0 then invalid_arg "Budget.charge_conflicts: negative count";
  t.conflicts <- t.conflicts + n;
  check t ~layer

(* ------------------------------------------------------------------ *)
(* reporting                                                           *)
(* ------------------------------------------------------------------ *)

type report = {
  trip : trip option;
  wall_s : float;
  conflicts_used : int;
  cells_peak : int;
  polls : int;
}

let report t =
  {
    trip = Atomic.get t.trip_cell;
    wall_s = Unix.gettimeofday () -. t.started;
    conflicts_used = t.conflicts;
    cells_peak = t.cells_peak;
    polls = t.full_checks;
  }

let pp_report ppf r =
  (match r.trip with
  | None -> Format.fprintf ppf "within budget"
  | Some trip ->
      Format.fprintf ppf "tripped: %s in %s at iteration %d (%s)"
        (kind_name trip.kind) trip.layer trip.at_iteration trip.detail);
  Format.fprintf ppf "; wall %.3fs, %d conflicts, peak %d cells, %d checks"
    r.wall_s r.conflicts_used r.cells_peak r.polls

(* ------------------------------------------------------------------ *)
(* limits                                                              *)
(* ------------------------------------------------------------------ *)

type limits = {
  timeout_s : float option;
  max_memory_monomials : int option;
  max_total_conflicts : int option;
}

let no_limits =
  { timeout_s = None; max_memory_monomials = None; max_total_conflicts = None }

let limits_limited l =
  l.timeout_s <> None || l.max_memory_monomials <> None
  || l.max_total_conflicts <> None

let min_opt min2 a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some a, Some b -> Some (min2 a b)

let clamp_limits ~ceiling l =
  {
    timeout_s = min_opt Float.min l.timeout_s ceiling.timeout_s;
    max_memory_monomials =
      min_opt Int.min l.max_memory_monomials ceiling.max_memory_monomials;
    max_total_conflicts =
      min_opt Int.min l.max_total_conflicts ceiling.max_total_conflicts;
  }

let slice_limits ~share l =
  if share < 1 then invalid_arg "Budget.slice_limits: share must be >= 1";
  let div_up n = (n + share - 1) / share in
  {
    timeout_s =
      Option.map (fun s -> Float.max 0.01 (s /. float_of_int share)) l.timeout_s;
    max_memory_monomials = Option.map div_up l.max_memory_monomials;
    max_total_conflicts = Option.map div_up l.max_total_conflicts;
  }

let of_limits ?poll_every l =
  create ?timeout_s:l.timeout_s
    ?max_memory_monomials:l.max_memory_monomials
    ?max_total_conflicts:l.max_total_conflicts ?poll_every ()

let limits_numeric_fields l =
  List.filter_map
    (fun x -> x)
    [
      Option.map (fun s -> ("limit_timeout_s", s)) l.timeout_s;
      Option.map
        (fun n -> ("limit_memory_monomials", float_of_int n))
        l.max_memory_monomials;
      Option.map
        (fun n -> ("limit_total_conflicts", float_of_int n))
        l.max_total_conflicts;
    ]

let report_numeric_fields r =
  let trip_fields =
    match r.trip with
    | None -> [ ("tripped", 0.0) ]
    | Some trip ->
        [ ("tripped", 1.0); ("trip_iteration", float_of_int trip.at_iteration) ]
  in
  trip_fields
  @ [
      ("budget_wall_s", r.wall_s);
      ("conflicts_used", float_of_int r.conflicts_used);
      ("cells_peak", float_of_int r.cells_peak);
      ("budget_polls", float_of_int r.polls);
    ]
