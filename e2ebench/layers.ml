(* The per-layer profile of a traced pass: self times from the program's
   existing [Obs.Trace] spans plus the benchmark's own spans around each
   public call, and counts from the existing [Obs.Metrics] counters.  A
   span's self time is its duration minus the time covered by its child
   spans; each span name belongs to one layer, except that everything
   under a [bench.final_solve] span belongs to the final solve.  On
   daemon-mixed [Driver.run] runs on the daemon's worker domain. *)

let layer_of_span = function
  | "driver.propagate" | "driver.absorb_facts" | "driver.compress_linear" -> "anf_prop"
  | "xl.run" | "xl.expand_chunk" | "driver.xl" -> "xl"
  | "linearize.build" | "linearize.hash_chunk" -> "linearize"
  | "elimlin.gje" | "xl.linearize_reduce" -> "gf2"
  | "elimlin.run" | "driver.elimlin" -> "elimlin"
  | "driver.sat_round" -> "anf_to_cnf.round"
  | "driver.emit_cnf" | "bench.augmented_cnf" -> "anf_to_cnf.emit"
  | "sat.solve" | "sat.reduce_db" | "sat.arena_gc" -> "sat"
  | "bench.run_cnf" -> "cnf_to_anf"
  | "service.request" -> "service"
  | "bench.driver_run" | "driver.iteration" | "driver.update_gauge" -> "unattributed"
  | _ -> "other"

type frame = { name : string; id : int; start : float; mutable children : float; final : bool }

type t = { self : string -> float;  (** seconds of self time, by layer *)
           total : string -> float  (** seconds of whole spans, by span name *) }

let of_events events =
  let bump tbl key s = Hashtbl.replace tbl key (s +. Option.value ~default:0.0 (Hashtbl.find_opt tbl key)) in
  let selfs = Hashtbl.create 16 and totals = Hashtbl.create 32 in
  let stacks = Hashtbl.create 4 in
  List.iter
    (fun (e : Obs.Trace.event) ->
      let stack = Option.value ~default:[] (Hashtbl.find_opt stacks e.tid) in
      match e.ph with
      | Obs.Trace.Instant -> ()
      | Obs.Trace.Begin ->
          let final =
            e.name = "bench.final_solve" || match stack with f :: _ -> f.final | [] -> false
          in
          Hashtbl.replace stacks e.tid
            ({ name = e.name; id = e.span_id; start = e.ts_us; children = 0.0; final } :: stack)
      | Obs.Trace.End ->
          (* frames above the matching one lost their ends to a full
             buffer; drop them *)
          let rec close = function
            | [] -> []
            | f :: rest when f.id <> e.span_id -> close rest
            | f :: rest ->
                let dur = (e.ts_us -. f.start) /. 1e6 in
                bump selfs (if f.final then "final_solve" else layer_of_span f.name) (dur -. f.children);
                bump totals f.name dur;
                (match rest with p :: _ -> p.children <- p.children +. dur | [] -> ());
                rest
          in
          Hashtbl.replace stacks e.tid (close stack))
    events;
  let get tbl key = Option.value ~default:0.0 (Hashtbl.find_opt tbl key) in
  { self = get selfs; total = get totals }

let counter name = float_of_int (Pipeline.counter name)

let fact_counters = [ "facts.propagation"; "facts.xl"; "facts.elimlin"; "facts.sat"; "facts.groebner" ]

let final_count name = float_of_int (Option.value ~default:0 (Hashtbl.find_opt Pipeline.final_counts name))

(* Additive quantities of one traced pass; [misses] are the daemon's
   (client latency, reply wall_s) pairs, [hits] its cache-hit latencies. *)
let profile ~misses ~hits =
  let spans = of_events (Obs.Trace.events ()) in
  let self = spans.self in
  let sat name = counter name -. final_count name in
  let miss_latency = List.map fst misses in
  [
    ("anf_prop.self_s", self "anf_prop");
    ("elimlin.self_s", self "elimlin");
    ("elimlin.substitutions", counter "elimlin.substitutions");
    ("xl.self_s", self "xl");
    ("linearize.self_s", self "linearize");
    ("gf2.gje_s", self "gf2");
    ("xl.expanded_rows", counter "xl.expanded_rows");
    ("xl.facts", counter "xl.facts");
    ("anf_to_cnf.round_s", self "anf_to_cnf.round");
    ("anf_to_cnf.emit_s", self "anf_to_cnf.emit");
    ("sat.solve_s", self "sat");
    ("sat.conflicts", sat "sat.conflicts");
    ("sat.propagations", sat "sat.propagations");
    ("sat.parity_propagations", sat "sat.parity_propagations");
    ("sat.parity_conflicts", sat "sat.parity_conflicts");
    ("sat.gauss_rounds", sat "sat.gauss_rounds");
    ("final_solve.wall_s", self "final_solve");
    ("final_solve.conflicts", final_count "sat.conflicts");
    ("cnf_to_anf.self_s", self "cnf_to_anf");
    ("gc.minor_words", Pipeline.gc.Pipeline.minor);
    ("gc.major_words", Pipeline.gc.Pipeline.major);
    ("gc.major_collections", float_of_int Pipeline.gc.Pipeline.collections);
    ("service.self_s", self "service");
    ("service.overhead_s.p50", Stats.median (List.map (fun (l, w) -> l -. w) misses));
    ("service.solve_s.p50", Stats.median (List.map snd misses));
    ("service.hit_latency_s.p50", Stats.median hits);
    ("service.miss_latency_s.tail", match Stats.tail miss_latency with Some (v, _) -> v | None -> 0.0);
    ("service.requests", counter "service.requests");
    ("service.cache_hits", counter "service.cache_hits");
    ("service.session_reuses", counter "service.session_reuses");
    ("service.degraded", counter "service.degraded");
    ("driver.unattributed_s", self "unattributed");
  ]
  @ List.map (fun c -> (c, counter c)) fact_counters
  @ [ ("driver.run_s", List.fold_left (fun a n -> a +. spans.total n) 0.0 [ "bench.driver_run"; "bench.run_cnf"; "service.request" ]) ]

(* The per-layer metrics of a traced run: means over its traced passes,
   ratios formed from those means. *)
let per_layer ~profiles ~untraced_walls ~traced_walls =
  let n = float_of_int (List.length profiles) in
  let mean name = Stats.sum (List.map (fun p -> List.assoc name p) profiles) /. n in
  let r = Stats.ratio in
  let facts = List.map mean fact_counters in
  let u = Stats.median untraced_walls in
  [
    ("anf_prop.self_s", mean "anf_prop.self_s", "s", "lower");
    ("elimlin.self_s", mean "elimlin.self_s", "s", "lower");
    ("elimlin.substitutions", mean "elimlin.substitutions", "count", "lower");
    ("elimlin.subs_per_s", r (mean "elimlin.substitutions") (mean "elimlin.self_s"), "1/s", "higher");
    ("xl.self_s", mean "xl.self_s", "s", "lower");
    ("linearize.self_s", mean "linearize.self_s", "s", "lower");
    ("gf2.gje_s", mean "gf2.gje_s", "s", "lower");
    ("xl.expanded_rows", mean "xl.expanded_rows", "count", "lower");
    ("xl.yield", r (mean "xl.facts") (mean "xl.expanded_rows"), "ratio", "higher");
    ("anf_to_cnf.round_s", mean "anf_to_cnf.round_s", "s", "lower");
    ("anf_to_cnf.emit_s", mean "anf_to_cnf.emit_s", "s", "lower");
    ("sat.solve_s", mean "sat.solve_s", "s", "lower");
    ("sat.conflicts", mean "sat.conflicts", "count", "lower");
    ("sat.propagations", mean "sat.propagations", "count", "lower");
    ("sat.props_per_s", r (mean "sat.propagations") (mean "sat.solve_s"), "1/s", "higher");
    ("sat.parity_propagations", mean "sat.parity_propagations", "count", "higher");
    ("sat.parity_conflicts", mean "sat.parity_conflicts", "count", "higher");
    ("sat.parity_share", r (mean "sat.parity_propagations") (mean "sat.propagations"), "ratio", "higher");
    ("sat.gauss_rounds", mean "sat.gauss_rounds", "count", "lower");
    ("final_solve.wall_s", mean "final_solve.wall_s", "s", "lower");
    ("final_solve.conflicts", mean "final_solve.conflicts", "count", "lower");
    ("cnf_to_anf.self_s", mean "cnf_to_anf.self_s", "s", "lower");
    ("facts.total", Stats.sum facts, "count", "higher");
    ("facts.propagation", List.nth facts 0, "count", "higher");
    ("facts.xl", List.nth facts 1, "count", "higher");
    ("facts.elimlin", List.nth facts 2, "count", "higher");
    ("facts.sat", List.nth facts 3, "count", "higher");
    ("facts.sat_per_kconflict", r (1000.0 *. List.nth facts 3) (mean "sat.conflicts"), "ratio", "higher");
    ("gc.minor_words", mean "gc.minor_words", "words", "lower");
    ("gc.major_words", mean "gc.major_words", "words", "lower");
    ("gc.major_collections", mean "gc.major_collections", "count", "lower");
    ("service.self_s", mean "service.self_s", "s", "lower");
    ("service.overhead_s.p50", mean "service.overhead_s.p50", "s", "lower");
    ("service.solve_s.p50", mean "service.solve_s.p50", "s", "lower");
    ("service.hit_latency_s.p50", mean "service.hit_latency_s.p50", "s", "lower");
    ("service.miss_latency_s.tail", mean "service.miss_latency_s.tail", "s", "lower");
    ("service.cache_hit_ratio", r (mean "service.cache_hits") (mean "service.requests"), "ratio", "higher");
    ("service.session_reuses", mean "service.session_reuses", "count", "higher");
    ("service.degraded", mean "service.degraded", "count", "lower");
    ("driver.unattributed_s", mean "driver.unattributed_s", "s", "lower");
    ("driver.unattributed_frac", r (mean "driver.unattributed_s") (mean "driver.run_s"), "ratio", "lower");
    ("trace.overhead_frac", r (Stats.median traced_walls -. u) u, "ratio", "lower");
  ]
