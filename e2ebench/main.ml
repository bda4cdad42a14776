(* End-to-end benchmark: time to a checked verdict on seeded workloads.

     e2ebench --workload W --seed N --seconds S --trace 0|1

   A run sets the workload up several times (generation, serialization,
   parsing; daemon start for daemon-mixed) and reports the median set-up
   time, then repeats passes over the same inputs until S seconds have
   gone and reports medians over passes.  With --trace 0 it prints the
   end-to-end metrics; with --trace 1 it alternates untraced and traced
   passes and prints the per-layer metrics of the traced ones.  The
   program's [Obs.Metrics] counters stay on in every pass (the per-pass
   work counters come from them); span tracing is on only in traced
   passes.  A report goes to stdout first; the last line is one JSON
   object. *)

let setup_reps = 11

let now = Unix.gettimeofday

type setup = { insts : Instances.instance array; texts : string array; secs : float; digest : string }

let setup workload seed =
  let t0 = now () in
  let specs = Instances.generate workload seed in
  let insts = Array.of_list (List.map Instances.parse specs) in
  let daemon = if workload = "daemon-mixed" then Some (Service_load.start_daemon ()) else None in
  let secs = now () -. t0 in
  Option.iter Service.Daemon.stop daemon;
  let texts = Array.of_list (List.map (fun sp -> Instances.raw sp.Instances.text) specs) in
  { insts; texts; secs; digest = Instances.digest specs }

let run_pass workload insts texts =
  if workload = "daemon-mixed" then Service_load.pass insts texts
  else
    let t0 = now () in
    let samples = Array.to_list (Array.mapi Pipeline.run insts) in
    (samples, now () -. t0)

(* ---- end-to-end metrics --------------------------------------------- *)

(* Per-instance time: the median over passes (first sends only for the
   daemon, whose second sends are cache hits).  The verdict percentiles
   are taken over these medians, so a burst of host load that slows a
   minority of passes does not reach them. *)
let per_instance samples =
  let by = Hashtbl.create 64 in
  List.iter
    (fun (s : Pipeline.sample) -> if not s.hit then Hashtbl.replace by s.inst (s.time_s :: Option.value ~default:[] (Hashtbl.find_opt by s.inst)))
    samples;
  Hashtbl.fold (fun _ ts acc -> Stats.median ts :: acc) by []

let peak_rss_mb () =
  try
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec scan () =
          match input_line ic with
          | line when String.starts_with ~prefix:"VmHWM:" line ->
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f" (fun kb -> kb /. 1024.0)
          | _ -> scan ()
        in
        scan ())
  with Sys_error _ | End_of_file | Scanf.Scan_failure _ | Failure _ -> 0.0

let end_to_end ~setup_s ~samples ~passes ~walls ~rss_mb =
  let times = per_instance samples in
  let n = float_of_int (List.length samples) in
  let solved = List.length (List.filter (fun (s : Pipeline.sample) -> s.verdict = Pipeline.Solved) samples) in
  let per_pass = n /. float_of_int passes in
  [
    ("setup_s", setup_s, "s");
    ("wall_s", Stats.median walls, "s");
    ("verdict_s.p50", Stats.median times, "s");
    ("verdict_s.p90", Stats.quantile 0.9 times, "s");
    ("solved_frac", Stats.ratio (float_of_int solved) n, "frac");
    ("rps", Stats.ratio per_pass (Stats.median walls), "1/s");
    ("peak_rss_mb", rss_mb, "MB");
  ]

(* ---- output ---------------------------------------------------------- *)

let json_float x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let json_result ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_float v) unit)
          metrics))

let env_or name default = match Sys.getenv_opt name with Some v when v <> "" -> v | _ -> default

let print_provenance ~workload ~seed ~trace ~digest ~n_inst =
  Printf.printf "# e2ebench workload=%s seed=%d trace=%d instances=%d inputs_md5=%s\n" workload seed trace n_inst digest;
  Printf.printf "# host nproc=%s recommended_domain_count=%d ocaml=%s commit=%s\n"
    (env_or "E2EBENCH_NPROC" "unknown") (Domain.recommended_domain_count ()) Sys.ocaml_version
    (env_or "E2EBENCH_COMMIT" "unknown");
  Printf.printf "# config gauss=%s gauss_threshold=%d jobs=%d final_solve=%s conflict_budget=%d\n"
    (match Pipeline.config.Bosphorus.Config.gauss with
    | Bosphorus.Config.Gauss_auto -> "auto"
    | Bosphorus.Config.Gauss_on -> "on"
    | Bosphorus.Config.Gauss_off -> "off")
    Pipeline.config.Bosphorus.Config.gauss_threshold Pipeline.config.Bosphorus.Config.jobs
    (Sat.Profiles.name Pipeline.final_profile) Pipeline.final_budget

let print_metrics metrics = List.iter (fun (name, v, unit) -> Printf.printf "%-28s %14.6g %s\n" name v unit) metrics

(* client-observed latencies, misses and hits apart: a median over the
   bimodal mix would not repeat *)
let daemon_report samples =
  let lat hit = List.filter_map (fun (s : Pipeline.sample) -> if s.hit = hit then Some s.time_s else None) samples in
  let misses = lat false and hits = lat true in
  Printf.printf "# miss_latency_s.p50=%g (n=%d) hit_latency_s.p50=%g (n=%d)\n" (Stats.median misses)
    (List.length misses) (Stats.median hits) (List.length hits);
  match Stats.tail misses with
  | Some (v, pct) -> Printf.printf "# miss_latency_s.tail=%g (p%.1f of %d)\n" v pct (List.length misses)
  | None -> Printf.printf "# miss_latency_s.tail: fewer than 11 misses\n"

let main ~workload ~seed ~seconds ~trace =
  Obs.Metrics.set_enabled true;
  (* only the first set-up's inputs are kept: holding all of them would
     raise the peak RSS with every repetition *)
  let first = setup workload seed in
  let repeats = List.init (setup_reps - 1) (fun _ -> let s = setup workload seed in (s.secs, s.digest)) in
  let digest_mismatch = List.exists (fun (_, d) -> d <> first.digest) repeats in
  let setup_s = Stats.median (first.secs :: List.map fst repeats) in
  let insts = first.insts and texts = first.texts in
  print_provenance ~workload ~seed ~trace:(Bool.to_int trace) ~digest:first.digest ~n_inst:(Array.length insts);
  let deadline = now () +. float_of_int seconds in
  let samples = ref [] and walls = ref [] and traced_walls = ref [] and profiles = ref [] in
  let counters0 = List.map (fun c -> (c, Pipeline.counter c)) [ "sat.conflicts"; "elimlin.substitutions" ] in
  let facts0 = Stats.sum (List.map Layers.counter Layers.fact_counters) in
  let cpu0 = Harness.Timing.process_cpu () in
  (* peak RSS after set-up and the first pass: later daemon-mixed passes
     start new daemons and keep raising it, so a whole-run peak would
     depend on how many passes the host's speed fits in the run *)
  let rss_mb = ref 0.0 in
  let rec loop i =
    let traced = trace && i mod 2 = 1 in
    if traced then begin
      Obs.Trace.reset ();
      Obs.Metrics.reset ();
      Pipeline.reset_ledgers ();
      Obs.Trace.set_enabled true
    end;
    let pass_samples, wall = run_pass workload insts texts in
    Obs.Trace.set_enabled false;
    if i = 0 then rss_mb := peak_rss_mb ();
    samples := pass_samples @ !samples;
    if traced then begin
      traced_walls := wall :: !traced_walls;
      let misses, hits =
        if workload = "daemon-mixed" then
          ( List.filter_map (fun (s : Pipeline.sample) -> if s.hit then None else Some (s.time_s, s.reply_wall)) pass_samples,
            List.filter_map (fun (s : Pipeline.sample) -> if s.hit then Some s.time_s else None) pass_samples )
        else ([], [])
      in
      profiles := Layers.profile ~misses ~hits :: !profiles
    end
    else walls := wall :: !walls;
    (* another pass only if it should end less than half a pass past the
       deadline, so a run lasts about [seconds] *)
    let typical = Stats.median (!walls @ !traced_walls) in
    let enough = (not trace) || i >= 1 in
    if not (enough && now () +. (typical /. 2.0) >= deadline) then loop (i + 1)
  in
  loop 0;
  (* process CPU next to wall time: a gap between them on a
     single-domain workload means the host did not give us the CPU *)
  let cpu_per_pass = (Harness.Timing.process_cpu () -. cpu0) /. float_of_int (List.length !walls + List.length !traced_walls) in
  let samples = !samples in
  let attempted = List.length samples in
  let failures = List.filter_map (fun (s : Pipeline.sample) -> match s.verdict with Pipeline.Failed m -> Some m | _ -> None) samples in
  let failed = List.length failures + if digest_mismatch then 1 else 0 in
  let e2e =
    end_to_end ~setup_s ~samples ~passes:(List.length !walls + List.length !traced_walls) ~walls:!walls ~rss_mb:!rss_mb
  in
  Printf.printf "# passes untraced=%d traced=%d cpu_s_per_pass=%.3f samples=%d failed=%d failed_frac=%g digest_repeats=%b\n"
    (List.length !walls) (List.length !traced_walls) cpu_per_pass attempted failed
    (Stats.ratio (float_of_int failed) (float_of_int attempted))
    (not digest_mismatch);
  Printf.printf "# pass walls untraced: %s\n" (String.concat " " (List.rev_map (Printf.sprintf "%.3f") !walls));
  if trace then
    Printf.printf "# pass walls traced: %s; spans dropped: %d\n"
      (String.concat " " (List.rev_map (Printf.sprintf "%.3f") !traced_walls))
      (Obs.Trace.dropped ());
  List.iter (fun m -> Printf.printf "# failure: %s\n" m) (List.sort_uniq String.compare failures);
  Array.iteri
    (fun i inst ->
      let ts = List.filter_map (fun (s : Pipeline.sample) -> if s.inst = i && not s.hit then Some s.time_s else None) samples in
      Printf.printf "# instance %-18s median_s=%.4f runs=%d\n" inst.Instances.iname (Stats.median ts) (List.length ts))
    insts;
  if not trace then begin
    (* deterministic work counters per pass: a wall-time change with equal
       counters is a speed change, not a change in the work done *)
    let passes = float_of_int (List.length !walls) in
    List.iter
      (fun (c, v0) -> Printf.printf "# per pass %s=%g\n" c (float_of_int (Pipeline.counter c - v0) /. passes))
      counters0;
    Printf.printf "# per pass facts.total=%g\n"
      ((Stats.sum (List.map Layers.counter Layers.fact_counters) -. facts0) /. passes)
  end;
  let times = per_instance samples in
  Printf.printf "# verdict_s.p50 and .p90 over %d per-instance medians (%d beyond p90); verdict_s.max=%g\n"
    (List.length times)
    (List.length (List.filter (fun t -> t > Stats.quantile 0.9 times) times))
    (Stats.max_of times);
  if workload = "daemon-mixed" then daemon_report samples;
  let metrics =
    if trace then
      List.map (fun (n, v, u, _) -> (n, v, u))
        (Layers.per_layer ~profiles:!profiles ~untraced_walls:!walls ~traced_walls:!traced_walls)
    else e2e
  in
  print_metrics e2e;
  if trace then print_metrics metrics;
  print_endline (json_result ~correct:(failed = 0) ~attempted ~failed metrics)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat " | " Instances.workloads);
      ("--seed", Arg.Set_int seed, " non-negative workload seed");
      ("--seconds", Arg.Set_int seconds, " how long to measure (>= 1)");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
    ]
  in
  let usage = "e2ebench --workload W --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if not (List.mem !workload Instances.workloads && !seed >= 0 && !seconds >= 1 && (!trace = 0 || !trace = 1)) then begin
    Arg.usage spec usage;
    exit 2
  end;
  main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
