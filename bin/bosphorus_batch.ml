(* bosphorus-batch: run a directory of .anf/.cnf instances through the
   solve daemon with bounded client concurrency, and summarise per-request
   results as CSV/JSON.  Doubles as the load generator for the service
   bench and the CI smoke job: --repeat N replays the directory (warm
   passes hit the daemon's encoding cache), --concurrency K races K
   client connections.  With no --socket it embeds a daemon in-process on
   a temporary socket. *)

type row = {
  file : string;
  client : string;
  status : string;  (* summary status, or "error" *)
  wall_s : float;  (* client-observed round-trip *)
  solver_wall_s : float;
  cache_hit : bool;
  trip : string option;
  detail : string;  (* error message when status = "error" *)
}

let is_instance f =
  Filename.check_suffix f ".anf"
  || Filename.check_suffix f ".cnf"
  || Filename.check_suffix f ".dimacs"

let format_of_file f =
  if Filename.check_suffix f ".anf" then Service.Protocol.Anf
  else Service.Protocol.Cnf

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let discover dir =
  match Sys.readdir dir with
  | entries ->
      let files =
        Array.to_list entries |> List.filter is_instance |> List.sort compare
        |> List.map (fun f -> Filename.concat dir f)
      in
      if files = [] then
        Error (`Msg (Printf.sprintf "no .anf/.cnf/.dimacs instances in %s" dir))
      else Ok files
  | exception Sys_error m -> Error (`Msg m)

(* One worker thread: its own connection, drawing from the shared work
   list until empty. *)
let client_thread ~socket ~client_name ~limits ~queue ~queue_m ~rows ~rows_m () =
  let conn = Service.Client.connect socket in
  Fun.protect ~finally:(fun () -> Service.Client.close conn) @@ fun () ->
  let rec loop () =
    let item =
      Mutex.lock queue_m;
      let item =
        match !queue with
        | [] -> None
        | x :: rest ->
            queue := rest;
            Some x
      in
      Mutex.unlock queue_m;
      item
    in
    match item with
    | None -> ()
    | Some (file, text) ->
        let started = Unix.gettimeofday () in
        let reply =
          Service.Client.submit conn ~client:client_name
            ~format:(format_of_file file) ~limits text
        in
        let wall_s = Unix.gettimeofday () -. started in
        let error_row detail =
          {
            file;
            client = client_name;
            status = "error";
            wall_s;
            solver_wall_s = 0.0;
            cache_hit = false;
            trip = None;
            detail;
          }
        in
        let row =
          match reply with
          | Ok (Service.Protocol.Result (_, s)) ->
              {
                file;
                client = client_name;
                status = s.Service.Protocol.status;
                wall_s;
                solver_wall_s = s.Service.Protocol.wall_s;
                cache_hit = s.Service.Protocol.cache_hit;
                trip =
                  Option.map
                    (fun t -> t.Service.Protocol.trip_kind)
                    s.Service.Protocol.trip;
                detail = "";
              }
          | Ok (Service.Protocol.Error_reply { code; message }) ->
              error_row (code ^ ": " ^ message)
          | Ok _ -> error_row "unexpected reply"
          | Error m -> error_row m
        in
        Mutex.lock rows_m;
        rows := row :: !rows;
        Mutex.unlock rows_m;
        loop ()
  in
  loop ()

let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let write_csv path rows =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) @@ fun () ->
  output_string oc
    "file,client,status,wall_s,solver_wall_s,cache_hit,trip,detail\n";
  List.iter
    (fun r ->
      Printf.fprintf oc "%s,%s,%s,%.6f,%.6f,%b,%s,%s\n" (csv_escape r.file)
        (csv_escape r.client) r.status r.wall_s r.solver_wall_s r.cache_hit
        (Option.value ~default:"" r.trip)
        (csv_escape r.detail))
    rows

let json_doc ~dir ~concurrency ~repeat ~wall_s ~daemon_stats rows =
  let module V = Harness.Json_out.Value in
  let n = List.length rows in
  let count p = List.length (List.filter p rows) in
  let ok = count (fun r -> r.status <> "error") in
  V.Obj
    [
      ("dir", V.String dir);
      ("concurrency", V.Int concurrency);
      ("repeat", V.Int repeat);
      ("requests", V.Int n);
      ("ok", V.Int ok);
      ("failed", V.Int (n - ok));
      ("degraded", V.Int (count (fun r -> r.status = "degraded")));
      ("cache_hits", V.Int (count (fun r -> r.cache_hit)));
      ("wall_s", V.Float wall_s);
      ( "rps",
        V.Float (if wall_s > 0.0 then float_of_int n /. wall_s else 0.0) );
      ( "daemon_stats",
        V.Obj (List.map (fun (k, v) -> (k, V.Float v)) daemon_stats) );
      ( "results",
        V.List
          (List.map
             (fun r ->
               V.Obj
                 [
                   ("file", V.String r.file);
                   ("client", V.String r.client);
                   ("status", V.String r.status);
                   ("wall_s", V.Float r.wall_s);
                   ("solver_wall_s", V.Float r.solver_wall_s);
                   ("cache_hit", V.Bool r.cache_hit);
                   ( "trip",
                     match r.trip with
                     | None -> V.Null
                     | Some k -> V.String k );
                   ("detail", V.String r.detail);
                 ])
             rows) );
    ]

let run_batch dir socket_opt concurrency repeat shared_client timeout max_mem
    max_conf workers csv_path json_path metrics_path =
  let ( let* ) = Result.bind in
  let concurrency = Int.max 1 concurrency in
  let repeat = Int.max 1 repeat in
  let* files = discover dir in
  let* instances =
    try Ok (List.map (fun f -> (f, read_file f)) files)
    with Sys_error m -> Error (`Msg m)
  in
  Option.iter
    (fun path ->
      Obs.Metrics.set_enabled true;
      Obs.Sink.register ~key:"metrics" ~path (fun oc ->
          output_string oc (Obs.Metrics.to_json ())))
    metrics_path;
  let limits =
    {
      Harness.Budget.timeout_s = timeout;
      max_memory_monomials = max_mem;
      max_total_conflicts = max_conf;
    }
  in
  (* warm passes replay the directory in order, so pass 2+ of an
     unlimited run should land in the daemon's encoding cache *)
  let work = List.concat (List.init repeat (fun _ -> instances)) in
  let embedded, socket =
    match socket_opt with
    | Some s -> (None, s)
    | None ->
        let path =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "bosphorus-batch-%d.sock" (Unix.getpid ()))
        in
        let cfg =
          {
            (Service.Daemon.default_config ~socket_path:path) with
            workers = (if workers > 0 then workers else concurrency);
          }
        in
        (Some (Service.Daemon.start cfg), path)
  in
  let finish_embedded () = Option.iter Service.Daemon.stop embedded in
  Fun.protect ~finally:finish_embedded @@ fun () ->
  let queue = ref work and queue_m = Mutex.create () in
  let rows = ref [] and rows_m = Mutex.create () in
  let started = Unix.gettimeofday () in
  let threads =
    List.init concurrency (fun i ->
        let client_name =
          match shared_client with
          | Some name -> name
          | None -> Printf.sprintf "batch-%d" i
        in
        Thread.create
          (client_thread ~socket ~client_name ~limits ~queue ~queue_m ~rows
             ~rows_m)
          ())
  in
  List.iter Thread.join threads;
  let wall_s = Unix.gettimeofday () -. started in
  let daemon_stats =
    let conn = Service.Client.connect socket in
    Fun.protect
      ~finally:(fun () -> Service.Client.close conn)
      (fun () ->
        match Service.Client.stats conn with Ok kvs -> kvs | Error _ -> [])
  in
  let rows = List.rev !rows in
  let n = List.length rows in
  let failed = List.length (List.filter (fun r -> r.status = "error") rows) in
  let degraded =
    List.length (List.filter (fun r -> r.status = "degraded") rows)
  in
  let hits = List.length (List.filter (fun r -> r.cache_hit) rows) in
  Format.printf
    "batch: %d requests over %d instance(s) x%d, concurrency %d: %d ok, %d \
     degraded, %d failed, %d cache hits in %.3fs (%.1f rps)@."
    n (List.length files) repeat concurrency (n - failed) degraded failed hits
    wall_s
    (if wall_s > 0.0 then float_of_int n /. wall_s else 0.0);
  Option.iter (fun path -> write_csv path rows) csv_path;
  Option.iter
    (fun path ->
      Harness.Json_out.Value.write path
        (json_doc ~dir ~concurrency ~repeat ~wall_s ~daemon_stats rows))
    json_path;
  Option.iter
    (fun path ->
      Obs.Sink.write_now ~key:"metrics";
      Format.printf "metrics: wrote %s@." path)
    metrics_path;
  if failed > 0 then Error (`Msg (Printf.sprintf "%d request(s) failed" failed))
  else Ok ()

open Cmdliner

let dir_arg =
  Arg.(required & pos 0 (some dir) None
       & info [] ~docv:"DIR" ~doc:"Directory of .anf/.cnf/.dimacs instances.")

let socket_arg =
  Arg.(value & opt (some string) None
       & info [ "socket" ] ~docv:"SOCKET"
           ~doc:"Daemon socket to submit to; without it an in-process \
                 daemon is started on a temporary socket.")

let concurrency_arg =
  Arg.(value & opt int 1
       & info [ "concurrency" ] ~docv:"N"
           ~doc:"Concurrent client connections (each is its own thread).")

let repeat_arg =
  Arg.(value & opt int 1
       & info [ "repeat" ] ~docv:"N"
           ~doc:"Replay the directory N times; warm passes exercise the \
                 encoding cache.")

let client_arg =
  Arg.(value & opt (some string) None
       & info [ "client" ] ~docv:"NAME"
           ~doc:"Submit everything as one client (fair-share tenant); by \
                 default each connection is its own client batch-<i>.")

let timeout_arg =
  Arg.(value & opt (some float) None
       & info [ "timeout" ] ~docv:"SECS" ~doc:"Per-request wall-clock limit.")

let max_mem_arg =
  Arg.(value & opt (some int) None
       & info [ "max-memory-monomials" ] ~docv:"N"
           ~doc:"Per-request memory limit (monomial/clause count).")

let max_conf_arg =
  Arg.(value & opt (some int) None
       & info [ "max-total-conflicts" ] ~docv:"N"
           ~doc:"Per-request cumulative conflict limit.")

let workers_arg =
  Arg.(value & opt int 0
       & info [ "workers" ] ~docv:"N"
           ~doc:"Worker domains of the in-process daemon (default: match \
                 --concurrency); ignored with --socket.")

let csv_arg =
  Arg.(value & opt (some string) None
       & info [ "csv" ] ~docv:"FILE" ~doc:"Write per-request rows as CSV.")

let json_arg =
  Arg.(value & opt (some string) None
       & info [ "json" ] ~docv:"FILE"
           ~doc:"Write the batch summary (incl. daemon stats) as JSON.")

let metrics_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics" ] ~docv:"FILE"
           ~doc:"Write service/solver metrics as JSON (in-process daemon \
                 mode).")

let cmd =
  let doc = "run an instance directory through the solve daemon" in
  let term =
    Term.(
      const run_batch $ dir_arg $ socket_arg $ concurrency_arg $ repeat_arg
      $ client_arg $ timeout_arg $ max_mem_arg $ max_conf_arg $ workers_arg
      $ csv_arg $ json_arg $ metrics_arg)
  in
  Cmd.v (Cmd.info "bosphorus-batch" ~doc) Term.(term_result term)

let () = exit (Cmd.eval cmd)
