(* daemon-mixed: an embedded solve daemon driven by closed-loop clients,
   each waiting for its reply before sending the next request.  Every
   distinct instance is submitted twice by the same client: the first
   send is solved and stored in the daemon's cache (a miss), the second
   is answered from it (a hit).  One daemon serves one pass, so every
   pass starts from an empty cache. *)

(* One worker domain: with two, a pass needs both cores of a two-core
   host and its times follow whatever else the host runs (five seeds
   spread 20-25% in wall_s, against 7-10% with one).  Two clients keep
   that worker saturated, so each miss also waits for the other client's
   miss, while hits are answered by the connection threads. *)
let workers = 1

let clients = 2

(* relative to the working directory, which keeps the socket inside the
   checkout and its path short *)
let socket_path () = Printf.sprintf ".e2ebench-%d.sock" (Unix.getpid ())

let start_daemon () =
  Service.Daemon.start { (Service.Daemon.default_config ~socket_path:(socket_path ())) with workers }

let check (inst : Instances.instance) = function
  | Error msg -> (0.0, false, Pipeline.Failed ("transport: " ^ msg))
  | Ok (Service.Protocol.Result (_, s)) ->
      let verdict =
        match (s.Service.Protocol.status, s.Service.Protocol.model) with
        | "sat", Some m -> Pipeline.check_sat inst (Pipeline.lookup_list m)
        | "sat", None -> Pipeline.Failed "sat reply without a model"
        | "unsat", _ -> Pipeline.check_unsat inst
        | _ -> Pipeline.Unsolved
      in
      (s.Service.Protocol.wall_s, s.Service.Protocol.cache_hit, verdict)
  | Ok (Service.Protocol.Error_reply { code; message }) -> (0.0, false, Pipeline.Failed (code ^ ": " ^ message))
  | Ok _ -> (0.0, false, Pipeline.Failed "unexpected reply")

(* Clients are threads of the main domain: they spend their time blocked
   on the socket, and more domains than cores would slow the daemon's own
   stop-the-world collections. *)
let client_loop path (insts : Instances.instance array) (texts : string array) c out =
  try
    let conn = Service.Client.connect path in
    Fun.protect
      ~finally:(fun () -> Service.Client.close conn)
      (fun () ->
      Array.iteri
        (fun i text ->
          if i mod clients = c then
            for _ = 1 to 2 do
              let t0 = Unix.gettimeofday () in
              let reply =
                Service.Client.submit conn ~client:(Printf.sprintf "client-%d" c) ~format:Service.Protocol.Anf text
              in
              let latency = Unix.gettimeofday () -. t0 in
              let reply_wall, hit, verdict = check insts.(i) reply in
              out := { Pipeline.inst = i; time_s = latency; reply_wall; hit; verdict } :: !out
            done)
        texts)
  with e ->
    (* a client that dies fails the run; it must not vanish silently *)
    let failed = Pipeline.Failed ("client: " ^ Printexc.to_string e) in
    out := { Pipeline.inst = -1; time_s = 0.0; reply_wall = 0.0; hit = false; verdict = failed } :: !out

(* One pass over every instance; returns the requests and the pass wall
   time (daemon start and stop excluded).  [Driver.run] runs on the
   daemon's worker domain, so the GC ledger takes the whole process
   around the pass, daemon stop (and so worker exit) included. *)
let pass insts texts =
  let g0 = Gc.quick_stat () in
  let daemon = start_daemon () in
  let result =
    Fun.protect
      ~finally:(fun () -> Service.Daemon.stop daemon)
      (fun () ->
        let path = Service.Daemon.socket_path daemon in
        let t0 = Unix.gettimeofday () in
        let outs = List.init clients (fun _ -> ref []) in
        let threads = List.mapi (fun c out -> Thread.create (client_loop path insts texts c) out) outs in
        List.iter Thread.join threads;
        (List.concat_map ( ! ) outs, Unix.gettimeofday () -. t0))
  in
  let g1 = Gc.quick_stat () in
  let gc = Pipeline.gc in
  gc.Pipeline.minor <- gc.Pipeline.minor +. g1.Gc.minor_words -. g0.Gc.minor_words;
  gc.Pipeline.major <- gc.Pipeline.major +. g1.Gc.major_words -. g0.Gc.major_words;
  gc.Pipeline.collections <- gc.Pipeline.collections + g1.Gc.major_collections - g0.Gc.major_collections;
  result
