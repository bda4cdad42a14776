module V = Harness.Json_out.Value
module J = Harness.Json_in

type format = Anf | Cnf

type submit = {
  client : string;
  format : format;
  text : string;
  wait : bool;
  limits : Harness.Budget.limits;
}

type request =
  | Submit of submit
  | Status of int
  | Cancel of int
  | Stats
  | Shutdown

type trip_info = { trip_kind : string; trip_layer : string; trip_detail : string }

type summary = {
  status : string;
  model : (int * bool) list option;
  facts : (string * string) list;
  iterations : int;
  sat_calls : int;
  wall_s : float;
  cache_hit : bool;
  reused_polys : int;
  trip : trip_info option;
}

let summary_of_outcome ~wall_s ~cache_hit (o : Bosphorus.Driver.outcome) =
  let status, model =
    match o.Bosphorus.Driver.status with
    | Bosphorus.Driver.Solved_sat m -> ("sat", Some m)
    | Bosphorus.Driver.Solved_unsat -> ("unsat", None)
    | Bosphorus.Driver.Processed -> ("processed", None)
    | Bosphorus.Driver.Degraded -> ("degraded", None)
  in
  let facts =
    List.map
      (fun (origin, p) ->
        (Bosphorus.Facts.origin_name origin, Anf.Poly.to_string p))
      (Bosphorus.Facts.to_list o.facts)
  in
  let reused_polys =
    List.fold_left
      (fun acc r -> acc + r.Bosphorus.Driver.round_reused)
      0 o.sat_rounds
  in
  let trip =
    match o.budget_report with
    | None -> None
    | Some r -> (
        match r.Harness.Budget.trip with
        | None -> None
        | Some t ->
            Some
              {
                trip_kind = Harness.Budget.kind_name t.Harness.Budget.kind;
                trip_layer = t.layer;
                trip_detail = t.detail;
              })
  in
  {
    status;
    model;
    facts;
    iterations = o.iterations;
    sat_calls = o.sat_calls;
    wall_s;
    cache_hit;
    reused_polys;
    trip;
  }

(* ------------------------------------------------------------------ *)
(* framing                                                             *)
(* ------------------------------------------------------------------ *)

let default_max_frame = 8 * 1024 * 1024

(* EINTR-retrying exact read into [buf.[off..off+len)]; [false] on EOF.
   The loop allocates nothing: both the header and payload buffers are
   created once per frame by the caller. *)
let rec read_exact fd buf off len =
  if len = 0 then true
  else
    match Unix.read fd buf off len with
    | 0 -> false
    | n -> read_exact fd buf (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_exact fd buf off len

let rec write_all fd buf off len =
  if len > 0 then
    match Unix.write fd buf off len with
    | n -> write_all fd buf (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd buf off len

let get_u32 b =
  (Bytes.get_uint8 b 0 lsl 24)
  lor (Bytes.get_uint8 b 1 lsl 16)
  lor (Bytes.get_uint8 b 2 lsl 8)
  lor Bytes.get_uint8 b 3

let put_u32 b n =
  Bytes.set_uint8 b 0 ((n lsr 24) land 0xff);
  Bytes.set_uint8 b 1 ((n lsr 16) land 0xff);
  Bytes.set_uint8 b 2 ((n lsr 8) land 0xff);
  Bytes.set_uint8 b 3 (n land 0xff)

(* Swallow [n] announced-but-refused payload bytes so the stream stays
   frame-synchronised after an oversized header. *)
let drain fd n =
  let chunk = Bytes.create (min n 65536) in
  let rec go n =
    if n > 0 then begin
      let want = min n (Bytes.length chunk) in
      match Unix.read fd chunk 0 want with
      | 0 -> ()
      | k -> go (n - k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go n
    end
  in
  go n

let read_frame ?(max_len = default_max_frame) fd =
  let hdr = Bytes.create 4 in
  if not (read_exact fd hdr 0 4) then `Eof
  else
    let len = get_u32 hdr in
    if len > max_len then begin
      drain fd len;
      `Oversized len
    end
    else
      let payload = Bytes.create len in
      if not (read_exact fd payload 0 len) then `Eof
      else `Frame (Bytes.unsafe_to_string payload)

let write_frame fd s =
  let len = String.length s in
  let buf = Bytes.create (4 + len) in
  put_u32 buf len;
  Bytes.blit_string s 0 buf 4 len;
  write_all fd buf 0 (4 + len)

(* ------------------------------------------------------------------ *)
(* codec                                                               *)
(* ------------------------------------------------------------------ *)

let format_name = function Anf -> "anf" | Cnf -> "cnf"

let format_of_name = function
  | "anf" -> Some Anf
  | "cnf" -> Some Cnf
  | _ -> None

let limits_to_json (l : Harness.Budget.limits) =
  V.Obj
    (List.filter_map
       (fun x -> x)
       [
         Option.map
           (fun s -> ("timeout_s", V.Float s))
           l.Harness.Budget.timeout_s;
         Option.map
           (fun n -> ("max_memory_monomials", V.Int n))
           l.max_memory_monomials;
         Option.map
           (fun n -> ("max_total_conflicts", V.Int n))
           l.max_total_conflicts;
       ])

let limits_of_json v =
  {
    Harness.Budget.timeout_s =
      Option.bind (J.member "timeout_s" v) J.to_float_opt;
    max_memory_monomials =
      Option.bind (J.member "max_memory_monomials" v) J.to_int_opt;
    max_total_conflicts =
      Option.bind (J.member "max_total_conflicts" v) J.to_int_opt;
  }

let encode_request r =
  let obj =
    match r with
    | Submit s ->
        [
          ("op", V.String "submit");
          ("client", V.String s.client);
          ("format", V.String (format_name s.format));
          ("text", V.String s.text);
          ("wait", V.Bool s.wait);
          ("limits", limits_to_json s.limits);
        ]
    | Status id -> [ ("op", V.String "status"); ("job", V.Int id) ]
    | Cancel id -> [ ("op", V.String "cancel"); ("job", V.Int id) ]
    | Stats -> [ ("op", V.String "stats") ]
    | Shutdown -> [ ("op", V.String "shutdown") ]
  in
  V.to_string (V.Obj obj)

let ( let* ) r f = Result.bind r f

let req_field name conv v =
  match Option.bind (J.member name v) conv with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "missing or ill-typed field %S" name)

let decode_request s =
  match J.parse s with
  | exception Harness.Json_in.Parse_error m -> Error ("bad JSON: " ^ m)
  | v -> (
      let* op = req_field "op" J.to_string_opt v in
      match op with
      | "submit" ->
          let* client = req_field "client" J.to_string_opt v in
          let* fmt = req_field "format" J.to_string_opt v in
          let* format =
            match format_of_name fmt with
            | Some f -> Ok f
            | None -> Error (Printf.sprintf "unknown format %S" fmt)
          in
          let* text = req_field "text" J.to_string_opt v in
          let wait =
            Option.value ~default:true
              (Option.bind (J.member "wait" v) J.to_bool_opt)
          in
          let limits =
            match J.member "limits" v with
            | Some lv -> limits_of_json lv
            | None -> Harness.Budget.no_limits
          in
          Ok (Submit { client; format; text; wait; limits })
      | "status" ->
          let* id = req_field "job" J.to_int_opt v in
          Ok (Status id)
      | "cancel" ->
          let* id = req_field "job" J.to_int_opt v in
          Ok (Cancel id)
      | "stats" -> Ok Stats
      | "shutdown" -> Ok Shutdown
      | op -> Error (Printf.sprintf "unknown op %S" op))

let summary_to_json s =
  V.Obj
    [
      ("status", V.String s.status);
      ( "model",
        match s.model with
        | None -> V.Null
        | Some m ->
            V.List
              (List.map (fun (v, b) -> V.List [ V.Int v; V.Bool b ]) m) );
      ( "facts",
        V.List
          (List.map
             (fun (o, p) -> V.List [ V.String o; V.String p ])
             s.facts) );
      ("iterations", V.Int s.iterations);
      ("sat_calls", V.Int s.sat_calls);
      ("wall_s", V.Float s.wall_s);
      ("cache_hit", V.Bool s.cache_hit);
      ("reused_polys", V.Int s.reused_polys);
      ( "trip",
        match s.trip with
        | None -> V.Null
        | Some t ->
            V.Obj
              [
                ("kind", V.String t.trip_kind);
                ("layer", V.String t.trip_layer);
                ("detail", V.String t.trip_detail);
              ] );
    ]

let summary_of_json v =
  let* status = req_field "status" J.to_string_opt v in
  let* model =
    match J.member "model" v with
    | None | Some V.Null -> Ok None
    | Some (V.List items) ->
        let rec go acc = function
          | [] -> Ok (Some (List.rev acc))
          | V.List [ V.Int var; V.Bool b ] :: rest -> go ((var, b) :: acc) rest
          | _ -> Error "ill-formed model entry"
        in
        go [] items
    | Some _ -> Error "ill-typed model"
  in
  let* facts =
    match J.member "facts" v with
    | None -> Ok []
    | Some (V.List items) ->
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | V.List [ V.String o; V.String p ] :: rest -> go ((o, p) :: acc) rest
          | _ -> Error "ill-formed fact entry"
        in
        go [] items
    | Some _ -> Error "ill-typed facts"
  in
  let* iterations = req_field "iterations" J.to_int_opt v in
  let* sat_calls = req_field "sat_calls" J.to_int_opt v in
  let* wall_s = req_field "wall_s" J.to_float_opt v in
  let* cache_hit = req_field "cache_hit" J.to_bool_opt v in
  let* reused_polys = req_field "reused_polys" J.to_int_opt v in
  let* trip =
    match J.member "trip" v with
    | None | Some V.Null -> Ok None
    | Some tv ->
        let* trip_kind = req_field "kind" J.to_string_opt tv in
        let* trip_layer = req_field "layer" J.to_string_opt tv in
        let* trip_detail = req_field "detail" J.to_string_opt tv in
        Ok (Some { trip_kind; trip_layer; trip_detail })
  in
  Ok
    {
      status;
      model;
      facts;
      iterations;
      sat_calls;
      wall_s;
      cache_hit;
      reused_polys;
      trip;
    }

type response =
  | Accepted of int
  | Result of int * summary
  | Job_status of int * string * summary option
  | Stats_reply of (string * float) list
  | Error_reply of { code : string; message : string }
  | Bye

let encode_response r =
  let obj =
    match r with
    | Accepted id ->
        [ ("ok", V.Bool true); ("type", V.String "accepted"); ("job", V.Int id) ]
    | Result (id, s) ->
        [
          ("ok", V.Bool true);
          ("type", V.String "result");
          ("job", V.Int id);
          ("result", summary_to_json s);
        ]
    | Job_status (id, state, s) ->
        [
          ("ok", V.Bool true);
          ("type", V.String "status");
          ("job", V.Int id);
          ("state", V.String state);
          ( "result",
            match s with None -> V.Null | Some s -> summary_to_json s );
        ]
    | Stats_reply kvs ->
        [
          ("ok", V.Bool true);
          ("type", V.String "stats");
          ("stats", V.Obj (List.map (fun (k, x) -> (k, V.Float x)) kvs));
        ]
    | Error_reply { code; message } ->
        [
          ("ok", V.Bool false);
          ("type", V.String "error");
          ("code", V.String code);
          ("message", V.String message);
        ]
    | Bye -> [ ("ok", V.Bool true); ("type", V.String "bye") ]
  in
  V.to_string (V.Obj obj)

let decode_response s =
  match J.parse s with
  | exception Harness.Json_in.Parse_error m -> Error ("bad JSON: " ^ m)
  | v -> (
      let* ty = req_field "type" J.to_string_opt v in
      match ty with
      | "accepted" ->
          let* id = req_field "job" J.to_int_opt v in
          Ok (Accepted id)
      | "result" ->
          let* id = req_field "job" J.to_int_opt v in
          let* sv =
            match J.member "result" v with
            | Some sv -> Ok sv
            | None -> Error "missing result"
          in
          let* s = summary_of_json sv in
          Ok (Result (id, s))
      | "status" ->
          let* id = req_field "job" J.to_int_opt v in
          let* state = req_field "state" J.to_string_opt v in
          let* s =
            match J.member "result" v with
            | None | Some V.Null -> Ok None
            | Some sv ->
                let* s = summary_of_json sv in
                Ok (Some s)
          in
          Ok (Job_status (id, state, s))
      | "stats" -> (
          match J.member "stats" v with
          | Some (V.Obj kvs) ->
              let rec go acc = function
                | [] -> Ok (Stats_reply (List.rev acc))
                | (k, V.Float x) :: rest -> go ((k, x) :: acc) rest
                | (k, V.Int n) :: rest -> go ((k, float_of_int n) :: acc) rest
                | _ -> Error "ill-typed stats entry"
              in
              go [] kvs
          | _ -> Error "missing stats")
      | "error" ->
          let* code = req_field "code" J.to_string_opt v in
          let* message = req_field "message" J.to_string_opt v in
          Ok (Error_reply { code; message })
      | "bye" -> Ok Bye
      | ty -> Error (Printf.sprintf "unknown response type %S" ty))
