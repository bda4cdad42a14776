(** Wire protocol of the solve daemon: 4-byte big-endian length-prefixed
    JSON frames over a Unix-domain socket.

    One frame carries one JSON document.  The framing layer never trusts
    the peer: a length above [max_len] is drained from the socket and
    reported as [`Oversized] (the connection stays synchronised and
    usable), a short read is [`Eof], and a frame that fails to decode
    produces a structured {!response.Error_reply} from the daemon — by
    design no byte sequence a client can send terminates the daemon.

    The codec maps requests/responses to {!Harness.Json_out.Value.t}
    (written by {!Harness.Json_out}, read back by {!Harness.Json_in}),
    so both sides share the repo's single JSON implementation. *)

(** {1 Requests} *)

type format = Anf | Cnf

type submit = {
  client : string;  (** fair-share identity; "" is a valid client *)
  format : format;
  text : string;  (** the instance, in ANF text or DIMACS *)
  wait : bool;
      (** [true]: the reply is the final {!Result}; [false]: an
          {!Accepted} ticket to poll with {!Status} *)
  limits : Harness.Budget.limits;
      (** requested ceilings; the daemon clamps them under the per-client
          fair-share slice *)
}

type request =
  | Submit of submit
  | Status of int
  | Cancel of int
  | Stats
  | Shutdown

(** {1 Responses} *)

type trip_info = { trip_kind : string; trip_layer : string; trip_detail : string }

(** What a finished job looked like, flattened for the wire.  [facts]
    pairs each learnt fact's origin name with its polynomial text. *)
type summary = {
  status : string;  (** "sat" | "unsat" | "processed" | "degraded" *)
  model : (int * bool) list option;
  facts : (string * string) list;
  iterations : int;
  sat_calls : int;
  wall_s : float;
  cache_hit : bool;
  reused_polys : int;
      (** polynomials the incremental encoder skipped as already encoded *)
  trip : trip_info option;
}

type response =
  | Accepted of int  (** job id *)
  | Result of int * summary
  | Job_status of int * string * summary option
      (** id, state ("queued"|"running"|"done"|"failed"|"cancelled"),
          summary when done *)
  | Stats_reply of (string * float) list
  | Error_reply of { code : string; message : string }
      (** codes: "malformed", "oversized", "bad-request", "parse",
          "unknown-job", "cancelled", "failed", "internal" *)
  | Bye

(** Flatten a driver outcome. *)
val summary_of_outcome :
  wall_s:float -> cache_hit:bool -> Bosphorus.Driver.outcome -> summary

(** {1 Framing} *)

val default_max_frame : int  (** 8 MiB *)

(** [read_frame ?max_len fd] reads one length-prefixed frame.
    [`Oversized n] means a header announced [n > max_len] bytes; the
    payload has been drained and the next frame can be read.  [`Eof]
    covers both a clean close and a truncated frame. *)
val read_frame :
  ?max_len:int -> Unix.file_descr -> [ `Frame of string | `Eof | `Oversized of int ]

val write_frame : Unix.file_descr -> string -> unit

(** {1 Codec} *)

val encode_request : request -> string
val decode_request : string -> (request, string) result
val encode_response : response -> string
val decode_response : string -> (response, string) result
