(** Wire protocol of the [mrsl serve] daemon: line-delimited JSON.

    Every request and every response is one compact JSON object on one
    line ([\n]-terminated; string escapes keep payloads newline-free).
    Requests carry an optional caller-chosen ["id"] that the matching
    response echoes verbatim, so a pipelining client can correlate
    responses with requests without counting lines.

    {2 Requests}

    {v
    {"id": 7, "op": "infer", "tuple": ["v1", null, "v3"]}
    {"id": 8, "op": "infer", "tuple": [null, "v2"], "deadline_ms": 250}
    {"op": "ping"} | {"op": "stats"} | {"op": "shutdown"}
    {"op": "reload"} | {"op": "reload", "path": "model.mrsl"}
    v}

    [deadline_ms] is an optional per-request latency budget counted
    from admission; a request still queued when its budget expires is
    shed with [serve.deadline_exceeded] instead of being computed.

    [tuple] entries are attribute value {e labels} in schema order;
    [null] (or the CSV missing marker ["?"]) marks a missing value.
    Label decoding happens in {!Engine} against the loaded model's
    schema — the protocol layer is schema-free.

    A connection may also open with an HTTP request line
    ([GET /metrics]); {!Server} answers it with the Prometheus text
    exposition of its telemetry registry and closes. This module only
    recognizes the prefix ({!is_http_get}).

    {2 Responses}

    Success: [{"id": …, "ok": true, "kind": …, …}] — see {!Engine} for
    the per-op payloads. Failure: [{"id": …, "ok": false, "error":
    {"class": …, "code": …, "message": …, "context": {…}}}] carrying a
    structured {!Mrsl.Error.t}; a malformed request yields an error
    response, never a closed connection or a crash. *)

type endpoint = Unix_socket of string | Tcp of string * int
(** Where a server listens / a client connects. *)

val endpoint_to_string : endpoint -> string

type op =
  | Ping
  | Stats
  | Reload of string option  (** [None] = reload the current model path *)
  | Shutdown
  | Infer of string option array
      (** value labels in schema order; [None] = missing *)

type request = {
  id : Mrsl.Telemetry.Json.t option;
  deadline_ms : int option;
      (** client-supplied latency budget, milliseconds from admission;
          [None] = the server's default budget applies *)
  op : op;
}

val req :
  ?id:Mrsl.Telemetry.Json.t -> ?deadline_ms:int -> op -> request
(** Plain constructor, so adding request metadata never churns every
    call site again. *)

val op_name : op -> string
(** The wire name of an op ([ping], [stats], [reload], [shutdown],
    [infer]) — the ["op"] field value; used by the access log. *)

val max_depth : int
(** 8: the deepest nesting of arrays and objects {!parse_request}
    accepts. A request takes two levels (the object and its ["tuple"]
    array), which leaves six for a structured ["id"]. *)

val parse_request : string -> (request, Mrsl.Error.t) result
(** Parse one request line. Malformed JSON, and JSON nested deeper than
    {!max_depth} (refused before the parser descends past the bound, so
    a frame of a million [\[] costs a few bytes of work), come back as
    [Input/protocol.parse]; a structurally valid object with an unknown
    or missing ["op"], a malformed ["tuple"], or a negative or
    non-integer ["deadline_ms"], as [Input/protocol.bad_request]. When
    the broken object still carried an ["id"], it is preserved in the
    error's context under ["id"] (as compact JSON) so the server can
    echo it. *)

val request_to_line : request -> string
(** Encode a request as one newline-terminated line (the client side). *)

val ok_line :
  ?id:Mrsl.Telemetry.Json.t ->
  kind:string ->
  (string * Mrsl.Telemetry.Json.t) list ->
  string
(** [{"id": …, "ok": true, "kind": kind, …fields}] plus trailing
    newline. *)

val error_line : ?id:Mrsl.Telemetry.Json.t -> Mrsl.Error.t -> string
(** [{"id": …, "ok": false, "error": {…}}] plus trailing newline. *)

val is_http_get : string -> bool
(** Whether a first line looks like an HTTP GET request line. *)

val http_metrics_response : string -> string
(** Wrap a Prometheus exposition body in a minimal [HTTP/1.0 200]
    response. *)

val http_not_found_response : string
(** Minimal [HTTP/1.0 404] response for non-[/metrics] GET paths. *)

(** Incremental line framing with an oversize bound.

    Bytes arrive from the socket in arbitrary chunks; {!Framing.feed}
    reassembles newline-terminated frames (CRLF tolerated) and rejects
    any frame that exceeds [max_frame] before its newline arrives — the
    caller answers with [protocol.oversized] and drops the connection
    rather than buffering without bound. *)
module Framing : sig
  type t

  val default_max_frame : int
  (** 1 MiB. *)

  val create : ?max_frame:int -> unit -> t

  val feed : t -> string -> (string list, Mrsl.Error.t) result
  (** Append a chunk; return the newly completed frames, in order,
      without their line terminators. [Error Input/protocol.oversized]
      once the frame under assembly exceeds [max_frame]; the framing
      then stays poisoned (every later feed errors) — close the
      connection. *)

  val pending : t -> int
  (** Bytes of the incomplete frame under assembly — nonzero at EOF
      means the peer truncated a frame mid-line. *)
end
