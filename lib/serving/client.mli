(** Blocking client for the [mrsl serve] protocol.

    One connection, synchronous line-at-a-time I/O — the scripting and
    testing counterpart of the nonblocking server. {!send} and {!recv}
    are split (rather than fused into one RPC call) so tests and
    benches can pipeline: write a burst of requests, then read the
    burst of responses — which is exactly what makes the server batch
    them into one engine call.

    {2 Resilience}

    Every receive honors the connection's [timeout]: a dead, wedged, or
    maliciously silent server surfaces as {!Timeout} instead of a
    process blocked in a read forever. {!connect_retry} backs off
    exponentially with deterministic jitter ({!backoff_delay}), and
    {!rpc_retry} re-sends {e idempotent} requests (ping / stats /
    infer — the answer is a pure function of model and tuple) across a
    reconnect with the same backoff; [reload] and [shutdown] are never
    blindly re-sent, because a mid-flight death leaves their effect
    unknown. *)

type t

exception Timeout
(** A receive exceeded the connection's [timeout] budget. *)

val connect : ?timeout:float -> Protocol.endpoint -> t
(** Raises [Unix.Unix_error] when nobody is listening. [timeout]
    (seconds, default none) bounds every subsequent receive operation
    on the connection. Installs the [SIGPIPE]-ignore disposition, so a
    send to a vanished server raises [EPIPE] instead of killing the
    process. *)

val connect_retry :
  ?attempts:int ->
  ?delay:float ->
  ?max_delay:float ->
  ?seed:int ->
  ?timeout:float ->
  Protocol.endpoint ->
  t
(** Retry [connect] up to [attempts] (default 100) times — for racing a
    server that is still binding its socket. Sleeps
    [backoff_delay ~base:delay ~max_delay ~seed attempt] between tries:
    exponential from [delay] (default 0.05 s) capped at [max_delay]
    (default 1 s), jittered deterministically from [seed]. Re-raises
    the last error. *)

val backoff_delay :
  ?base:float -> ?max_delay:float -> ?seed:int -> int -> float
(** [backoff_delay attempt] — the sleep before retry [attempt]
    (0-based): [min max_delay (base * 2^attempt)] scaled into its upper
    half by a deterministic uniform draw
    ({!Mrsl.Fault_inject.unit_float} on a client-reserved site), so
    retry herds spread out but tests stay reproducible. *)

val close : t -> unit

val send : t -> Protocol.request -> unit
(** Write one encoded request line (handles short writes). *)

val send_raw : t -> string -> unit
(** Write an arbitrary line (plus ["\n"] unless already terminated) —
    for driving the server with malformed input. *)

val send_partial : t -> string -> unit
(** Write bytes verbatim, {e no} newline appended — for half-frame /
    slow-loris traffic in tests and the chaos harness. *)

val recv : t -> string
(** Read one response line (without the terminator), buffering in 4 KiB
    chunks. Raises [End_of_file] when the server closed the connection,
    {!Timeout} when the connection's [timeout] budget elapses first. *)

val rpc : t -> Protocol.request -> string
(** [send] then [recv]. *)

val stats_json : t -> Mrsl.Telemetry.Json.t
(** Issue a [stats] request and return the parsed response object —
    including the daemon's live per-phase latency breakdown under
    ["phases"] (queue-wait / compute / flush-wait / total, each with
    count and p50/p99/max in milliseconds), which backs
    [mrsl client profile]. Raises [Failure] when the response is not an
    [ok:true] JSON object, or nests deeper than {!Protocol.max_depth}
    (refused before the parser descends past the bound). *)

val rpc_retry :
  ?attempts:int ->
  ?delay:float ->
  ?max_delay:float ->
  ?seed:int ->
  t ->
  Protocol.request ->
  string
(** [rpc] with an idempotent-retry budget: on [End_of_file], {!Timeout}
    or [Unix_error], sleep {!backoff_delay}, reconnect (dropping any
    half-read response so a retry can never consume a stale line), and
    re-send — up to [attempts] (default 3) total tries. Non-idempotent
    requests ([reload] / [shutdown]) get exactly one try; their
    failures re-raise immediately. *)

val scrape_metrics : ?timeout:float -> Protocol.endpoint -> string
(** Open a fresh connection, issue [GET /metrics HTTP/1.0], and return
    the response {e body} (the Prometheus exposition), reading in 4 KiB
    chunks. Raises [Failure] on a non-200 status, {!Timeout} under
    [timeout]. *)
