exception Timeout

(* Received bytes live in [inbuf.[start .. stop)]; no newline occurs in
   [inbuf.[start .. scanned)]. A line is taken by moving [start], and
   each byte is scanned once, so a window of pipelined responses costs
   one pass over its bytes. *)
type t = {
  endpoint : Protocol.endpoint;
  mutable fd : Unix.file_descr;
  mutable inbuf : Bytes.t;
  mutable start : int;
  mutable scanned : int;
  mutable stop : int;
  recv_timeout : float option;
}

(* Site number for the backoff-jitter draws — disjoint from the server's
   injection sites so a shared seed never correlates client jitter with
   server faults. *)
let jitter_site = 32

let backoff_delay ?(base = 0.05) ?(max_delay = 1.0) ?(seed = 0) attempt =
  let exp = base *. (2. ** float_of_int (max 0 attempt)) in
  let capped = Float.min max_delay exp in
  (* Deterministic jitter in [capped/2, capped): breaks retry herds
     without making tests flaky. *)
  let u = Mrsl.Fault_inject.unit_float ~seed ~site:jitter_site ~key:attempt in
  capped *. (0.5 +. (0.5 *. u))

let sockaddr = function
  | Protocol.Unix_socket path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
  | Protocol.Tcp (host, port) ->
      let addr =
        try (Unix.gethostbyname host).h_addr_list.(0)
        with Not_found -> Unix.inet_addr_of_string host
      in
      (Unix.PF_INET, Unix.ADDR_INET (addr, port))

(* See {!Server.ignore_sigpipe}: a send to a server that already dropped
   the connection must surface as EPIPE, not kill the process. *)
let ignore_sigpipe () =
  match Sys.os_type with
  | "Unix" | "Cygwin" -> Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  | _ -> ()

let connect_fd endpoint =
  let domain, addr = sockaddr endpoint in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (match Unix.connect fd addr with
  | () -> ()
  | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e);
  fd

let connect ?timeout endpoint =
  ignore_sigpipe ();
  {
    endpoint;
    fd = connect_fd endpoint;
    inbuf = Bytes.create 8192;
    start = 0;
    scanned = 0;
    stop = 0;
    recv_timeout = timeout;
  }

let connect_retry ?(attempts = 100) ?(delay = 0.05) ?(max_delay = 1.0)
    ?(seed = 0) ?timeout endpoint =
  let rec go n =
    match connect ?timeout endpoint with
    | t -> t
    | exception e ->
        if n >= max 1 attempts then raise e
        else begin
          Unix.sleepf (backoff_delay ~base:delay ~max_delay ~seed (n - 1));
          go (n + 1)
        end
  in
  go 1

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let reconnect t =
  close t;
  t.start <- 0;
  t.scanned <- 0;
  t.stop <- 0;
  t.fd <- connect_fd t.endpoint

let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    match Unix.write_substring fd s !off (len - !off) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | n -> off := !off + n
  done

let send_raw t line =
  let line =
    if String.length line > 0 && line.[String.length line - 1] = '\n' then line
    else line ^ "\n"
  in
  write_all t.fd line

let send t req = send_raw t (Protocol.request_to_line req)
let send_partial t s = write_all t.fd s

(* Take one complete line (without its "\n" or "\r\n") out of the
   receive buffer, or [None]. *)
let take_line t =
  let rec newline i =
    if i >= t.stop then None
    else if Bytes.unsafe_get t.inbuf i = '\n' then Some i
    else newline (i + 1)
  in
  match newline t.scanned with
  | None ->
      t.scanned <- t.stop;
      None
  | Some nl ->
      let stop =
        if nl > t.start && Bytes.get t.inbuf (nl - 1) = '\r' then nl - 1
        else nl
      in
      let line = Bytes.sub_string t.inbuf t.start (stop - t.start) in
      t.start <- nl + 1;
      t.scanned <- nl + 1;
      Some line

let read_chunk_size = 4096

(* Make room for one chunk after [stop]: when the tail is too short,
   move the pending bytes to the front, into a buffer of twice the
   needed size when they would not leave room there either. A byte is
   moved without growing the buffer only after a line before it was
   taken, so a long line costs amortised linear copying. *)
let make_room t =
  if t.stop + read_chunk_size > Bytes.length t.inbuf then begin
    let pending = t.stop - t.start in
    let buf =
      if pending + read_chunk_size <= Bytes.length t.inbuf then t.inbuf
      else Bytes.create (2 * (pending + read_chunk_size))
    in
    Bytes.blit t.inbuf t.start buf 0 pending;
    t.inbuf <- buf;
    t.scanned <- t.scanned - t.start;
    t.start <- 0;
    t.stop <- pending
  end

(* One bounded read into [t.inbuf]; [false] at EOF. Raises [Timeout]
   once [deadline] (monotonic, [infinity] = none) passes — the whole
   point of this client: a dead or stalled server surfaces as a typed
   exception instead of a process blocked in [input_line] forever. *)
let fill ~deadline t =
  let rec wait () =
    let remaining = deadline -. Mrsl.Clock.now () in
    if remaining <= 0. then raise Timeout;
    let tick = if remaining = infinity then -1. else remaining in
    match Unix.select [ t.fd ] [] [] tick with
    | [], _, _ -> raise Timeout
    | _ :: _, _, _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ();
  make_room t;
  let rec read () =
    match Unix.read t.fd t.inbuf t.stop read_chunk_size with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read ()
    | 0 -> false
    | n ->
        t.stop <- t.stop + n;
        true
  in
  read ()

let op_deadline t =
  match t.recv_timeout with
  | None -> infinity
  | Some s -> Mrsl.Clock.now () +. s

let recv t =
  let deadline = op_deadline t in
  let rec go () =
    match take_line t with
    | Some line -> line
    | None -> if fill ~deadline t then go () else raise End_of_file
  in
  go ()

let rpc t req =
  send t req;
  recv t

let stats_json t =
  let line = rpc t (Protocol.req Protocol.Stats) in
  let module Json = Mrsl.Telemetry.Json in
  match Json.of_string ~max_depth:Protocol.max_depth (String.trim line) with
  | exception Json.Parse_error msg ->
      failwith (Printf.sprintf "stats response is not JSON (%s)" msg)
  | Json.Obj _ as obj when Json.member "ok" obj = Some (Json.Bool true) -> obj
  | _ -> failwith (Printf.sprintf "stats failed: %s" (String.trim line))

let idempotent = function
  | Protocol.Ping | Protocol.Stats | Protocol.Infer _ -> true
  | Protocol.Reload _ | Protocol.Shutdown -> false

let rpc_retry ?(attempts = 3) ?(delay = 0.05) ?(max_delay = 1.0) ?(seed = 0) t
    req =
  if not (idempotent req.Protocol.op) then
    (* A reload or shutdown that died mid-flight may or may not have
       been applied — blind re-send could double it. One shot only. *)
    rpc t req
  else begin
    let rec go n =
      match rpc t req with
      | line -> line
      | exception ((End_of_file | Timeout | Unix.Unix_error _) as e) ->
          if n >= max 1 attempts then raise e
          else begin
            Unix.sleepf (backoff_delay ~base:delay ~max_delay ~seed (n - 1));
            (* The dead connection may still hold half a response;
               reconnecting resets framing so the retry can't read a
               stale line as its answer. *)
            (try reconnect t with _ -> ());
            go (n + 1)
          end
    in
    go 1
  end

let scrape_metrics ?timeout endpoint =
  let t = connect ?timeout endpoint in
  Fun.protect
    ~finally:(fun () -> close t)
    (fun () ->
      write_all t.fd "GET /metrics HTTP/1.0\r\n\r\n";
      let status = recv t in
      if not (String.length status >= 12 && String.sub status 9 3 = "200") then
        failwith (Printf.sprintf "metrics scrape failed: %s" (String.trim status));
      (* Skip headers up to the blank line, then read the body to EOF in
         4 KiB chunks (this used to go through the channel one byte per
         call). *)
      let rec skip_headers () =
        match String.trim (recv t) with "" -> () | _ -> skip_headers ()
      in
      skip_headers ();
      let deadline = op_deadline t in
      while fill ~deadline t do
        ()
      done;
      Bytes.sub_string t.inbuf t.start (t.stop - t.start))
