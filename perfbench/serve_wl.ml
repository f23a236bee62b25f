(* [serve]: the shipped [mrsl serve] daemon, in its own process, answering
   one closed-loop connection that pipelines windows of single-missing
   [infer] requests, with a [reload] of the same model file every
   [reload_every] windows. Protocol, Server, Engine batching and the
   posterior cache do the work; Gibbs, the tuple DAG and Mining do none. *)

module Json = Common.Json
module Client = Serving.Client
module Protocol = Serving.Protocol

let network_id = "BN7"
let train_rows = 5000

(* Latency is timed per window: a single round trip is under 100 us,
   where VM wake-up jitter dominates. *)
let window = 64
let reload_every = 500

(* The request pool holds one reload period; window [w] replays pool
   slice [w mod reload_every], so every period starts on a cold cache
   with the same requests. *)
let pool_size = window * reload_every
let tv_tasks = 4096
let vote_tasks = 2048

let params =
  [
    ("network", Json.String network_id);
    ("train_rows", Json.Int train_rows);
    ("window", Json.Int window);
    ("reload_every_windows", Json.Int reload_every);
    ("pool_requests", Json.Int pool_size);
    ("daemon", Json.String "mrsl serve --domains 1 (64 MiB cache, kernels on)");
    ("connections", Json.Int 1);
    ("loop", Json.String "closed");
    ("tv_tasks", Json.Int tv_tasks);
  ]
  @ Common.learn_params_json

(* ---- the daemon process ---- *)

type daemon = { pid : int; client : Client.t }

(* [run_dir] belongs to this run, so the file names are fixed. *)
let spawn ~exe ~run_dir ~model_path =
  let sock = Filename.concat run_dir "serve.sock" in
  let log =
    Unix.openfile
      (Filename.concat run_dir "serve.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close log)
      (fun () ->
        Unix.create_process exe
          [| exe; "serve"; "--model"; model_path; "--socket"; sock;
             "--domains"; "1" |]
          Unix.stdin log log)
  in
  (* Readiness by a 1 ms fixed poll: no backoff, whose doubling steps
     would land in setup_s. *)
  let endpoint = Protocol.Unix_socket sock in
  let deadline = Common.now_ns () + 60_000_000_000 in
  let rec connect () =
    match Client.connect ~timeout:60. endpoint with
    | c -> c
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Common.now_ns () < deadline ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith "serve: daemon exited during start-up");
        Unix.sleepf 0.001;
        connect ()
  in
  let client = connect () in
  let pong = Client.rpc client (Protocol.req Protocol.Ping) in
  if not (String.starts_with ~prefix:{|{"ok":true,"kind":"pong"|} pong) then
    failwith ("serve: bad ping reply " ^ pong);
  { pid; client }

let stop d =
  let bye = Client.rpc d.client (Protocol.req Protocol.Shutdown) in
  Client.close d.client;
  ignore (Unix.waitpid [] d.pid);
  if not (String.starts_with ~prefix:{|{"ok":true,"kind":"bye"|} bye) then
    failwith ("serve: bad shutdown reply " ^ bye)

let kill d =
  (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] d.pid)

(* ---- inputs and expected answers ---- *)

type inputs = {
  net : Bayesnet.Network.t;
  model : Mrsl.Model.t;  (** as loaded from the file the daemon serves *)
  model_path : string;
  tasks : (Relation.Tuple.t * int) array;
  requests : Protocol.request array;
  expect : (string * string) array;
      (** the response line around its epoch digits *)
}

let training_rows ~seed =
  let net = Common.network network_id in
  (net, Bayesnet.Network.sample_instance (Common.rng ~seed "serve-rows" 0) net train_rows)

let learn_and_save ~seed ~model_path () =
  let net, rows = training_rows ~seed in
  Mrsl.Model_io.save model_path (Learn_wl.learn rows);
  net

(* The expected line of request [i]: the daemon's posterior payload for
   local [Infer_single.infer] on the served model. The epoch is
   process-unique and left out, as [mrsl client verify] does. *)
let expected model i a dist =
  let schema = Mrsl.Model.schema model in
  let attr = Relation.Schema.attribute schema a in
  let id = Json.Int i and kind = "posterior" in
  let head = Protocol.ok_line ~id ~kind [] in
  let head = String.sub head 0 (String.length head - 2) ^ {|,"epoch":|} in
  let full =
    Protocol.ok_line ~id ~kind
      [
        ("mode", Json.String "exact");
        ( "attrs",
          Json.List
            [
              Json.Obj
                [
                  ("attr", Json.String (Relation.Attribute.name attr));
                  ("index", Json.Int a);
                  ( "posterior",
                    Json.Obj
                      (List.init (Prob.Dist.size dist) (fun v ->
                           ( Relation.Attribute.value_label attr v,
                             Json.Float (Prob.Dist.prob dist v) ))) );
                ];
            ] );
      ]
  in
  let plain = String.length head - String.length {|,"epoch":|} in
  (head, String.sub full plain (String.length full - plain - 1))

let matches (head, tail) line =
  let n = String.length line and h = String.length head and t = String.length tail in
  n > h + t
  && String.starts_with ~prefix:head line
  && String.ends_with ~suffix:tail line
  &&
  let rec digits i = i >= n - t || (line.[i] >= '0' && line.[i] <= '9' && digits (i + 1)) in
  digits h

let inputs ~seed ~net ~model_path =
  let model = Mrsl.Model_io.load model_path in
  let schema = Mrsl.Model.schema model in
  let tasks =
    Common.single_missing_tasks net (Common.rng ~seed "serve-requests" 0) pool_size
  in
  let requests =
    Array.mapi
      (fun i (tup, _) ->
        Protocol.req ~id:(Json.Int i)
          (Protocol.Infer
             (Array.mapi
                (fun a cell ->
                  Option.map
                    (Relation.Attribute.value_label
                       (Relation.Schema.attribute schema a))
                    cell)
                tup)))
      tasks
  in
  let known = Relation.Tuple.Table.create 4096 in
  let expect =
    Array.mapi
      (fun i (tup, a) ->
        let dist =
          match Relation.Tuple.Table.find_opt known tup with
          | Some d -> d
          | None ->
              let d = Mrsl.Infer_single.infer model tup a in
              Relation.Tuple.Table.add known tup d;
              d
        in
        expected model i a dist)
      tasks
  in
  { net; model; model_path; tasks; requests; expect }

(* ---- the closed loop ---- *)

let reload_line = Protocol.request_to_line (Protocol.req (Protocol.Reload None))

type traffic = {
  windows : float list;  (** seconds per window *)
  answered : int;  (** infer responses that matched their expected line *)
  reloaded : int;  (** reload responses that were [ok:true] *)
  sent : int;  (** infer and reload requests *)
  rates : float list;
      (** matching answers per second of each whole reload period, its
          reload and cold-cache refill included *)
}

let window_requests w =
  let base = w mod reload_every * window in
  (base, w > 0 && w mod reload_every = 0)

let drive ~seconds inp client =
  let windows = ref [] and answered = ref 0 and reloaded = ref 0 in
  let rates = ref [] and period_start = ref 0 and period_answered = ref 0 in
  let lines = Array.make window "" in
  let n =
    Common.repeat ~min:reload_every ~seconds (fun w ->
        let base, reload = window_requests w in
        if w mod reload_every = 0 then begin
          period_start := Common.now_ns ();
          period_answered := !answered
        end;
        let buf = Buffer.create (window * 128) in
        if reload then Buffer.add_string buf reload_line;
        for k = 0 to window - 1 do
          Buffer.add_string buf (Protocol.request_to_line inp.requests.(base + k))
        done;
        let payload = Buffer.contents buf in
        let t0 = Common.now_ns () in
        Client.send_partial client payload;
        let reply = if reload then Some (Client.recv client) else None in
        for k = 0 to window - 1 do
          lines.(k) <- Client.recv client
        done;
        windows := Common.seconds_since t0 :: !windows;
        (match reply with
        | Some line
          when String.starts_with ~prefix:{|{"ok":true,"kind":"reloaded"|} line
          ->
            incr reloaded
        | _ -> ());
        Array.iteri
          (fun k line -> if matches inp.expect.(base + k) line then incr answered)
          lines;
        if (w + 1) mod reload_every = 0 then
          rates :=
            (float_of_int (!answered - !period_answered)
            /. Common.seconds_since !period_start)
            :: !rates)
  in
  {
    windows = !windows;
    answered = !answered;
    reloaded = !reloaded;
    sent = (n * window) + ((n - 1) / reload_every);
    rates = !rates;
  }

(* The daemon's top heap, from its [stats] reply. *)
let daemon_heap_mb client =
  let field path j =
    List.fold_left
      (fun j k -> Option.get (Json.member k j))
      j path
  in
  Json.to_float (field [ "resources"; "mem"; "top_heap_bytes" ] (Client.stats_json client))
  /. 1048576.

let child_cpu () =
  let t = Unix.times () in
  t.tms_cutime +. t.tms_cstime

(* Set up [reps] times: learn and save a model, start the daemon on it
   and wait for its first [ping]. Run [f] on the last daemon, then stop
   it, killing it if [f] fails. Returns [f]'s result, the median set-up
   time, the daemon's top heap and its CPU seconds. *)
let with_daemon ?reps ~seed ~exe ~run_dir f =
  let model_path = Filename.concat run_dir "model.mrsl" in
  let (net, d), setup_s =
    Common.set_up ?reps
      ~release:(fun (_, d) -> stop d)
      (fun () ->
        let net = learn_and_save ~seed ~model_path () in
        (net, spawn ~exe ~run_dir ~model_path))
  in
  match
    let inp = inputs ~seed ~net ~model_path in
    let r = f inp d in
    let heap = daemon_heap_mb d.client in
    let cpu0 = child_cpu () in
    stop d;
    (r, heap, child_cpu () -. cpu0)
  with
  | r, heap, cpu -> (r, setup_s, heap, cpu)
  | exception e ->
      kill d;
      raise e

let run ~seed ~seconds ~exe ~run_dir =
  let (t, tv), setup_s, heap, _ =
    with_daemon ~seed ~exe ~run_dir (fun inp d ->
        let t = drive ~seconds inp d.client in
        (t, Common.mean_tv_single inp.net inp.model (Array.sub inp.tasks 0 tv_tasks)))
  in
  let ok = t.answered + t.reloaded in
  {
    Common.metrics =
      [
        ("setup_s", setup_s, "s");
        ("throughput_per_s", Common.median t.rates, "1/s");
        ("p50_ms", 1000. *. Common.median t.windows, "ms");
        ("p90_ms", 1000. *. Common.quantile 0.9 t.windows, "ms");
        ("peak_heap_mb", heap, "MB");
        ("ok_share", float_of_int ok /. float_of_int t.sent, "share");
        ("tv_mean", tv, "tv");
      ];
    attempted = t.sent;
    failed = t.sent - ok;
  }

(* The traced run first times the layers of the set-up on its training
   rows (learn, kernel compile, save, and the load the daemon does) and
   reconciles them with whole set-ups. It then replays two reload periods
   of the same windows, reload point included, through an in-process
   [Engine] (encode, parse and batch timed apart; a fixed count, so the
   cache counters are deterministic per seed), times further reloads and
   uncached votes, then drives the daemon as the untraced run does; the
   transport is what the window p50 leaves over. *)
let trace ~seed ~seconds ~exe ~run_dir =
  let samples = Common.Samples.create () in
  let add = Common.Samples.add samples in
  let failed = ref 0 and attempted = ref 0 in
  let _, rows = training_rows ~seed in
  attempted :=
    Common.repeat ~min:3 ~seconds:(seconds /. 4.) (fun _ ->
        Gc.full_major ();
        let _, layer_failed = Learn_wl.layers add rows in
        failed := !failed + layer_failed);
  let (t, cache), setup_s, _, cpu =
    with_daemon ~reps:3 ~seed ~exe ~run_dir (fun inp d ->
        let engine =
          Serving.Engine.of_model
            ~telemetry:(Mrsl.Telemetry.create ())
            ~config:{ Serving.Engine.default_config with domains = Some 1 }
            ~model_path:inp.model_path inp.model
        in
        let per_req s = 1e6 *. s /. float_of_int window in
        let reload () =
          let r, dt = Common.timed (fun () -> Serving.Engine.reload engine) in
          add "reload" dt;
          incr attempted;
          if Result.is_error r then incr failed
        in
        for w = 0 to (2 * reload_every) - 1 do
          let base, at_reload = window_requests w in
          if at_reload then reload ();
          let lines, enc =
            Common.timed (fun () ->
                List.init window (fun k ->
                    Protocol.request_to_line inp.requests.(base + k)))
          in
          let parsed, parse =
            Common.timed (fun () -> List.map Protocol.parse_request lines)
          in
          let reqs = List.map Result.get_ok parsed in
          let answers, batch =
            Common.timed (fun () -> Serving.Engine.handle_batch engine reqs)
          in
          add "encode" (per_req enc);
          add "parse" (per_req parse);
          add "batch" (per_req batch);
          List.iteri
            (fun k (a : Serving.Engine.answer) ->
              incr attempted;
              if not (matches inp.expect.(base + k) (String.trim a.line))
              then incr failed)
            answers
        done;
        let cache = Mrsl.Posterior_cache.stats (Serving.Engine.cache engine) in
        for _ = 1 to 4 do
          reload ()
        done;
        let votes = Array.sub inp.tasks 0 vote_tasks in
        for _ = 1 to 5 do
          let (), dt =
            Common.timed (fun () ->
                Array.iter
                  (fun (tup, a) -> ignore (Mrsl.Infer_single.infer inp.model tup a))
                  votes)
          in
          add "vote" (1e6 *. dt /. float_of_int vote_tasks)
        done;
        let t = drive ~seconds:(seconds /. 2.) inp d.client in
        attempted := !attempted + t.sent;
        failed := !failed + t.sent - t.answered - t.reloaded;
        (t, cache))
  in
  let med = Common.Samples.median samples in
  Common.reconcile "serve set-up" ~unit_:"ms" ~e2e_name:"set-up median"
    ~e2e:(1000. *. setup_s) (Learn_wl.layer_parts med);
  Printf.printf
    "traced serve set-up: the residual is sampling the rows, starting the \
     daemon and its first ping\n";
  let p50_us = 1e6 *. Common.median t.windows in
  let layers = med "encode" +. med "parse" +. med "batch" in
  let transport = (p50_us /. float_of_int window) -. layers in
  let w = float_of_int window in
  Common.reconcile "serve" ~unit_:"us" ~e2e_name:"window p50" ~e2e:p50_us
    [ ("64 x encode", w *. med "encode"); ("64 x parse", w *. med "parse");
      ("64 x batch", w *. med "batch") ];
  Printf.printf
    "traced serve: the residual is the transport, %.4g us per request\n"
    transport;
  let lookups = cache.hits + cache.misses in
  {
    Common.metrics =
      Learn_wl.layer_metrics med
      @ [
        ("infer.vote_us", med "vote", "us");
        ("protocol.encode_us", med "encode", "us");
        ("protocol.parse_us", med "parse", "us");
        ("engine.batch_us", med "batch", "us");
        ("engine.reload_ms", 1000. *. med "reload", "ms");
        ( "posterior_cache.hit_rate",
          float_of_int cache.hits /. float_of_int (max 1 lookups), "share" );
        ("posterior_cache.misses", float_of_int cache.misses, "count");
        ("posterior_cache.evictions", float_of_int cache.evictions, "count");
        ("serve.transport_us", transport, "us");
        ( "server.cpu_us_per_req",
          1e6 *. cpu /. float_of_int (max 1 t.sent), "us" );
      ];
    attempted = !attempted;
    failed = !failed;
  }
