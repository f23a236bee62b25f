module Json = Mrsl.Telemetry.Json

type config = {
  seed : int;
  method_ : Mrsl.Voting.method_;
  gibbs : Mrsl.Gibbs.config;
  domains : int option;
}

let default_config =
  {
    seed = 42;
    method_ = Mrsl.Voting.best_averaged;
    gibbs = Mrsl.Gibbs.default_config;
    domains = None;
  }

(* The fixed bytes of a served model epoch's [posterior] lines: the
   fields after the id up to the attrs array, per mode, and per
   attribute its [{"attr":…,"index":…,"posterior":{] opener and each
   value's ["label":] key (with its separating comma after the first).
   Built with {!Json.to_string}, so escaping is the reference's. *)
type wire = {
  exact : string;
  gibbs : string;
  openers : string array;
  keys : string array array;
}

let wire_of model =
  let schema = Mrsl.Model.schema model in
  let str s = Json.to_string (Json.String s) in
  let head mode =
    Printf.sprintf {|"ok":true,"kind":"posterior","epoch":%d,"mode":%s,"attrs":[|}
      (Mrsl.Model.epoch model) (str mode)
  in
  let attrs = Array.init (Relation.Schema.arity schema) (Relation.Schema.attribute schema) in
  {
    exact = head "exact";
    gibbs = head "gibbs";
    openers =
      Array.mapi
        (fun a attr ->
          Printf.sprintf {|{"attr":%s,"index":%d,"posterior":{|}
            (str (Relation.Attribute.name attr)) a)
        attrs;
    keys =
      Array.map
        (fun attr ->
          Array.init (Relation.Attribute.cardinality attr) (fun v ->
              (if v > 0 then "," else "")
              ^ str (Relation.Attribute.value_label attr v)
              ^ ":"))
        attrs;
  }

type t = {
  mutable model : Mrsl.Model.t;
  mutable model_path : string;
  mutable wire : wire;  (** of [model]'s epoch *)
  out : Buffer.t;  (** reused for every posterior line *)
  config : config;
  telemetry : Mrsl.Telemetry.t;
  cache : Mrsl.Posterior_cache.t;
}

let set_epoch_gauge t =
  Mrsl.Telemetry.gauge t.telemetry "serve.epoch"
    (float_of_int (Mrsl.Model.epoch t.model))

let of_model ?(telemetry = Mrsl.Telemetry.global) ~config
    ?(model_path = "<memory>") model =
  let cache = Mrsl.Posterior_cache.create ~telemetry () in
  let t =
    {
      model;
      model_path;
      wire = wire_of model;
      out = Buffer.create 512;
      config;
      telemetry;
      cache;
    }
  in
  (* Precompile the inference kernel so the first request never pays the
     build; a no-op when the compiled path is disabled. *)
  if Mrsl.Kernel.enabled () then
    ignore (Mrsl.Kernel.ensure ~telemetry model : Mrsl.Kernel.t);
  set_epoch_gauge t;
  t

let create ?telemetry ~config ~model_path () =
  of_model ?telemetry ~config ~model_path (Mrsl.Model_io.load model_path)

let model t = t.model
let epoch t = Mrsl.Model.epoch t.model
let model_path t = t.model_path
let config t = t.config
let telemetry t = t.telemetry
let cache t = t.cache

let reload ?path t =
  let path = Option.value path ~default:t.model_path in
  match Mrsl.Error.guard (fun () -> Mrsl.Model_io.load path) with
  | Error e ->
      Error
        (Mrsl.Error.make Mrsl.Error.Model ~code:"serve.reload"
           ~context:(("path", path) :: e.context)
           e.message)
  | Ok fresh ->
      if
        not
          (Relation.Schema.equal
             (Mrsl.Model.schema fresh)
             (Mrsl.Model.schema t.model))
      then
        Error
          (Mrsl.Error.make Mrsl.Error.Model ~code:"serve.reload_schema"
             ~context:[ ("path", path) ]
             "new model's schema differs from the serving schema; \
              refusing the swap")
      else begin
        (* Compile the fresh model's kernel BEFORE mutating any serving
           state: if compilation fails the old model, epoch, cache and
           kernel keep serving untouched; if it succeeds the epoch bump
           below can never serve a stale kernel (registry keys are
           process-unique epochs). *)
        match
          Mrsl.Error.guard (fun () ->
              if Mrsl.Kernel.enabled () then
                ignore (Mrsl.Kernel.ensure ~telemetry:t.telemetry fresh
                        : Mrsl.Kernel.t))
        with
        | Error e ->
            Error
              (Mrsl.Error.make Mrsl.Error.Model ~code:"serve.reload_kernel"
                 ~context:(("path", path) :: e.context)
                 e.message)
        | Ok () ->
        t.model <- fresh;
        t.wire <- wire_of fresh;
        t.model_path <- path;
        (* The stale epoch's kernel takes its conditional tables, the
           posterior store, with it. *)
        Mrsl.Kernel.invalidate_stale ~current:fresh;
        Mrsl.Posterior_cache.publish t.cache;
        Mrsl.Telemetry.incr t.telemetry "serve.reloads";
        set_epoch_gauge t;
        Mrsl.Trace.instant ~cat:"serve"
          ~args:[ ("epoch", Mrsl.Trace.Int (Mrsl.Model.epoch fresh)) ]
          "serve.reload";
        Ok fresh
      end

(* ------------------------------------------------------------------ *)
(* Request decoding against the loaded schema *)

let input ~code fmt =
  Printf.ksprintf (fun msg -> Mrsl.Error.make Mrsl.Error.Input ~code msg) fmt

let decode_tuple model (labels : string option array) :
    (Relation.Tuple.t, Mrsl.Error.t) result =
  let schema = Mrsl.Model.schema model in
  let arity = Relation.Schema.arity schema in
  if Array.length labels <> arity then
    Error
      (input ~code:"serve.bad_tuple"
         "tuple has %d cells but the serving schema has %d attributes"
         (Array.length labels) arity)
  else begin
    let tup = Array.make arity None in
    let err = ref None in
    Array.iteri
      (fun i cell ->
        match (!err, cell) with
        | Some _, _ | None, None -> ()
        | None, Some label -> (
            let attr = Relation.Schema.attribute schema i in
            match Relation.Attribute.value_index attr label with
            | v -> tup.(i) <- Some v
            | exception Not_found ->
                err :=
                  Some
                    (input ~code:"serve.bad_tuple"
                       "unknown value %S for attribute %s" label
                       (Relation.Attribute.name attr))))
      labels;
    match !err with Some e -> Error e | None -> Ok tup
  end

(* ------------------------------------------------------------------ *)
(* Response payloads *)

(* A [posterior] line is written straight into [t.out]: the same bytes
   as {!Protocol.ok_line} over a [Json.t] tree of the payload (the tests
   hold the two equal), without building the tree. *)
let posterior_line t ?id ~head ?samples_used add_attrs =
  let buf = t.out in
  Buffer.clear buf;
  Buffer.add_char buf '{';
  (match id with
  | Some id ->
      Buffer.add_string buf {|"id":|};
      Json.to_buffer ~pretty:false buf id;
      Buffer.add_char buf ','
  | None -> ());
  Buffer.add_string buf head;
  add_attrs buf;
  Buffer.add_char buf ']';
  (match samples_used with
  | Some n ->
      Buffer.add_string buf {|,"samples_used":|};
      Buffer.add_string buf (string_of_int n)
  | None -> ());
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let add_attr wire buf a dist =
  Buffer.add_string buf wire.openers.(a);
  let keys = wire.keys.(a) in
  for v = 0 to Prob.Dist.size dist - 1 do
    Buffer.add_string buf keys.(v);
    Json.add_float buf (Prob.Dist.prob dist v)
  done;
  Buffer.add_string buf "}}"

let exact_line t ?id a dist =
  posterior_line t ?id ~head:t.wire.exact (fun buf -> add_attr t.wire buf a dist)

let gibbs_line t ?id (est : Mrsl.Gibbs.estimate) =
  posterior_line t ?id ~head:t.wire.gibbs ~samples_used:est.samples_used
    (fun buf ->
      List.iteri
        (fun i a ->
          if i > 0 then Buffer.add_char buf ',';
          add_attr t.wire buf a (Mrsl.Gibbs.marginal est a))
        est.missing)

(* ------------------------------------------------------------------ *)
(* Outcomes *)

type outcome = Served | Failed | Shed | Expired | Cache_hit

let outcome_label = function
  | Served -> "ok"
  | Failed -> "error"
  | Shed -> "shed"
  | Expired -> "deadline_exceeded"
  | Cache_hit -> "cache_hit"

type answer = { line : string; outcome : outcome }

let served line = { line; outcome = Served }

let error_response t ?id e =
  Mrsl.Telemetry.incr t.telemetry "serve.errors";
  { line = Protocol.error_line ?id e; outcome = Failed }

let stats_line t ?id () =
  (* Refresh GC/memory counters so the stats op reflects now, not the
     last major collection. *)
  Mrsl.Resource.sample_current ();
  let c name = Json.Int (Mrsl.Telemetry.counter t.telemetry name) in
  let cs = Mrsl.Posterior_cache.stats t.cache in
  let phase key =
    match Mrsl.Telemetry.histogram t.telemetry key with
    | None -> Json.Obj [ ("count", Json.Int 0) ]
    | Some (s : Mrsl.Telemetry.summary) ->
        Json.Obj
          [
            ("count", Json.Int s.count);
            ("p50_ms", Json.Float (s.p50 *. 1000.));
            ("p99_ms", Json.Float (s.p99 *. 1000.));
            ("max_ms", Json.Float (s.max *. 1000.));
          ]
  in
  Protocol.ok_line ?id ~kind:"stats"
    [
      ("epoch", Json.Int (epoch t));
      ("path", Json.String t.model_path);
      ("model_size", Json.Int (Mrsl.Model.size t.model));
      ("requests", c "serve.requests");
      ("errors", c "serve.errors");
      ("overloaded", c "serve.overloaded");
      ("shed", c "serve.shed");
      ("deadline_exceeded", c "serve.deadline_exceeded");
      ("batches", c "serve.batches");
      ("reloads", c "serve.reloads");
      ("connections", c "serve.connections");
      ("conn_rejected", c "serve.conn_rejected");
      ("idle_killed", c "serve.idle_killed");
      ("out_buf_killed", c "serve.out_buf_killed");
      ( "cache",
        Json.Obj
          [
            ("hits", Json.Int cs.hits);
            ("misses", Json.Int cs.misses);
            ("entries", Json.Int cs.entries);
            ("dedup_fanout", Json.Int cs.dedup_fanout);
          ] );
      ( "phases",
        Json.Obj
          [
            ("queue_wait", phase "serve.queue_wait_seconds");
            ("compute", phase "serve.compute_seconds");
            ("flush_wait", phase "serve.flush_wait_seconds");
            ("total", phase "serve.latency_seconds");
          ] );
      ("resources", Mrsl.Resource.report ~model:t.model ());
    ]

(* ------------------------------------------------------------------ *)
(* Batch execution *)

type pressure = Normal | Cache_only

(* One decoded infer task, positioned in the response array. *)
type infer_task = {
  slot : int;
  req_id : Json.t option;
  tuple : Relation.Tuple.t;
}

let shed_error =
  Mrsl.Error.make Mrsl.Error.Scheduler ~code:"serve.shed"
    "server overloaded — request shed without computing (cache-hit-only \
     degradation); retry later"

(* Sheds follow the [serve.overloaded] accounting style: their own
   counter, not [serve.errors] — shedding is the ladder working as
   designed, not a request failure. *)
let shed_response t ?id () =
  Mrsl.Telemetry.incr t.telemetry "serve.shed";
  { line = Protocol.error_line ?id shed_error; outcome = Shed }

let run_single t ~pressure responses tasks =
  let { method_; _ } = t.config in
  let telemetry = t.telemetry in
  let model = t.model in
  (* One probe per task, and a miss computes and stores. Identical
     concurrent requests (same evidence context) pay one computation:
     the first probe of the segment computes (or finds) the posterior,
     the repeats hit it and count as cache.dedup_fanout. *)
  let segment = Mrsl.Posterior_cache.new_segment () in
  List.iter
    (fun { slot; req_id = id; tuple; _ } ->
      let a =
        match Relation.Tuple.missing tuple with [ a ] -> a | _ -> assert false
      in
      responses.(slot) <-
        (match pressure with
        | Cache_only -> (
            (* Degraded rung: answer for free from the cache — payload
               identical to the uncontended path — or shed. Never
               compute under pressure. *)
            match Mrsl.Posterior_cache.find t.cache model ~method_ tuple a with
            | Some dist -> { line = exact_line t ?id a dist; outcome = Cache_hit }
            | None -> shed_response t ?id ())
        | Normal -> (
            match
              Mrsl.Infer_single.infer_result ~method_ ~telemetry ~cache:t.cache
                ~segment model tuple a
            with
            | Ok dist -> served (exact_line t ?id a dist)
            | Error e -> error_response t ?id e)))
    tasks

let run_multi t ~pressure responses tasks =
  match (tasks, pressure) with
  | [], _ -> ()
  | _, Cache_only ->
      (* Gibbs has no cheap stored answer (the conditional tables hold
         single-attribute posteriors, not joint estimates); under
         pressure multi-missing work is always shed. *)
      List.iter
        (fun { slot; req_id = id; _ } ->
          responses.(slot) <- shed_response t ?id ())
        tasks
  | _, Normal ->
      let { seed; method_; gibbs; _ } = t.config in
      let model = t.model in
      (* Compute once per distinct tuple; identical requests in the
         batch share the result. Each tuple is its own one-element
         workload so its estimate is independent of batch composition
         (and therefore bit-identical to a one-shot CLI run). A
         one-tuple workload has one worker, on this domain, so it is
         asked for exactly one. *)
      let distinct = Relation.Tuple.Table.create 8 in
      List.iter
        (fun { tuple; _ } ->
          if not (Relation.Tuple.Table.mem distinct tuple) then
            Relation.Tuple.Table.add distinct tuple
              (lazy
                (let contained =
                   Mrsl.Workload.run_contained ~config:gibbs ~method_
                     ~domains:1 ~telemetry:t.telemetry
                     ~policy:Mrsl.Workload.Skip_and_report ~seed model
                     [ tuple ]
                 in
                 match contained.faults with
                 | fault :: _ -> Error fault.error
                 | [] -> (
                     match contained.result.estimates with
                     | [ (_, est) ] -> Ok est
                     | _ ->
                         Error
                           (Mrsl.Error.make Mrsl.Error.Inference
                              ~code:"serve.no_estimate"
                              "inference produced no estimate")))))
        tasks;
      List.iter
        (fun { slot; req_id = id; tuple; _ } ->
          responses.(slot) <-
            (match Lazy.force (Relation.Tuple.Table.find distinct tuple) with
            | Ok est -> served (gibbs_line t ?id est)
            | Error e -> error_response t ?id e))
        tasks

(* A segment is a maximal run of requests with no reload between them:
   everything in it is answered by one model generation. *)
let run_segment t ~pressure responses segment =
  let singles = ref [] and multis = ref [] in
  List.iter
    (fun (slot, (req : Protocol.request)) ->
      let id = req.id in
      match req.op with
      | Protocol.Ping ->
          responses.(slot) <-
            served
              (Protocol.ok_line ?id ~kind:"pong"
                 [ ("epoch", Json.Int (epoch t)) ])
      | Protocol.Stats -> responses.(slot) <- served (stats_line t ?id ())
      | Protocol.Shutdown ->
          responses.(slot) <- served (Protocol.ok_line ?id ~kind:"bye" [])
      | Protocol.Reload _ -> assert false (* segment boundary *)
      | Protocol.Infer labels -> (
          match decode_tuple t.model labels with
          | Error e -> responses.(slot) <- error_response t ?id e
          | Ok tuple -> (
              let task = { slot; req_id = id; tuple } in
              match Relation.Tuple.missing_count tuple with
              | 0 ->
                  responses.(slot) <-
                    error_response t ?id
                      (input ~code:"serve.complete_tuple"
                         "tuple has no missing values — nothing to infer")
              | 1 -> singles := task :: !singles
              | _ -> multis := task :: !multis)))
    (List.rev segment);
  run_single t ~pressure responses (List.rev !singles);
  run_multi t ~pressure responses (List.rev !multis)

let handle_batch ?(pressure = Normal) ?(flows = [||]) t reqs =
  match reqs with
  | [] -> []
  | _ ->
      let n = List.length reqs in
      let flow_of slot =
        if slot < Array.length flows then flows.(slot) else 0
      in
      Mrsl.Telemetry.incr ~by:n t.telemetry "serve.requests";
      Mrsl.Telemetry.incr t.telemetry "serve.batches";
      Mrsl.Telemetry.observe t.telemetry "serve.batch_size" (float_of_int n);
      Mrsl.Trace.complete ~cat:"serve"
        ~args:[ ("requests", Mrsl.Trace.Int n) ]
        "serve.batch"
        (fun () ->
          Mrsl.Telemetry.span t.telemetry "serve.batch" (fun () ->
              (* Terminate each admitted request's admission arrow inside
                 the batch slice — the Perfetto view shows the request
                 landing in the batch that answered it. *)
              for slot = 0 to n - 1 do
                let id = flow_of slot in
                if id <> 0 then
                  Mrsl.Trace.flow_end ~cat:"serve" ~id "serve.request"
              done;
              let responses = Array.make n (served "") in
              (* Split at reloads: requests ahead of a reload are
                 answered by the old model, requests behind it by the
                 new one — a swap never drops in-flight requests. *)
              let segment = ref [] in
              List.iteri
                (fun slot (req : Protocol.request) ->
                  match req.op with
                  | Protocol.Reload path ->
                      run_segment t ~pressure responses !segment;
                      segment := [];
                      responses.(slot) <-
                        (match reload ?path t with
                        | Ok fresh ->
                            served
                              (Protocol.ok_line ?id:req.id ~kind:"reloaded"
                                 [
                                   ("epoch", Json.Int (Mrsl.Model.epoch fresh));
                                   ("path", Json.String t.model_path);
                                   ( "model_size",
                                     Json.Int (Mrsl.Model.size fresh) );
                                 ])
                        | Error e -> error_response t ?id:req.id e)
                  | _ -> segment := (slot, req) :: !segment)
                reqs;
              run_segment t ~pressure responses !segment;
              Array.to_list responses))

let handle_request t req =
  match handle_batch t [ req ] with
  | [ answer ] -> answer.line
  | _ -> assert false

let wants_shutdown reqs =
  List.exists (fun (r : Protocol.request) -> r.op = Protocol.Shutdown) reqs
