(* Serving-layer suite (serving daemon PR).

   Everything here drives the daemon's components in-process — protocol
   codec, frame assembly, admission queue, engine batching — without a
   socket; ci/run.sh's serve pass covers the real transport end to end.
   Each engine gets a private telemetry registry so assertions on
   serve.* counters are isolated from other suites. *)

module P = Serving.Protocol
module T = Mrsl.Telemetry
module Json = T.Json

let counter telemetry name =
  match List.assoc_opt name (T.snapshot_counters telemetry) with
  | Some n -> n
  | None -> 0

let model =
  (* a0 -> a1 functional dependency, independent a2; cheap to learn and
     fully deterministic. *)
  lazy
    (Mrsl.Model.learn_points
       ~params:
         { Mrsl.Model.default_params with support_threshold = 0.01 }
       Helpers.dependent_schema
       (Helpers.dependent_points 300))

let engine_config =
  {
    Serving.Engine.default_config with
    seed = 2011;
    gibbs = { Mrsl.Gibbs.burn_in = 10; samples = 40 };
  }

(* A new epoch of [model]: an exact Model_io round trip. The posterior
   store belongs to the epoch's kernel, so each engine serves its own
   epoch unless a test compares lines across engines, which must then
   share one (the epoch is on every line). *)
let fresh_model () =
  Mrsl.Model_io.of_string (Mrsl.Model_io.to_string (Lazy.force model))

let fresh_engine ?model_path ?(model = fresh_model ()) () =
  let telemetry = T.create () in
  let engine =
    Serving.Engine.of_model ~telemetry ~config:engine_config ?model_path model
  in
  (engine, telemetry)

let infer ?id labels = P.req ?id (P.Infer labels)
let single = [| None; Some "v0"; Some "v1" |]

(* Most assertions here care about the wire lines; outcome-specific
   tests destructure Engine.answer directly. *)
let batch_lines ?pressure engine reqs =
  List.map
    (fun (a : Serving.Engine.answer) -> a.Serving.Engine.line)
    (Serving.Engine.handle_batch ?pressure engine reqs)

let response_json line =
  match Json.of_string (String.trim line) with
  | Json.Obj fields -> fields
  | _ -> Alcotest.failf "response is not a JSON object: %s" line

let response_ok line =
  List.assoc_opt "ok" (response_json line) = Some (Json.Bool true)

let response_error_code line =
  match List.assoc_opt "error" (response_json line) with
  | Some (Json.Obj err) -> (
      match List.assoc_opt "code" err with
      | Some (Json.String c) -> c
      | _ -> Alcotest.failf "error without code: %s" line)
  | _ -> Alcotest.failf "expected an error response: %s" line

let response_epoch line =
  match List.assoc_opt "epoch" (response_json line) with
  | Some (Json.Int e) -> e
  | _ -> Alcotest.failf "response without epoch: %s" line

(* --- protocol -------------------------------------------------------- *)

let test_protocol_roundtrip () =
  let ops =
    [
      P.Ping;
      P.Stats;
      P.Shutdown;
      P.Reload None;
      P.Reload (Some "swap.mrsl");
      P.Infer [| Some "v1"; None; Some "v0" |];
      P.Infer [| None; None; None |];
    ]
  in
  List.iter
    (fun op ->
      List.iter
        (fun id ->
          let req = P.req ?id op in
          let line = P.request_to_line req in
          Alcotest.(check bool)
            "line is newline-terminated" true
            (String.length line > 0 && line.[String.length line - 1] = '\n');
          match P.parse_request (String.trim line) with
          | Ok req' ->
              Alcotest.(check bool)
                (Printf.sprintf "round-trip %s" (String.trim line))
                true (req = req')
          | Error e ->
              Alcotest.failf "round-trip failed: %s" (Mrsl.Error.to_string e))
        [ None; Some (Json.Int 7); Some (Json.String "req-a") ])
    ops

let test_protocol_errors () =
  let code line =
    match P.parse_request line with
    | Ok _ -> Alcotest.failf "expected a parse failure: %s" line
    | Error e -> e.Mrsl.Error.code
  in
  Alcotest.(check string)
    "malformed JSON" "protocol.parse" (code "this is not json");
  Alcotest.(check string) "not an object" "protocol.parse" (code "[1,2]");
  Alcotest.(check string)
    "unknown op" "protocol.bad_request"
    (code {|{"op":"zap"}|});
  Alcotest.(check string)
    "missing op" "protocol.bad_request" (code {|{"id":3}|});
  Alcotest.(check string)
    "malformed tuple" "protocol.bad_request"
    (code {|{"op":"infer","tuple":"nope"}|});
  (* the id of a broken request survives into the error line so a
     pipelining client can still correlate it *)
  (match P.parse_request {|{"id":41,"op":"zap"}|} with
  | Ok _ -> Alcotest.fail "expected a failure"
  | Error e ->
      let line = P.error_line e in
      Alcotest.(check bool)
        "id echoed in error line" true
        (Astring_like.contains line {|"id":41|});
      Alcotest.(check bool) "marked not ok" false (response_ok line));
  (* error lines always parse back as JSON *)
  match P.parse_request "{{{" with
  | Ok _ -> Alcotest.fail "expected a failure"
  | Error e -> ignore (response_json (P.error_line e))

let test_framing () =
  let f = P.Framing.create () in
  (match P.Framing.feed f "a\nbb\r\nc" with
  | Ok frames ->
      Alcotest.(check (list string)) "two frames, CRLF stripped"
        [ "a"; "bb" ] frames
  | Error e -> Alcotest.failf "feed failed: %s" (Mrsl.Error.to_string e));
  Alcotest.(check int) "partial frame pending" 1 (P.Framing.pending f);
  (match P.Framing.feed f "d\n" with
  | Ok frames ->
      Alcotest.(check (list string)) "split frame reassembled" [ "cd" ] frames
  | Error e -> Alcotest.failf "feed failed: %s" (Mrsl.Error.to_string e));
  Alcotest.(check int) "nothing pending" 0 (P.Framing.pending f)

let test_framing_oversize () =
  let f = P.Framing.create ~max_frame:8 () in
  (match P.Framing.feed f "123456789" with
  | Ok _ -> Alcotest.fail "oversized frame accepted"
  | Error e ->
      Alcotest.(check string)
        "oversize code" "protocol.oversized" e.Mrsl.Error.code);
  (* poisoned: even a small follow-up chunk keeps erroring *)
  match P.Framing.feed f "x\n" with
  | Ok _ -> Alcotest.fail "poisoned framing accepted a frame"
  | Error e ->
      Alcotest.(check string)
        "still poisoned" "protocol.oversized" e.Mrsl.Error.code

(* --- admission ------------------------------------------------------- *)

let test_admission () =
  let telemetry = T.create () in
  let q = Serving.Admission.create ~telemetry ~capacity:2 () in
  Alcotest.(check int) "capacity" 2 (Serving.Admission.capacity q);
  Alcotest.(check bool) "first accepted" true (Serving.Admission.try_add q "a");
  Alcotest.(check bool) "second accepted" true (Serving.Admission.try_add q "b");
  Alcotest.(check bool) "third refused" false (Serving.Admission.try_add q "c");
  Alcotest.(check int) "refusal counted" 1 (counter telemetry "serve.overloaded");
  Alcotest.(check int) "length" 2 (Serving.Admission.length q);
  Alcotest.(check (list string))
    "drain is FIFO" [ "a" ]
    (Serving.Admission.drain ~max:1 q);
  Alcotest.(check bool)
    "slot freed" true (Serving.Admission.try_add q "c");
  Alcotest.(check (list string))
    "drain the rest in order" [ "b"; "c" ]
    (Serving.Admission.drain ~max:10 q);
  Alcotest.(check (list string))
    "empty drain" [] (Serving.Admission.drain ~max:10 q)

let nested_frame n = String.make n '['

let test_protocol_depth_bound () =
  let t0 = Mrsl.Clock.now () in
  (match P.parse_request (nested_frame (1 lsl 20)) with
  | Ok _ -> Alcotest.fail "1 MiB of [ parsed"
  | Error e ->
      Alcotest.(check string) "code" "protocol.parse" e.Mrsl.Error.code;
      Alcotest.(check bool)
        (Printf.sprintf "message names the limit: %s" e.Mrsl.Error.message)
        true
        (Astring_like.contains e.Mrsl.Error.message
           (Printf.sprintf "deeper than %d levels" P.max_depth)));
  let dt = Mrsl.Clock.now () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "refused in %.3f s" dt)
    true (dt < 0.1);
  (* an id may nest up to the bound, less the object it sits in *)
  let with_id depth =
    Printf.sprintf {|{"id":%s1%s,"op":"ping"}|}
      (String.make depth '[') (String.make depth ']')
  in
  (match P.parse_request (with_id (P.max_depth - 1)) with
  | Ok r -> Alcotest.(check bool) "deep id kept" true (r.P.id <> None)
  | Error e -> Alcotest.failf "id at the bound refused: %s" e.Mrsl.Error.message);
  match P.parse_request (with_id P.max_depth) with
  | Ok _ -> Alcotest.fail "id past the bound accepted"
  | Error e -> Alcotest.(check string) "past the bound" "protocol.parse" e.Mrsl.Error.code

(* --- engine ---------------------------------------------------------- *)

let test_engine_batch_dedup () =
  let engine, telemetry = fresh_engine () in
  let reqs = List.init 8 (fun i -> infer ~id:(Json.Int i) single) in
  let responses = batch_lines engine reqs in
  Alcotest.(check int) "one response per request" 8 (List.length responses);
  List.iter
    (fun line ->
      Alcotest.(check bool) "served ok" true (response_ok line);
      Alcotest.(check bool)
        "exact single-missing path" true
        (Astring_like.contains line {|"mode":"exact"|}))
    responses;
  (* identical concurrent requests pay one computation *)
  let stats = Mrsl.Posterior_cache.stats (Serving.Engine.cache engine) in
  Alcotest.(check int)
    "dedup fan-out" 7 stats.Mrsl.Posterior_cache.dedup_fanout;
  Alcotest.(check int) "requests counted" 8 (counter telemetry "serve.requests");
  Alcotest.(check int) "one batch" 1 (counter telemetry "serve.batches");
  (* batch composition does not leak into the payload: a later singleton
     request for the same tuple is byte-identical *)
  let solo = Serving.Engine.handle_request engine (infer ~id:(Json.Int 0) single) in
  Alcotest.(check string) "batch vs solo" (List.hd responses) solo

let test_engine_gibbs_deterministic () =
  let engine, _ = fresh_engine () in
  let req = infer [| None; None; Some "v1" |] in
  let first = Serving.Engine.handle_request engine req in
  let second = Serving.Engine.handle_request engine req in
  Alcotest.(check bool) "served ok" true (response_ok first);
  Alcotest.(check bool)
    "multi-missing goes through Gibbs" true
    (Astring_like.contains first {|"mode":"gibbs"|});
  Alcotest.(check string) "repeat is bit-identical" first second

(* [config.domains] has no effect: a multi-missing request is a one-tuple
   workload on one worker, so no value of it, not even an invalid one,
   changes an answer or raises out of [handle_batch]. *)
let test_engine_ignores_domains () =
  let model = fresh_model () in
  let req = infer [| None; None; Some "v1" |] in
  let answer domains =
    let engine =
      Serving.Engine.of_model ~telemetry:(T.create ())
        ~config:{ engine_config with domains } model
    in
    batch_lines engine [ req ]
  in
  let reference = answer None in
  Alcotest.(check bool) "served ok" true (List.for_all response_ok reference);
  List.iter
    (fun d ->
      Alcotest.(check (list string))
        (Printf.sprintf "domains %d" d)
        reference
        (answer (Some d)))
    [ 0; 4 ]

let test_engine_request_errors () =
  let engine, telemetry = fresh_engine () in
  let code labels =
    response_error_code
      (Serving.Engine.handle_request engine (infer labels))
  in
  Alcotest.(check string)
    "complete tuple refused" "serve.complete_tuple"
    (code [| Some "v0"; Some "v0"; Some "v1" |]);
  Alcotest.(check string)
    "arity mismatch" "serve.bad_tuple" (code [| None; Some "v0" |]);
  Alcotest.(check string)
    "unknown label" "serve.bad_tuple"
    (code [| None; Some "v0"; Some "purple" |]);
  Alcotest.(check int) "errors counted" 3 (counter telemetry "serve.errors");
  (* shutdown is acknowledged in-band; the transport decision is the
     server loop's, via wants_shutdown *)
  let bye =
    Serving.Engine.handle_request engine (P.req P.Shutdown)
  in
  Alcotest.(check bool) "shutdown acked" true (response_ok bye);
  Alcotest.(check bool)
    "wants_shutdown" true
    (Serving.Engine.wants_shutdown [ (P.req P.Shutdown) ]);
  Alcotest.(check bool)
    "plain batch does not" false
    (Serving.Engine.wants_shutdown [ infer single ])

let with_saved_model f =
  let path = Filename.temp_file "mrsl_serving_test" ".mrsl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Mrsl.Model_io.save path (Lazy.force model);
      f path)

let test_engine_epoch_swap () =
  with_saved_model @@ fun path ->
  let engine, telemetry = fresh_engine ~model_path:path () in
  let before = Serving.Engine.handle_request engine (infer single) in
  let stats () = Mrsl.Posterior_cache.stats (Serving.Engine.cache engine) in
  Alcotest.(check bool)
    "cache warmed" true ((stats ()).Mrsl.Posterior_cache.entries > 0);
  let epoch0 = Serving.Engine.epoch engine in
  (match Serving.Engine.reload engine with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "reload failed: %s" (Mrsl.Error.to_string e));
  Alcotest.(check bool)
    "epoch advanced" true
    (Serving.Engine.epoch engine <> epoch0);
  Alcotest.(check int) "reload counted" 1 (counter telemetry "serve.reloads");
  (* the stale generation is dropped eagerly — nothing keyed to the old
     epoch can ever be served again *)
  Alcotest.(check int)
    "stale cache generation dropped" 0
    (stats ()).Mrsl.Posterior_cache.entries;
  (* same model file, so the posterior payload is unchanged — only the
     epoch stamp moves *)
  let after = Serving.Engine.handle_request engine (infer single) in
  let strip line =
    Json.to_string ~pretty:false
      (Json.Obj
         (List.filter (fun (k, _) -> k <> "epoch") (response_json line)))
  in
  Alcotest.(check string) "payload stable across swap" (strip before)
    (strip after);
  Alcotest.(check bool)
    "epoch stamp moved" true
    (response_epoch before <> response_epoch after)

let test_engine_reload_failures () =
  with_saved_model @@ fun path ->
  let engine, telemetry = fresh_engine ~model_path:path () in
  let epoch0 = Serving.Engine.epoch engine in
  (match Serving.Engine.reload ~path:"/nonexistent/model.mrsl" engine with
  | Ok _ -> Alcotest.fail "reload of a missing file succeeded"
  | Error e ->
      Alcotest.(check string) "load failure code" "serve.reload"
        e.Mrsl.Error.code);
  (* a schema change is refused: live clients hold tuples shaped by the
     old schema *)
  let other_path = Filename.temp_file "mrsl_serving_other" ".mrsl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove other_path with Sys_error _ -> ())
    (fun () ->
      let other =
        Mrsl.Model.learn
          ~params:
            { Mrsl.Model.default_params with support_threshold = 0.01 }
          (Helpers.fig1_relation ())
      in
      Mrsl.Model_io.save other_path other;
      match Serving.Engine.reload ~path:other_path engine with
      | Ok _ -> Alcotest.fail "schema-changing reload succeeded"
      | Error e ->
          Alcotest.(check string) "schema guard code" "serve.reload_schema"
            e.Mrsl.Error.code);
  (* both failures left the old model serving *)
  Alcotest.(check int) "epoch unchanged" epoch0 (Serving.Engine.epoch engine);
  Alcotest.(check int)
    "no swap counted" 0
    (counter telemetry "serve.reloads");
  Alcotest.(check bool)
    "still serving" true
    (response_ok (Serving.Engine.handle_request engine (infer single)))

let test_engine_batch_reload_segments () =
  with_saved_model @@ fun path ->
  let engine, _ = fresh_engine ~model_path:path () in
  let batch =
    [
      infer ~id:(Json.Int 0) single;
      (P.req ~id:(Json.Int 1) (P.Reload None));
      infer ~id:(Json.Int 2) single;
    ]
  in
  match batch_lines engine batch with
  | [ r0; r1; r2 ] ->
      Alcotest.(check bool) "pre-swap request served" true (response_ok r0);
      Alcotest.(check bool) "reload acked" true (response_ok r1);
      Alcotest.(check bool) "post-swap request served" true (response_ok r2);
      (* the swap lands between the two infer requests: the first is
         answered by the old model's epoch, the second by the new one *)
      Alcotest.(check bool)
        "epochs straddle the swap" true
        (response_epoch r0 <> response_epoch r2)
  | rs -> Alcotest.failf "expected 3 responses, got %d" (List.length rs)

(* --- wire bytes against the Json.t reference --------------------------- *)

(* The engine writes posterior lines directly; the reference builds the
   same line the way it always was: a [Json.t] tree through
   [Protocol.ok_line]. The schema's names and labels need escaping, so
   the engine's precomputed keys are checked too. *)
let escaped_schema =
  Relation.Schema.make
    [
      Relation.Attribute.make "col \"a\"" [ "x\\y"; "tab\there"; "plain" ];
      Relation.Attribute.make "b/\001" [ "0"; "1" ];
      Relation.Attribute.make "c" [ "\"q\""; "r" ];
    ]

let escaped_model =
  lazy
    (Mrsl.Model.learn_points
       ~params:{ Mrsl.Model.default_params with support_threshold = 0.01 }
       escaped_schema
       (Array.init 300 (fun i -> [| i mod 3; i mod 3 mod 2; i / 3 mod 2 |])))

let missing_cells labels =
  Array.fold_left (fun n c -> if c = None then n + 1 else n) 0 labels

let reference_attr schema a dist =
  let attr = Relation.Schema.attribute schema a in
  Json.Obj
    [
      ("attr", Json.String (Relation.Attribute.name attr));
      ("index", Json.Int a);
      ( "posterior",
        Json.Obj
          (List.init (Prob.Dist.size dist) (fun v ->
               ( Relation.Attribute.value_label attr v,
                 Json.Float (Prob.Dist.prob dist v) ))) );
    ]

let reference_line ?id ~epoch ~mode ?samples_used attrs =
  P.ok_line ?id ~kind:"posterior"
    ([
       ("epoch", Json.Int epoch);
       ("mode", Json.String mode);
       ("attrs", Json.List attrs);
     ]
    @
    match samples_used with
    | Some n -> [ ("samples_used", Json.Int n) ]
    | None -> [])

(* The reference answer to an infer request at [epoch]: exact for one
   missing cell, the engine's one-tuple Gibbs run for more. *)
let reference_answer model ?id ~epoch labels =
  let schema = Mrsl.Model.schema model in
  let tuple =
    Array.mapi
      (fun i cell ->
        Option.map
          (Relation.Attribute.value_index (Relation.Schema.attribute schema i))
          cell)
      labels
  in
  match Relation.Tuple.missing tuple with
  | [ a ] ->
      reference_line ?id ~epoch ~mode:"exact"
        [ reference_attr schema a (Mrsl.Infer_single.infer model tuple a) ]
  | _ -> (
      let contained =
        Mrsl.Workload.run_contained ~config:engine_config.gibbs
          ~method_:engine_config.method_ ~telemetry:(T.create ())
          ~policy:Mrsl.Workload.Skip_and_report ~seed:engine_config.seed model
          [ tuple ]
      in
      match contained.result.estimates with
      | [ (_, (est : Mrsl.Gibbs.estimate)) ] ->
          reference_line ?id ~epoch ~mode:"gibbs"
            ~samples_used:est.samples_used
            (List.map
               (fun a -> reference_attr schema a (Mrsl.Gibbs.marginal est a))
               est.missing)
      | _ -> Alcotest.fail "reference Gibbs run produced no estimate")

let test_engine_lines_match_reference () =
  let model = Lazy.force escaped_model in
  let path = Filename.temp_file "mrsl_serving_wire" ".mrsl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Mrsl.Model_io.save path model;
  let engine =
    Serving.Engine.of_model ~telemetry:(T.create ()) ~config:engine_config
      ~model_path:path model
  in
  let ids =
    [
      Some (Json.Int 7);
      Some (Json.Int (-3));
      Some (Json.String "q\"uote\\ \n\t\001 é");
      Some Json.Null;
      Some (Json.Obj [ ("k", Json.List [ Json.Int 1; Json.String "x" ]); ("e", Json.Obj []) ]);
      Some (Json.Float 2.5);
      Some (Json.Bool true);
      Some (Json.List []);
      None;
    ]
  in
  let tuples =
    [
      [| None; Some "1"; Some "r" |];
      [| Some "tab\there"; None; Some "\"q\"" |];
      [| Some "x\\y"; Some "0"; None |];
      [| None; Some "1"; Some "r" |];
      [| None; None; Some "r" |];
      [| Some "plain"; None; None |];
    ]
  in
  let requests =
    List.concat_map (fun id -> List.map (fun t -> (id, t)) tuples) ids
  in
  let check_lines what ~epoch_of pairs answers =
    List.iteri
      (fun i ((id, labels), (a : Serving.Engine.answer)) ->
        Alcotest.(check string)
          (Printf.sprintf "%s: line %d" what i)
          (reference_answer (Serving.Engine.model engine) ?id
             ~epoch:(epoch_of i) labels)
          a.line)
      (List.combine pairs answers)
  in
  let infer_req (id, labels) = infer ?id labels in
  (* cold (misses) then warm (hits), one segment each *)
  let e0 = Serving.Engine.epoch engine in
  for pass = 1 to 2 do
    check_lines
      (Printf.sprintf "pass %d" pass)
      ~epoch_of:(fun _ -> e0)
      requests
      (Serving.Engine.handle_batch engine (List.map infer_req requests))
  done;
  (* Cache_only: single-missing hits are served, the rest shed *)
  let pressured =
    Serving.Engine.handle_batch ~pressure:Serving.Engine.Cache_only engine
      (List.map infer_req requests)
  in
  List.iter2
    (fun (id, labels) (a : Serving.Engine.answer) ->
      if missing_cells labels = 1 then begin
        Alcotest.(check bool) "cache hit outcome" true
          (a.outcome = Serving.Engine.Cache_hit);
        Alcotest.(check string) "cache-only hit line"
          (reference_answer model ?id ~epoch:e0 labels)
          a.line
      end
      else begin
        Alcotest.(check string) "gibbs shed" "serve.shed"
          (response_error_code a.line);
        Alcotest.(check bool) "shed echoes the id" true
          (List.assoc_opt "id" (response_json a.line) = id)
      end)
    requests pressured;
  (* a reload between two segments of one batch *)
  let before = List.filteri (fun i _ -> i mod 2 = 0) requests in
  let after = List.filteri (fun i _ -> i mod 2 = 1) requests in
  let answers =
    Serving.Engine.handle_batch engine
      (List.map infer_req before
      @ [ P.req ~id:(Json.Int 99) (P.Reload None) ]
      @ List.map infer_req after)
  in
  let e1 = Serving.Engine.epoch engine in
  Alcotest.(check bool) "reload moved the epoch" true (e1 <> e0);
  let nb = List.length before in
  let answers_before = List.filteri (fun i _ -> i < nb) answers in
  let answers_after = List.filteri (fun i _ -> i > nb) answers in
  check_lines "before reload" ~epoch_of:(fun _ -> e0) before answers_before;
  check_lines "after reload" ~epoch_of:(fun _ -> e1) after answers_after;
  (* the reload dropped the old epoch's entries and nothing has asked
     for this signature since: a Cache_only miss sheds *)
  match
    Serving.Engine.handle_batch ~pressure:Serving.Engine.Cache_only engine
      [ infer ~id:(Json.Int 5) [| Some "x\\y"; None; Some "r" |] ]
  with
  | [ a ] ->
      Alcotest.(check string) "cold cache-only miss shed" "serve.shed"
        (response_error_code a.line)
  | _ -> Alcotest.fail "expected one answer"

(* --- one cache probe per request ------------------------------------- *)

let test_engine_one_probe () =
  let engine, telemetry = fresh_engine () in
  let cache = Serving.Engine.cache engine in
  let probes () =
    let s = Mrsl.Posterior_cache.stats cache in
    s.Mrsl.Posterior_cache.hits + s.Mrsl.Posterior_cache.misses
  in
  let other = [| Some "v1"; None; Some "v0" |] in
  let batches =
    [
      (None, [ single ]);
      (None, [ single; single; other; other; single ]);
      (Some Serving.Engine.Cache_only, [ single; other ]);
      (Some Serving.Engine.Cache_only, [ [| Some "v0"; Some "v0"; None |] ]);
      (None, [ single; [| None; None; Some "v1" |]; other ]);
    ]
  in
  List.iter
    (fun (pressure, tuples) ->
      let singles =
        List.length (List.filter (fun t -> missing_cells t = 1) tuples)
      in
      let p0 = probes () in
      ignore (batch_lines ?pressure engine (List.map (fun t -> infer t) tuples));
      Alcotest.(check int) "one probe per single-missing request" singles
        (probes () - p0))
    batches;
  let s = Mrsl.Posterior_cache.stats cache in
  (* [single] and [other] computed once each; the Cache_only miss is the
     third signature, shed *)
  Alcotest.(check int) "misses" 3 s.Mrsl.Posterior_cache.misses;
  Alcotest.(check int) "hits" 8 s.Mrsl.Posterior_cache.hits;
  (* repeats within one segment fan out, whether the first lookup of
     the segment computed the posterior or found it cached: [single]
     twice more and [other] once more in the second batch. Cache_only
     lookups do not dedup. *)
  Alcotest.(check int) "dedup fan-out" 3 s.Mrsl.Posterior_cache.dedup_fanout;
  Alcotest.(check int) "fan-out counter" 3
    (counter telemetry "cache.dedup_fanout")

(* --- protocol deadlines ---------------------------------------------- *)

let test_protocol_deadline_roundtrip () =
  let r = P.req ~id:(Json.Int 3) ~deadline_ms:250 P.Ping in
  let line = P.request_to_line r in
  Alcotest.(check bool)
    "deadline encoded" true
    (Astring_like.contains line {|"deadline_ms":250|});
  (match P.parse_request (String.trim line) with
  | Ok r' -> Alcotest.(check bool) "deadline round-trips" true (r = r')
  | Error e -> Alcotest.failf "round-trip failed: %s" (Mrsl.Error.to_string e));
  (match P.parse_request {|{"op":"ping"}|} with
  | Ok r' ->
      Alcotest.(check bool)
        "absent stays absent" true
        (r'.P.deadline_ms = None)
  | Error e -> Alcotest.failf "parse failed: %s" (Mrsl.Error.to_string e));
  match P.parse_request {|{"op":"ping","deadline_ms":-5}|} with
  | Ok _ -> Alcotest.fail "negative deadline accepted"
  | Error e ->
      Alcotest.(check string)
        "negative deadline refused" "protocol.bad_request" e.Mrsl.Error.code

(* --- engine load-shedding ladder ------------------------------------- *)

let test_engine_cache_only () =
  let engine, telemetry = fresh_engine () in
  (* Cold: nothing cached — a Cache_only batch sheds instead of
     computing, with its own counter, not serve.errors. *)
  (match
     batch_lines ~pressure:Serving.Engine.Cache_only engine
       [ infer ~id:(Json.Int 0) single ]
   with
  | [ line ] ->
      Alcotest.(check string)
        "cold miss shed" "serve.shed" (response_error_code line)
  | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs));
  Alcotest.(check int) "shed counted" 1 (counter telemetry "serve.shed");
  Alcotest.(check int)
    "shed is not an error" 0
    (counter telemetry "serve.errors");
  (* Warm: a normal request populates the cache; the same request under
     pressure is then answered bit-identically, for free. *)
  let normal = Serving.Engine.handle_request engine (infer single) in
  (match
     batch_lines ~pressure:Serving.Engine.Cache_only engine
       [ infer single ]
   with
  | [ line ] ->
      Alcotest.(check bool) "warm hit served" true (response_ok line);
      Alcotest.(check string) "bit-identical to the normal answer" normal line
  | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs));
  (* multi-missing has no cached rung: always shed under pressure *)
  (match
     batch_lines ~pressure:Serving.Engine.Cache_only engine
       [ infer [| None; None; Some "v1" |] ]
   with
  | [ line ] ->
      Alcotest.(check string)
        "gibbs work shed" "serve.shed" (response_error_code line)
  | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs));
  (* control-plane ops keep answering under pressure *)
  match
    batch_lines ~pressure:Serving.Engine.Cache_only engine
      [ P.req P.Ping ]
  with
  | [ line ] ->
      Alcotest.(check bool) "ping served under pressure" true (response_ok line)
  | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs)

(* --- client resilience ----------------------------------------------- *)

let test_client_backoff () =
  let delay = Serving.Client.backoff_delay ~base:0.05 ~max_delay:1.0 in
  Alcotest.(check (float 1e-12))
    "deterministic" (delay ~seed:9 0) (delay ~seed:9 0);
  (* attempt n lands in [cap/2, cap) with cap = min max_delay base*2^n *)
  List.iter
    (fun attempt ->
      let cap = Float.min 1.0 (0.05 *. (2. ** float_of_int attempt)) in
      let d = delay ~seed:9 attempt in
      Alcotest.(check bool)
        (Printf.sprintf "attempt %d within jitter band" attempt)
        true
        (d >= cap /. 2. && d < cap))
    [ 0; 1; 2; 3; 8; 20 ];
  Alcotest.(check bool)
    "seed de-correlates the herd" true
    (delay ~seed:1 4 <> delay ~seed:2 4)

(* --- server, over a real socket -------------------------------------- *)

(* Run [f endpoint] against a live daemon in another domain, then stop
   it and return the engine's (private) telemetry registry — counter
   assertions happen after [Domain.join], which orders the server
   domain's writes before our reads. *)
let with_server ?(configure = fun c -> c) ?sock ?model f =
  let engine, telemetry = fresh_engine ?model () in
  let sock =
    match sock with
    | Some s -> s
    | None ->
        let s = Filename.temp_file "mrsl-serving-test" ".sock" in
        Sys.remove s;
        s
  in
  let endpoint = P.Unix_socket sock in
  let config =
    configure { (Serving.Server.default_config endpoint) with tick = 0.005 }
  in
  let stop = Atomic.make false in
  let ready = Atomic.make false in
  let server =
    Domain.spawn (fun () ->
        Serving.Server.run ~stop
          ~on_ready:(fun () -> Atomic.set ready true)
          config engine)
  in
  while not (Atomic.get ready) do
    Domain.cpu_relax ()
  done;
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join server)
    (fun () -> f endpoint);
  telemetry

(* Raw fd plumbing: the resilient {!Serving.Client} hides exactly the
   degenerate peer behaviors (half-close, torn frames, never reading)
   these tests need to produce. *)
let raw_connect = function
  | P.Unix_socket path ->
      (match Sys.os_type with
      | "Unix" | "Cygwin" -> Sys.set_signal Sys.sigpipe Sys.Signal_ignore
      | _ -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      fd
  | P.Tcp _ -> Alcotest.fail "tests use unix sockets"

let raw_close fd = try Unix.close fd with Unix.Unix_error _ -> ()

let read_line_fd ?(timeout = 5.) fd =
  let deadline = Mrsl.Clock.now () +. timeout in
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 512 in
  let rec go () =
    let data = Buffer.contents buf in
    match String.index_opt data '\n' with
    | Some i -> String.sub data 0 i
    | None ->
        let remaining = deadline -. Mrsl.Clock.now () in
        if remaining <= 0. then Alcotest.fail "read_line_fd timed out";
        (match Unix.select [ fd ] [] [] remaining with
        | [], _, _ -> Alcotest.fail "read_line_fd timed out"
        | _ -> (
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 -> raise End_of_file
            | n -> Buffer.add_subbytes buf chunk 0 n));
        go ()
  in
  go ()

(* Drain until the server closes the connection; fail on timeout. *)
let expect_eof ?(timeout = 5.) fd =
  let deadline = Mrsl.Clock.now () +. timeout in
  let chunk = Bytes.create 512 in
  let rec go () =
    let remaining = deadline -. Mrsl.Clock.now () in
    if remaining <= 0. then Alcotest.fail "expected EOF, got silence";
    match Unix.select [ fd ] [] [] remaining with
    | [], _, _ -> Alcotest.fail "expected EOF, got silence"
    | _ -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | _ -> go ()
        | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
            ())
  in
  go ()

let test_server_half_close () =
  let telemetry =
    with_server @@ fun endpoint ->
    let fd = raw_connect endpoint in
    Fun.protect
      ~finally:(fun () -> raw_close fd)
      (fun () ->
        let line = "{\"op\":\"ping\"}\n" in
        ignore (Unix.write_substring fd line 0 (String.length line));
        (* EOF with a response still owed: the server must treat this as
           a half-close and flush, not drop the pong. *)
        Unix.shutdown fd Unix.SHUTDOWN_SEND;
        let resp = read_line_fd fd in
        Alcotest.(check bool) "pong after half-close" true (response_ok resp);
        expect_eof fd)
  in
  Alcotest.(check int)
    "clean close is not an error" 0
    (counter telemetry "serve.errors")

let test_server_truncated_frame () =
  let telemetry =
    with_server @@ fun endpoint ->
    let fd = raw_connect endpoint in
    ignore (Unix.write_substring fd "{\"op\":\"pi" 0 9);
    raw_close fd;
    (* A later probe round-trip guarantees the server has processed the
       EOF (its readiness predates the probe's accept). *)
    let c = Serving.Client.connect_retry ~timeout:5. endpoint in
    Fun.protect
      ~finally:(fun () -> Serving.Client.close c)
      (fun () ->
        Alcotest.(check bool)
          "daemon alive" true
          (response_ok (Serving.Client.rpc c (P.req P.Ping))))
  in
  Alcotest.(check int)
    "truncated frame counted" 1
    (counter telemetry "serve.errors")

let test_server_deep_frame () =
  let telemetry =
    with_server @@ fun endpoint ->
    let c = Serving.Client.connect ~timeout:5. endpoint in
    Fun.protect
      ~finally:(fun () -> Serving.Client.close c)
      (fun () ->
        let t0 = Mrsl.Clock.now () in
        Serving.Client.send_partial c (nested_frame (1 lsl 20) ^ "\n");
        let reply = Serving.Client.recv c in
        let dt = Mrsl.Clock.now () -. t0 in
        Alcotest.(check string) "deep frame refused" "protocol.parse"
          (response_error_code reply);
        Alcotest.(check bool)
          (Printf.sprintf "answered in %.3f s" dt)
          true (dt < 0.25);
        Alcotest.(check bool)
          "next request answered" true
          (response_ok (Serving.Client.rpc c (P.req P.Ping))))
  in
  Alcotest.(check int) "refusal counted" 1 (counter telemetry "serve.errors")

(* A one-shot peer on a fresh Unix socket: [serve fd] writes whatever
   the test needs to the accepted connection, which is then closed. *)
let with_peer serve f =
  let path = Filename.temp_file "mrsl-client-test" ".sock" in
  Sys.remove path;
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      raw_close listener;
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Unix.bind listener (Unix.ADDR_UNIX path);
      Unix.listen listener 1;
      let peer =
        Domain.spawn (fun () ->
            let fd, _ = Unix.accept listener in
            Fun.protect ~finally:(fun () -> raw_close fd) (fun () -> serve fd))
      in
      Fun.protect
        ~finally:(fun () -> Domain.join peer)
        (fun () -> f (P.Unix_socket path)))

let write_string fd s =
  let off = ref 0 in
  while !off < String.length s do
    off := !off + Unix.write_substring fd s !off (String.length s - !off)
  done

let test_client_line_framing () =
  (* Lines that straddle the client's 4096-byte reads, a CRLF whose CR
     ends one read and whose LF starts the next, a line longer than two
     reads, and an unterminated tail. *)
  let lines =
    List.init 60 (fun i -> String.make (1 + (i * 37 mod 211)) (Char.chr (97 + (i mod 26))))
  in
  let body = String.concat "\n" lines ^ "\n" in
  let cr_line = String.make (4095 - (String.length body mod 4096)) 'c' in
  let long = String.make 9000 'L' in
  let expected = lines @ [ cr_line; long; "crlf"; "" ; "last" ] in
  let stream =
    body ^ cr_line ^ "\r\n" ^ long ^ "\n" ^ "crlf\r\n" ^ "\r\n" ^ "last\n"
    ^ "no newline at the end"
  in
  Alcotest.(check int) "CR ends a 4096-byte read" 4095
    ((String.length body + String.length cr_line) mod 4096);
  with_peer (fun fd -> write_string fd stream) @@ fun endpoint ->
  let c = Serving.Client.connect ~timeout:5. endpoint in
  Fun.protect
    ~finally:(fun () -> Serving.Client.close c)
    (fun () ->
      List.iteri
        (fun i want ->
          Alcotest.(check string) (Printf.sprintf "line %d" i) want
            (Serving.Client.recv c))
        expected;
      Alcotest.check_raises "unterminated tail is not a line" End_of_file
        (fun () -> ignore (Serving.Client.recv c)))

let test_client_scrape_keeps_tail () =
  let body = String.concat "\n" (List.init 500 (fun i -> Printf.sprintf "m_%d %d" i i)) in
  with_peer
    (fun fd ->
      let buf = Bytes.create 512 in
      ignore (Unix.read fd buf 0 512);
      write_string fd ("HTTP/1.0 200 OK\r\nContent-Type: text/plain\r\n\r\n" ^ body))
  @@ fun endpoint ->
  Alcotest.(check string) "body, unterminated last line included" body
    (Serving.Client.scrape_metrics ~timeout:5. endpoint)

let test_client_stats_depth_bound () =
  (* A peer that answers [stats] with 100 000 nested [\[]: the reply is
     refused at the wire depth bound, not parsed to the bottom. *)
  with_peer
    (fun fd ->
      let buf = Bytes.create 512 in
      ignore (Unix.read fd buf 0 512);
      write_string fd (nested_frame 100_000 ^ "\n"))
  @@ fun endpoint ->
  let c = Serving.Client.connect ~timeout:5. endpoint in
  Fun.protect
    ~finally:(fun () -> Serving.Client.close c)
    (fun () ->
      let t0 = Mrsl.Clock.now () in
      match Serving.Client.stats_json c with
      | _ -> Alcotest.fail "100 000-deep stats reply parsed"
      | exception Failure msg ->
          let dt = Mrsl.Clock.now () -. t0 in
          Alcotest.(check bool)
            (Printf.sprintf "message names the limit: %s" msg)
            true
            (Astring_like.contains msg
               (Printf.sprintf "deeper than %d levels" P.max_depth));
          Alcotest.(check bool)
            (Printf.sprintf "refused in %.3f s" dt)
            true (dt < 1.))

let test_server_idle_kill () =
  let telemetry =
    with_server ~configure:(fun c -> { c with idle_timeout = 0.15 })
    @@ fun endpoint ->
    let fd = raw_connect endpoint in
    Fun.protect
      ~finally:(fun () -> raw_close fd)
      (fun () ->
        (* Slow-loris: keep dripping bytes that never complete a frame.
           The reaper keys on completed frames, so the drip must not
           keep the connection alive. *)
        try
          for _ = 1 to 50 do
            ignore (Unix.write_substring fd "x" 0 1);
            Unix.sleepf 0.02
          done;
          Alcotest.fail "slow-loris connection survived the reaper"
        with Unix.Unix_error _ -> ())
  in
  Alcotest.(check int)
    "idle kill counted" 1
    (counter telemetry "serve.idle_killed")

let test_server_out_buf_kill () =
  let telemetry =
    with_server ~configure:(fun c ->
        { c with out_buf_max = 512; idle_timeout = 0. })
    @@ fun endpoint ->
    (* Stalled writes force responses to pile up server-side (an
       un-injected flush would just park them in the socket buffer). *)
    Mrsl.Fault_inject.with_config
      { Mrsl.Fault_inject.disabled with seed = 5; stall_write_rate = 1.0 }
      (fun () ->
        let fd = raw_connect endpoint in
        Fun.protect
          ~finally:(fun () -> raw_close fd)
          (fun () ->
            let ping = "{\"op\":\"ping\"}\n" in
            (try
               for _ = 1 to 200 do
                 ignore (Unix.write_substring fd ping 0 (String.length ping))
               done
             with Unix.Unix_error _ -> ());
            (* never read a byte: the 200 pongs must cross the 512-byte
               ceiling and get this connection dropped *)
            expect_eof ~timeout:10. fd))
  in
  Alcotest.(check bool)
    "out-buffer kill counted" true
    (counter telemetry "serve.out_buf_killed" >= 1)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let test_server_socket_probe () =
  (* A live server's socket must never be stolen: a second startup on
     the same path refuses instead of unlinking and rebinding. *)
  ignore
    ( with_server @@ fun endpoint ->
      let engine2, _ = fresh_engine () in
      (match
         Serving.Server.run
           { (Serving.Server.default_config endpoint) with tick = 0.005 }
           engine2
       with
      | () -> Alcotest.fail "second server started on a live socket"
      | exception Failure msg ->
          Alcotest.(check bool)
            "refusal names the live server" true (contains msg "listening"));
      (* ...and the live server is undisturbed by the probe *)
      let c = Serving.Client.connect_retry ~timeout:5. endpoint in
      Fun.protect
        ~finally:(fun () -> Serving.Client.close c)
        (fun () ->
          Alcotest.(check bool)
            "original server undisturbed" true
            (response_ok (Serving.Client.rpc c (P.req P.Ping)))) );
  (* A dead server's leftover (nobody holds the listen — the probe sees
     ECONNREFUSED) is unlinked and taken over. *)
  let sock = Filename.temp_file "mrsl-serving-stale" ".sock" in
  Sys.remove sock;
  let dead = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind dead (Unix.ADDR_UNIX sock);
  Unix.close dead;
  ignore
    ( with_server ~sock @@ fun endpoint ->
      let c = Serving.Client.connect_retry ~timeout:5. endpoint in
      Fun.protect
        ~finally:(fun () -> Serving.Client.close c)
        (fun () ->
          Alcotest.(check bool)
            "stale socket taken over" true
            (response_ok (Serving.Client.rpc c (P.req P.Ping)))) )

let test_server_out_buf_total_kill () =
  let telemetry =
    (* Per-connection ceiling far out of reach: only the aggregate
       budget can be what kills the non-reading peer. *)
    with_server ~configure:(fun c ->
        { c with out_buf_max = max_int; out_buf_total = 512; idle_timeout = 0. })
    @@ fun endpoint ->
    Mrsl.Fault_inject.with_config
      { Mrsl.Fault_inject.disabled with seed = 5; stall_write_rate = 1.0 }
      (fun () ->
        let fd = raw_connect endpoint in
        Fun.protect
          ~finally:(fun () -> raw_close fd)
          (fun () ->
            let ping = "{\"op\":\"ping\"}\n" in
            (try
               for _ = 1 to 200 do
                 ignore (Unix.write_substring fd ping 0 (String.length ping))
               done
             with Unix.Unix_error _ -> ());
            expect_eof ~timeout:10. fd))
  in
  Alcotest.(check bool)
    "aggregate out-buffer kill counted" true
    (counter telemetry "serve.out_buf_killed" >= 1)

let test_server_deadline_shed () =
  let telemetry =
    with_server @@ fun endpoint ->
    let c = Serving.Client.connect_retry ~timeout:5. endpoint in
    Fun.protect
      ~finally:(fun () -> Serving.Client.close c)
      (fun () ->
        let line = Serving.Client.rpc c (P.req ~deadline_ms:0 (P.Infer single)) in
        Alcotest.(check string)
          "zero budget shed before computing" "serve.deadline_exceeded"
          (response_error_code line);
        let ok =
          Serving.Client.rpc c (P.req ~deadline_ms:30_000 (P.Infer single))
        in
        Alcotest.(check bool) "roomy budget served" true (response_ok ok))
  in
  Alcotest.(check int)
    "deadline shed counted" 1
    (counter telemetry "serve.deadline_exceeded");
  Alcotest.(check int)
    "shed is not an error" 0
    (counter telemetry "serve.errors")

let test_server_conn_cap () =
  let telemetry =
    with_server ~configure:(fun c -> { c with max_conns = 1 })
    @@ fun endpoint ->
    let c1 = Serving.Client.connect_retry ~timeout:5. endpoint in
    Fun.protect
      ~finally:(fun () -> Serving.Client.close c1)
      (fun () ->
        (* the ping round-trip pins c1 as accepted before c2 arrives *)
        Alcotest.(check bool)
          "first connection serves" true
          (response_ok (Serving.Client.rpc c1 (P.req P.Ping)));
        let fd = raw_connect endpoint in
        Fun.protect
          ~finally:(fun () -> raw_close fd)
          (fun () ->
            let line = read_line_fd fd in
            Alcotest.(check string)
              "structured reject" "serve.conn_rejected"
              (response_error_code line);
            expect_eof fd);
        Alcotest.(check bool)
          "survivor unaffected" true
          (response_ok (Serving.Client.rpc c1 (P.req P.Ping))))
  in
  Alcotest.(check int)
    "reject counted" 1
    (counter telemetry "serve.conn_rejected")

(* --- request-scoped observability ------------------------------------ *)

let test_admission_gauge_fresh () =
  (* Regression: the serve.queue_depth gauge used to be published only
     on enqueue, so a drain left the pre-drain depth visible until the
     next request arrived. Every queue mutation must publish. *)
  let telemetry = T.create () in
  let q = Serving.Admission.create ~telemetry ~capacity:4 () in
  let depth () =
    match T.gauge_value telemetry "serve.queue_depth" with
    | Some d -> int_of_float d
    | None -> Alcotest.fail "serve.queue_depth gauge never published"
  in
  Alcotest.(check bool) "a accepted" true (Serving.Admission.try_add q "a");
  Alcotest.(check int) "enqueue publishes" 1 (depth ());
  Alcotest.(check bool) "b accepted" true (Serving.Admission.try_add q "b");
  Alcotest.(check bool) "c accepted" true (Serving.Admission.try_add q "c");
  Alcotest.(check int) "enqueues publish" 3 (depth ());
  ignore (Serving.Admission.drain ~max:2 q);
  Alcotest.(check int) "drain publishes too" 1 (depth ());
  ignore (Serving.Admission.drain ~max:10 q);
  Alcotest.(check int) "empty published" 0 (depth ())

let summary_of telemetry name =
  match T.histogram telemetry name with
  | Some s -> s
  | None -> Alcotest.failf "histogram %s missing" name

let test_server_phase_histograms () =
  let telemetry =
    with_server @@ fun endpoint ->
    let c = Serving.Client.connect_retry ~timeout:5. endpoint in
    Fun.protect
      ~finally:(fun () -> Serving.Client.close c)
      (fun () ->
        for _ = 1 to 5 do
          Alcotest.(check bool)
            "served" true
            (response_ok (Serving.Client.rpc c (infer single)))
        done;
        let shed =
          Serving.Client.rpc c (P.req ~deadline_ms:0 (P.Infer single))
        in
        Alcotest.(check string)
          "zero budget shed" "serve.deadline_exceeded"
          (response_error_code shed))
  in
  let summary = summary_of telemetry in
  let total = summary "serve.latency_seconds" in
  let qw = summary "serve.queue_wait_seconds" in
  let cp = summary "serve.compute_seconds" in
  let fl = summary "serve.flush_wait_seconds" in
  (* every finalized request lands one observation in each phase *)
  Alcotest.(check int) "six requests finalized" 6 total.T.count;
  Alcotest.(check int) "queue-wait count matches" total.T.count qw.T.count;
  Alcotest.(check int) "compute count matches" total.T.count cp.T.count;
  Alcotest.(check int) "flush-wait count matches" total.T.count fl.T.count;
  (* the phases decompose the total: all four are derived from the same
     monotonic stamps, so the means sum to the total's mean up to float
     rounding — sum-consistency by construction, not by tolerance *)
  let sum = qw.T.mean +. cp.T.mean +. fl.T.mean in
  Alcotest.(check bool)
    (Printf.sprintf "phase means sum to total (%g vs %g)" sum total.T.mean)
    true
    (Float.abs (sum -. total.T.mean) <= 1e-9 +. (1e-6 *. total.T.mean));
  (* outcome-labelled latency families split the same requests *)
  Alcotest.(check int)
    "ok-labelled observations" 5
    (summary "serve.latency_seconds.ok").T.count;
  Alcotest.(check int)
    "deadline-labelled observations" 1
    (summary "serve.latency_seconds.deadline_exceeded").T.count

let test_server_request_flows () =
  (* Every admitted request becomes a trace flow that balances: one
     admission-time start (server-loop track) matched by a finish on the
     batch that served it — plus, for multi-missing work, a second arrow
     into the executor worker that ran the tuple. *)
  let (_ : T.t), sink =
    Mrsl.Trace.with_sink (fun () ->
        with_server @@ fun endpoint ->
        let c = Serving.Client.connect_retry ~timeout:5. endpoint in
        Fun.protect
          ~finally:(fun () -> Serving.Client.close c)
          (fun () ->
            ignore (Serving.Client.rpc c (P.req P.Ping));
            ignore (Serving.Client.rpc c (infer single));
            ignore
              (Serving.Client.rpc c (infer [| None; None; Some "v1" |]));
            let shed =
              Serving.Client.rpc c (P.req ~deadline_ms:0 (P.Infer single))
            in
            Alcotest.(check string)
              "zero budget shed" "serve.deadline_exceeded"
              (response_error_code shed)))
  in
  let flows : (int, int * int) Hashtbl.t = Hashtbl.create 8 in
  let done_instants = ref 0 in
  List.iter
    (fun (ev : Mrsl.Trace.event) ->
      if ev.cat = "serve" && ev.name = "serve.request" then begin
        let s, f =
          Option.value ~default:(0, 0) (Hashtbl.find_opt flows ev.id)
        in
        match ev.phase with
        | Mrsl.Trace.Flow_start -> Hashtbl.replace flows ev.id (s + 1, f)
        | Mrsl.Trace.Flow_end -> Hashtbl.replace flows ev.id (s, f + 1)
        | _ -> ()
      end;
      if ev.cat = "serve" && ev.name = "serve.request.done" then
        incr done_instants)
    (Mrsl.Trace.events sink);
  Alcotest.(check int) "one flow per admitted request" 4
    (Hashtbl.length flows);
  Alcotest.(check int) "one lifecycle instant per request" 4 !done_instants;
  Hashtbl.iter
    (fun id (s, f) ->
      Alcotest.(check bool)
        (Printf.sprintf "flow %d balanced (%d starts, %d ends)" id s f)
        true
        (s = f && s >= 1))
    flows

let test_server_observation_only () =
  (* Tracing plus access logging must be pure observation: the exact
     same request stream yields bit-identical response lines with and
     without them. The multi-missing request routes the flow through
     Workload.run_contained, so this also pins the worker-side hook. *)
  let workload endpoint =
    let c = Serving.Client.connect_retry ~timeout:5. endpoint in
    Fun.protect
      ~finally:(fun () -> Serving.Client.close c)
      (fun () ->
        List.map
          (fun req -> Serving.Client.rpc c req)
          [
            infer ~id:(Json.Int 0) single;
            infer ~id:(Json.Int 1) single;
            infer ~id:(Json.Int 2) [| None; None; Some "v1" |];
            infer ~id:(Json.Int 3) [| Some "v0"; None; None |];
          ])
  in
  let model = fresh_model () in
  let plain = ref [] in
  ignore (with_server ~model (fun endpoint -> plain := workload endpoint));
  let log_path = Filename.temp_file "mrsl-serving-obs" ".log" in
  let observed = ref [] in
  Fun.protect
    ~finally:(fun () -> try Sys.remove log_path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out log_path in
      let (_ : T.t), (_ : Mrsl.Trace.sink) =
        Mrsl.Trace.with_sink (fun () ->
            Fun.protect
              ~finally:(fun () -> close_out oc)
              (fun () ->
                with_server ~model
                  ~configure:(fun c ->
                    { c with access_log = Some oc; log_sample = 1.0 })
                  (fun endpoint -> observed := workload endpoint)))
      in
      Alcotest.(check bool)
        "every request logged" true
        (List.length
           (In_channel.with_open_text log_path In_channel.input_lines)
        >= 4));
  Alcotest.(check (list string))
    "posteriors bit-identical under observation" !plain !observed

(* The timing fields vary run to run; everything else — which requests
   got logged and their identity/outcome fields — is the deterministic
   part the test pins. *)
let strip_access_line line =
  let volatile =
    [ "ts"; "queue_wait_ms"; "compute_ms"; "flush_ms"; "total_ms" ]
  in
  match Json.of_string line with
  | Json.Obj fields ->
      Json.to_string ~pretty:false
        (Json.Obj
           (List.filter (fun (k, _) -> not (List.mem k volatile)) fields))
  | _ -> Alcotest.failf "access-log line is not a JSON object: %s" line

let test_server_access_log_deterministic () =
  let model = fresh_model () in
  let run_once () =
    let path = Filename.temp_file "mrsl-serving-access" ".log" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        let oc = open_out path in
        ignore
          (Fun.protect
             ~finally:(fun () -> close_out oc)
             (fun () ->
               with_server ~model
                 ~configure:(fun c ->
                   (* slow_ms out of reach: only the deterministic
                      sampler and the always-log outcomes decide *)
                   {
                     c with
                     access_log = Some oc;
                     log_sample = 0.5;
                     slow_ms = 1e9;
                   })
                 (fun endpoint ->
                   let c =
                     Serving.Client.connect_retry ~timeout:5. endpoint
                   in
                   Fun.protect
                     ~finally:(fun () -> Serving.Client.close c)
                     (fun () ->
                       for i = 0 to 19 do
                         ignore
                           (Serving.Client.rpc c
                              (infer ~id:(Json.Int i) single))
                       done;
                       ignore
                         (Serving.Client.rpc c
                            (P.req ~id:(Json.Int 99) ~deadline_ms:0
                               (P.Infer single)))))));
        List.map strip_access_line
          (In_channel.with_open_text path In_channel.input_lines))
  in
  let first = run_once () in
  let second = run_once () in
  Alcotest.(check (list string))
    "same seed + workload => identical sampled log" first second;
  (* the sampler really sampled (not all 21, not none) ... *)
  let n = List.length first in
  Alcotest.(check bool)
    (Printf.sprintf "sampling dropped some lines (%d of 21)" n)
    true
    (n > 0 && n < 21);
  (* ... and the deadline shed bypassed it: sheds are always logged *)
  Alcotest.(check bool)
    "shed always logged" true
    (List.exists
       (fun l -> Astring_like.contains l {|"outcome":"deadline_exceeded"|})
       first)

let exposition_value body name =
  let v = ref None in
  String.split_on_char '\n' body
  |> List.iter (fun line ->
         match String.split_on_char ' ' line with
         | [ n; value ] when n = name -> v := float_of_string_opt value
         | _ -> ());
  !v

let test_server_metrics_under_burst () =
  (* A Prometheus scrape concurrent with a pipelined inference burst:
     the scrape must answer promptly (the client timeout is the watchdog)
     and the request counter must be monotone across scrapes. *)
  let windows = 8 and window = 16 in
  let telemetry =
    with_server @@ fun endpoint ->
    let burst =
      Domain.spawn (fun () ->
          let c = Serving.Client.connect_retry ~timeout:10. endpoint in
          Fun.protect
            ~finally:(fun () -> Serving.Client.close c)
            (fun () ->
              for w = 0 to windows - 1 do
                for i = 0 to window - 1 do
                  Serving.Client.send c
                    (infer ~id:(Json.Int ((w * window) + i)) single)
                done;
                for _ = 1 to window do
                  if not (response_ok (Serving.Client.recv c)) then
                    failwith "burst request failed"
                done
              done))
    in
    let last = ref (-1.) in
    for _ = 1 to 5 do
      let body = Serving.Client.scrape_metrics ~timeout:5. endpoint in
      (* A scrape can land before the first request does, when the
         counter is not in the registry yet: absent reads as zero. *)
      let v =
        Option.value ~default:0.
          (exposition_value body "mrsl_serve_requests_total")
      in
      Alcotest.(check bool)
        (Printf.sprintf "counter monotone (%.0f after %.0f)" v !last)
        true (v >= !last);
      last := v
    done;
    Domain.join burst
  in
  Alcotest.(check int)
    "every burst request served" (windows * window)
    (counter telemetry "serve.requests");
  Alcotest.(check bool)
    "scrapes counted" true
    (counter telemetry "serve.metrics_scrapes" >= 5)

let suite =
  [
    ("protocol round-trip", `Quick, test_protocol_roundtrip);
    ("protocol structured errors", `Quick, test_protocol_errors);
    ("protocol deadline_ms", `Quick, test_protocol_deadline_roundtrip);
    ("framing reassembly", `Quick, test_framing);
    ("framing oversize poisons", `Quick, test_framing_oversize);
    ("admission bound + FIFO", `Quick, test_admission);
    ("batch dedups identical requests", `Quick, test_engine_batch_dedup);
    ("gibbs requests deterministic", `Quick, test_engine_gibbs_deterministic);
    ("engine domains has no effect", `Quick, test_engine_ignores_domains);
    ("request errors structured", `Quick, test_engine_request_errors);
    ("epoch swap invalidates cache", `Quick, test_engine_epoch_swap);
    ("reload failures keep serving", `Quick, test_engine_reload_failures);
    ("reload splits a batch", `Quick, test_engine_batch_reload_segments);
    ("cache-only pressure rung", `Quick, test_engine_cache_only);
    ("engine lines = ok_line reference", `Quick, test_engine_lines_match_reference);
    ("engine one probe per request", `Quick, test_engine_one_probe);
    ("protocol depth bound", `Quick, test_protocol_depth_bound);
    ("server refuses a deep frame", `Quick, test_server_deep_frame);
    ("client line framing", `Quick, test_client_line_framing);
    ("client scrape keeps the tail", `Quick, test_client_scrape_keeps_tail);
    ("client stats depth bound", `Quick, test_client_stats_depth_bound);
    ("client backoff deterministic", `Quick, test_client_backoff);
    ("server half-close flushes", `Quick, test_server_half_close);
    ("server counts truncated frames", `Quick, test_server_truncated_frame);
    ("server reaps slow-loris", `Quick, test_server_idle_kill);
    ("server enforces output ceiling", `Quick, test_server_out_buf_kill);
    ( "server enforces aggregate output budget",
      `Quick,
      test_server_out_buf_total_kill );
    ("server sheds expired deadlines", `Quick, test_server_deadline_shed);
    ("server rejects past the conn cap", `Quick, test_server_conn_cap);
    ("socket probe: live kept, stale reclaimed", `Quick, test_server_socket_probe);
    ("queue-depth gauge fresh at every mutation", `Quick, test_admission_gauge_fresh);
    ("phase histograms sum-consistent", `Quick, test_server_phase_histograms);
    ("request flows balance in the trace", `Quick, test_server_request_flows);
    ("tracing and logging observation-only", `Quick, test_server_observation_only);
    ( "access log deterministically sampled",
      `Quick,
      test_server_access_log_deterministic );
    ("metrics scrape concurrent with burst", `Quick, test_server_metrics_under_burst);
  ]
