(* Tests for the event-level tracing subsystem (Mrsl.Trace): sink
   lifecycle, bounded buffers with drop counting, deterministic flow
   ids, Chrome trace-event export (and its re-parseability), Prometheus
   exposition, and the observation-only guarantee — a traced parallel
   run must be bit-identical to an untraced one. *)

open Helpers
module Tr = Mrsl.Trace
module Json = Mrsl.Telemetry.Json

(* Make sure a failed test never leaks an installed sink into the rest
   of the suite. *)
let with_fresh_sink ?capacity_per_domain f =
  let sink = Tr.create ?capacity_per_domain () in
  Tr.install sink;
  Fun.protect ~finally:(fun () -> ignore (Tr.uninstall ())) (fun () -> f sink)

let test_disabled_is_noop () =
  Alcotest.(check bool) "no sink installed" false (Tr.enabled ());
  (* All emission helpers must be silent no-ops without a sink. *)
  Tr.instant ~cat:"gibbs" "nothing";
  Tr.counter ~cat:"gibbs" "nothing" [ ("x", 1.) ];
  Tr.flow_start ~cat:"sched" ~id:7 "nothing";
  Tr.flow_end ~cat:"sched" ~id:7 "nothing";
  Alcotest.(check int) "complete still runs f" 41
    (Tr.complete ~cat:"gibbs" "nothing" (fun () -> 41));
  Alcotest.(check bool) "still disabled" false (Tr.enabled ())

let test_sink_captures_events () =
  let sink =
    with_fresh_sink (fun sink ->
        Alcotest.(check bool) "enabled" true (Tr.enabled ());
        Tr.instant ~cat:"io" "a";
        Tr.counter ~cat:"gibbs" "conv" [ ("rhat", 1.01); ("ess", 42.) ];
        ignore (Tr.complete ~cat:"mine" "slice" (fun () -> Sys.opaque_identity 1));
        Tr.flow_start ~cat:"share" ~id:99 "share.donate";
        Tr.flow_end ~cat:"share" ~id:99 "share.donate";
        sink)
  in
  Alcotest.(check int) "five events" 5 (Tr.event_count sink);
  Alcotest.(check int) "no drops" 0 (Tr.dropped sink);
  let evs = Tr.events sink in
  (* sorted by timestamp *)
  let rec sorted = function
    | (a : Tr.event) :: (b :: _ as tl) -> a.ts_ns <= b.ts_ns && sorted tl
    | _ -> true
  in
  Alcotest.(check bool) "sorted by ts" true (sorted evs);
  let phase_of name =
    (List.find (fun (e : Tr.event) -> e.name = name) evs).phase
  in
  (match phase_of "slice" with
  | Tr.Complete d -> Alcotest.(check bool) "duration >= 0" true (d >= 0)
  | _ -> Alcotest.fail "complete slice phase");
  Alcotest.(check bool) "instant" true (phase_of "a" = Tr.Instant);
  Alcotest.(check bool) "counter" true (phase_of "conv" = Tr.Counter);
  let flows =
    List.filter (fun (e : Tr.event) -> e.cat = "share") evs
    |> List.map (fun (e : Tr.event) -> (e.phase, e.id))
  in
  Alcotest.(check bool) "flow pair carries the id" true
    (List.mem (Tr.Flow_start, 99) flows && List.mem (Tr.Flow_end, 99) flows)

let test_overflow_drops_counted () =
  let sink =
    with_fresh_sink ~capacity_per_domain:8 (fun sink ->
        for i = 1 to 100 do
          Tr.instant ~cat:"io" (string_of_int i)
        done;
        sink)
  in
  Alcotest.(check int) "ring keeps capacity" 8 (Tr.event_count sink);
  Alcotest.(check int) "drops counted, not resized" 92 (Tr.dropped sink)

let test_uninstall_returns_sink () =
  let sink = Tr.create () in
  Tr.install sink;
  Tr.instant ~cat:"io" "x";
  (match Tr.uninstall () with
  | Some s -> Alcotest.(check int) "same sink back" 1 (Tr.event_count s)
  | None -> Alcotest.fail "uninstall lost the sink");
  Alcotest.(check bool) "disabled after uninstall" false (Tr.enabled ())

let test_flow_ids_deterministic () =
  let a = Tr.task_flow_id ~seed:17 ~node:3 in
  Alcotest.(check bool) "stable" true (a = Tr.task_flow_id ~seed:17 ~node:3);
  Alcotest.(check bool) "nonzero" true (a <> 0);
  Alcotest.(check bool) "node-sensitive" true
    (a <> Tr.task_flow_id ~seed:17 ~node:4);
  Alcotest.(check bool) "seed-sensitive" true
    (a <> Tr.task_flow_id ~seed:18 ~node:3);
  Alcotest.(check bool) "kind-sensitive (task vs share)" true
    (a <> Tr.share_flow_id ~seed:17 ~parent:3 ~child:0);
  Alcotest.(check bool) "share ids distinct" true
    (Tr.share_flow_id ~seed:17 ~parent:1 ~child:2
    <> Tr.share_flow_id ~seed:17 ~parent:2 ~child:1)

let test_chrome_export_reparses () =
  let sink =
    with_fresh_sink (fun sink ->
        Tr.instant ~cat:"io" "a";
        ignore (Tr.complete ~cat:"mine" "m" (fun () -> ()));
        Tr.counter ~cat:"gibbs" "gibbs.convergence" [ ("rhat", 1.2) ];
        Tr.flow_start ~cat:"share" ~id:5 "share.donate";
        Tr.flow_end ~cat:"share" ~id:5 "share.donate";
        sink)
  in
  let json = Json.of_string (Tr.chrome_string sink) in
  (match Json.member "traceEvents" json with
  | Some (Json.List evs) ->
      (* every retained event plus >= 1 metadata record *)
      Alcotest.(check bool) "events + metadata" true
        (List.length evs >= Tr.event_count sink + 1);
      let phases =
        List.filter_map
          (fun e ->
            match Json.member "ph" e with
            | Some (Json.String p) -> Some p
            | _ -> None)
          evs
      in
      List.iter
        (fun p ->
          Alcotest.(check bool) ("phase " ^ p) true (List.mem p phases))
        [ "M"; "X"; "i"; "C"; "s"; "f" ]
  | _ -> Alcotest.fail "no traceEvents");
  (match Json.member "dropped" json with
  | Some (Json.Int 0) -> ()
  | _ -> Alcotest.fail "dropped field");
  (* the summarizer accepts its own export *)
  let summary = Tr.summarize json in
  Alcotest.(check bool) "summary mentions tracks" true
    (Astring_like.contains summary "tracks:");
  Alcotest.check_raises "summarize rejects non-traces"
    (Invalid_argument "Trace.summarize: no traceEvents array") (fun () ->
      ignore (Tr.summarize (Json.Obj [ ("x", Json.Int 1) ])))

(* Property: whatever mix of events a run emits, the Chrome export is
   valid JSON that re-parses with the project's own parser (satellite:
   every exported Perfetto trace re-parses with Json.of_string). *)
let prop_chrome_export_reparses =
  qcheck ~count:60 "chrome export re-parses"
    QCheck2.Gen.(list_size (int_range 0 60) (int_range 0 5))
    (fun kinds ->
      let sink =
        with_fresh_sink ~capacity_per_domain:64 (fun sink ->
            List.iteri
              (fun i kind ->
                match kind with
                | 0 -> Tr.instant ~cat:"io" (Printf.sprintf "i\"\n%d" i)
                | 1 ->
                    Tr.counter ~cat:"gibbs" "conv"
                      [ ("rhat", Float.of_int i); ("nan", Float.nan) ]
                | 2 ->
                    ignore
                      (Tr.complete ~cat:"mine"
                         ~args:[ ("s", Tr.Str "x\tq"); ("n", Tr.Int i) ]
                         "slice"
                         (fun () -> ()))
                | 3 -> Tr.flow_start ~cat:"share" ~id:(i + 1) "share.donate"
                | 4 -> Tr.flow_end ~cat:"share" ~id:(i + 1) "share.donate"
                | _ ->
                    Tr.complete_span ~cat:"sched"
                      ~start_ns:(Mrsl.Clock.now_ns ()) "span")
              kinds;
            sink)
      in
      let json = Json.of_string (Tr.chrome_string sink) in
      match Json.member "traceEvents" json with
      | Some (Json.List _) -> true
      | _ -> false)

let test_prometheus_exposition () =
  let t = Mrsl.Telemetry.create () in
  Mrsl.Telemetry.incr ~by:3 t "parallel.tasks";
  Mrsl.Telemetry.gauge t "parallel.domains" 4.;
  List.iter (Mrsl.Telemetry.observe t "gibbs.memo_hit_rate") [ 0.5; 0.25 ];
  ignore (Mrsl.Telemetry.span t "workload.run" (fun () -> ()));
  let text = Tr.prometheus_exposition t in
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true
        (Astring_like.contains text needle))
    [
      "# TYPE mrsl_parallel_tasks_total counter";
      "mrsl_parallel_tasks_total 3";
      "mrsl_parallel_domains 4";
      "mrsl_gibbs_memo_hit_rate{quantile=\"0.5\"}";
      "mrsl_gibbs_memo_hit_rate_count 2";
      "mrsl_workload_run_calls_total 1";
      "mrsl_workload_run_seconds_total";
    ];
  (* names are sanitized: no dots survive into metric names *)
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         if String.length line > 0 && line.[0] <> '#' then
           match String.index_opt line ' ' with
           | Some i ->
               let name = String.sub line 0 i in
               (* labels like {quantile="0.5"} may contain dots; only the
                  metric name itself must be sanitized *)
               let name =
                 match String.index_opt name '{' with
                 | Some b -> String.sub name 0 b
                 | None -> name
               in
               String.iter
                 (fun c ->
                   if c = '.' then
                     Alcotest.failf "unsanitized metric name %S" name)
                 name
           | None -> ())

(* --- observation-only: tracing must not change inference ------------- *)

let trace_model () =
  Mrsl.Model.learn_points
    ~params:{ Mrsl.Model.default_params with support_threshold = 0.01 }
    dependent_schema (dependent_points 400)

let trace_workload () =
  [
    [| None; Some 0; Some 0 |];
    [| Some 1; None; Some 1 |];
    [| None; None; Some 0 |];
    [| Some 0; Some 0; None |];
    [| None; None; None |];
    [| Some 1; None; None |];
  ]

let joints (result : Mrsl.Workload.result) =
  List.map
    (fun (_, (e : Mrsl.Gibbs.estimate)) -> Prob.Dist.to_array e.joint)
    result.estimates

let test_traced_run_bit_identical () =
  let model = trace_model () in
  let workload = trace_workload () in
  let run () =
    (Mrsl.Workload.run_contained
       ~config:{ burn_in = 20; samples = 120 }
       ~domains:4 ~seed:23 model workload)
      .result
  in
  let untraced = run () in
  let traced, sink =
    let sink = Tr.create () in
    Tr.install sink;
    Fun.protect ~finally:(fun () -> ignore (Tr.uninstall ()))
      (fun () -> (run (), sink))
  in
  Alcotest.(check bool) "trace captured something" true
    (Tr.event_count sink > 0);
  List.iter2
    (fun a b ->
      Alcotest.(check (array (float 0.))) "identical joint" a b)
    (joints untraced) (joints traced);
  Alcotest.(check int) "identical sweep count" untraced.stats.sweeps
    traced.stats.sweeps

let test_traced_run_has_scheduler_events () =
  let model = trace_model () in
  let workload = trace_workload () in
  let sink =
    with_fresh_sink (fun sink ->
        ignore
          (Mrsl.Workload.run_contained
             ~config:{ burn_in = 10; samples = 80 }
             ~domains:2 ~seed:5 model workload);
        sink)
  in
  let evs = Tr.events sink in
  let has ?phase cat name =
    List.exists
      (fun (e : Tr.event) ->
        e.cat = cat && e.name = name
        && match phase with None -> true | Some p -> p e.phase)
      evs
  in
  Alcotest.(check bool) "workload.run slice" true
    (has "sched" "workload.run");
  Alcotest.(check bool) "dag.build slice" true (has "dag" "dag.build");
  Alcotest.(check bool) "per-task slices" true (has "gibbs" "workload.node");
  Alcotest.(check bool) "chain-init voting slices" true
    (has "voting" "gibbs.chain_init");
  Alcotest.(check bool) "task flow starts" true
    (has "sched" "task.run"
       ~phase:(function Tr.Flow_start -> true | _ -> false));
  Alcotest.(check bool) "task flow ends" true
    (has "sched" "task.run"
       ~phase:(function Tr.Flow_end -> true | _ -> false));
  Alcotest.(check bool) "convergence timeline counters" true
    (has "gibbs" "gibbs.convergence"
       ~phase:(function Tr.Counter -> true | _ -> false));
  Alcotest.(check int) "nothing dropped" 0 (Tr.dropped sink)

let test_retry_emits_convergence_counters () =
  let model = trace_model () in
  let tup = [| None; None; Some 0 |] in
  let sink =
    with_fresh_sink (fun sink ->
        ignore
          (Mrsl.Workload.run_contained
             ~config:{ burn_in = 10; samples = 64 }
             ~strategy:Mrsl.Workload.Tuple_at_a_time ~domains:1
             ~retry:Mrsl.Diagnostics.default_retry_policy ~seed:3 model
             [ tup ]);
        sink)
  in
  let evs = Tr.events sink in
  Alcotest.(check bool) "gibbs.attempt slice" true
    (List.exists
       (fun (e : Tr.event) -> e.cat = "gibbs" && e.name = "gibbs.attempt")
       evs);
  Alcotest.(check bool) "rhat counter of the check present" true
    (List.exists
       (fun (e : Tr.event) ->
         e.name = "gibbs.convergence"
         && List.mem_assoc "rhat" e.args
         && List.mem_assoc "attempt" e.args)
       evs)

let suite =
  [
    ("disabled tracing is a no-op", `Quick, test_disabled_is_noop);
    ("sink captures events", `Quick, test_sink_captures_events);
    ("overflow drops are counted", `Quick, test_overflow_drops_counted);
    ("uninstall returns the sink", `Quick, test_uninstall_returns_sink);
    ("flow ids deterministic", `Quick, test_flow_ids_deterministic);
    ("chrome export re-parses", `Quick, test_chrome_export_reparses);
    prop_chrome_export_reparses;
    ("prometheus exposition", `Quick, test_prometheus_exposition);
    ("traced run bit-identical", `Quick, test_traced_run_bit_identical);
    ("traced run has scheduler events", `Quick,
     test_traced_run_has_scheduler_events);
    ("retry emits convergence counters", `Quick,
     test_retry_emits_convergence_counters);
  ]
