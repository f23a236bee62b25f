(* Benchmark gate.

   Every ns/run, B/run and speedup it reads comes from the report's one
   "micro" array, each row measured by Mrsl.Clock.measure (or its
   interleaved-pairs form for the compiled-kernel rows).

   Usage: bench_gate [--current BENCH.json CHECK...]
                     [--pair PARENT.json CHANGE.json]...

   A/B mode: --pair PARENT.json CHANGE.json (repeatable) names one pair
   of reports from the parent and the change, run back to back on the
   same host (ci/run.sh runs 10 pairs, alternating which side goes
   first). Each micro row's ns_per_run and each serve row's req_per_s
   gives one ratio per pair, oriented so that above 1 means the change
   is worse. A row fails only when the change is worse in at least 9 of
   every 10 pairs (ties count for neither side) AND its median per-pair
   ratio is above 1.25; the A/B needs at least 10 pairs. Rows that are
   not in every report of both sides are listed, not gated.

   Every other check reads --current alone and is absolute:

   --require-counter NAME (repeatable) asserts that telemetry counter
   NAME is present and positive — the CI fault pass uses this to prove
   the degradation/retry paths actually fired. Likewise
   --require-span NAME (repeatable) asserts that telemetry span NAME is
   present with calls > 0 — the trace pass uses this to prove the
   instrumented phases actually ran.

   --require-latency NAME CEIL_US (repeatable) asserts that the serve
   block has a row NAME whose p99_us is at most CEIL_US — a latency
   budget does not move with the machine the change was measured on.

   --require-histogram NAME (repeatable) asserts that telemetry
   histogram NAME is present with count > 0 — the serve pass uses this
   to prove the per-phase latency decomposition actually observed
   requests. --histogram-p99 NAME CEIL (repeatable) additionally bounds
   the histogram's p99 by a ceiling in the histogram's own units
   (seconds for the serve.*_seconds family).

   --max-shed-rate FRAC asserts that the fraction of serving work shed
   by the overload ladder —
   (serve.shed + serve.deadline_exceeded + serve.overloaded) /
   (serve.requests + serve.overloaded), absent counters reading 0 —
   stays at or below FRAC. The healthy serve pass runs it near 0 (the
   ladder must not fire under normal load); the chaos pass omits it
   (shedding under hostile load is the point).

   --max-alloc-bytes NAME CEIL (repeatable) asserts that the micro row
   NAME's exact alloc_bytes_per_run is at most CEIL.

   --min-speedup NAME RATIO (repeatable) asserts that the micro row
   NAME's median per-pair compiled-vs-interpreted speedup is at least
   RATIO, AND that the row's bit_identical flag is true — a speedup
   bought by diverging from the interpreted oracle is a correctness
   bug, not a win.

   --history FILE names a BENCH_HISTORY.jsonl trajectory (one JSON
   object per bench run: source tree, scale, micro walls and allocation
   bytes, serve req/s). --history-append appends the current report's
   summary to it (with --history-sha SHA recorded); with
   --history-window N the gate then fails when any tracked metric
   worsened strictly monotonically across the last N runs with a
   cumulative drift beyond 10% — a slow regression that no single A/B
   sees.

   Double-accounting guard: when the current report carries a
   "parallel" block, every run in it must have counters_start_zero =
   true — per-run registries must begin empty even though the domain
   pool (and the model's conditional tables) persists across sections. *)

module Json = Mrsl.Telemetry.Json

let usage () =
  prerr_endline
    "usage: bench_gate [--current <BENCH.json> [--require-counter NAME]... \
     [--require-span NAME]... [--require-histogram NAME]... \
     [--histogram-p99 NAME CEIL]... [--require-latency NAME CEIL_US]... \
     [--max-shed-rate FRAC] [--max-alloc-bytes NAME CEIL]... \
     [--min-speedup NAME RATIO]... [--history FILE] [--history-window N] \
     [--history-append] [--history-sha SHA]] \
     [--pair <PARENT.json> <CHANGE.json>]...";
  prerr_endline
    "  --current needs at least one check; --pair needs at least 10 pairs";
  exit 2

(* History settings, set by parse_args and consumed straight from main. *)
let history_file = ref None
let history_window = ref None
let history_append = ref false
let history_sha = ref "unknown"

let parse_args () =
  let current = ref None
  and counters = ref []
  and spans = ref []
  and histograms = ref []
  and hist_p99s = ref []
  and latencies = ref []
  and allocs = ref []
  and speedups = ref []
  and shed = ref None
  and pairs = ref [] in
  let rec go = function
    | [] -> ()
    | "--current" :: v :: rest ->
        current := Some v;
        go rest
    | "--pair" :: parent :: change :: rest ->
        pairs := (parent, change) :: !pairs;
        go rest
    | "--require-counter" :: v :: rest ->
        counters := v :: !counters;
        go rest
    | "--require-span" :: v :: rest ->
        spans := v :: !spans;
        go rest
    | "--require-histogram" :: v :: rest ->
        histograms := v :: !histograms;
        go rest
    | "--histogram-p99" :: name :: ceil :: rest -> (
        match float_of_string_opt ceil with
        | Some c when c > 0. ->
            hist_p99s := (name, c) :: !hist_p99s;
            go rest
        | _ ->
            Printf.eprintf "bench_gate: bad histogram p99 ceiling %S\n%!" ceil;
            exit 2)
    | "--require-latency" :: name :: ceil :: rest -> (
        match float_of_string_opt ceil with
        | Some c when c > 0. ->
            latencies := (name, c) :: !latencies;
            go rest
        | _ ->
            Printf.eprintf "bench_gate: bad latency ceiling %S\n%!" ceil;
            exit 2)
    | "--max-shed-rate" :: frac :: rest -> (
        match float_of_string_opt frac with
        | Some f when f >= 0. && f <= 1. ->
            shed := Some f;
            go rest
        | _ ->
            Printf.eprintf "bench_gate: bad shed-rate bound %S\n%!" frac;
            exit 2)
    | "--max-alloc-bytes" :: name :: ceil :: rest -> (
        match float_of_string_opt ceil with
        | Some c when c > 0. ->
            allocs := (name, c) :: !allocs;
            go rest
        | _ ->
            Printf.eprintf "bench_gate: bad alloc ceiling %S\n%!" ceil;
            exit 2)
    | "--min-speedup" :: name :: ratio :: rest -> (
        match float_of_string_opt ratio with
        | Some r when r > 0. ->
            speedups := (name, r) :: !speedups;
            go rest
        | _ ->
            Printf.eprintf "bench_gate: bad speedup ratio %S\n%!" ratio;
            exit 2)
    | "--history" :: v :: rest ->
        history_file := Some v;
        go rest
    | "--history-window" :: v :: rest -> (
        match int_of_string_opt v with
        | Some n when n >= 2 ->
            history_window := Some n;
            go rest
        | _ ->
            Printf.eprintf "bench_gate: bad history window %S (need >= 2)\n%!"
              v;
            exit 2)
    | "--history-append" :: rest ->
        history_append := true;
        go rest
    | "--history-sha" :: v :: rest ->
        history_sha := v;
        go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let checks =
    (List.rev !counters, List.rev !spans, List.rev !histograms,
     List.rev !hist_p99s, List.rev !latencies, List.rev !allocs,
     List.rev !speedups, !shed)
  in
  let has_check =
    checks <> ([], [], [], [], [], [], [], None) || !history_file <> None
  in
  match (!current, List.rev !pairs) with
  | Some c, pairs when has_check -> (Some c, checks, pairs)
  | None, (_ :: _ as pairs) when not has_check -> (None, checks, pairs)
  | _ -> usage ()

let load path =
  let ic =
    try open_in_bin path
    with Sys_error msg ->
      Printf.eprintf "bench_gate: cannot open %s: %s\n%!" path msg;
      exit 2
  in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  try Json.of_string s
  with Json.Parse_error msg ->
    Printf.eprintf "bench_gate: %s is not valid JSON: %s\n%!" path msg;
    exit 2

(* name -> KEY for every row of the "micro" array that carries it *)
let micro_field key json =
  match Json.member "micro" json with
  | Some (Json.List rows) ->
      List.filter_map
        (fun row ->
          match (Json.member "name" row, Json.member key row) with
          | Some (Json.String name), Some v -> (
              match Json.to_float v with
              | x -> Some (name, x)
              | exception _ -> None)
          | _ -> None)
        rows
  | _ -> []

let micro_rows = micro_field "ns_per_run"

(* name -> value for every telemetry counter of the report *)
let counter_value json name =
  match Json.member "telemetry" json with
  | None -> None
  | Some t -> (
      match Json.member "counters" t with
      | Some (Json.Obj fields) -> (
          match List.assoc_opt name fields with
          | Some (Json.Int n) -> Some (float_of_int n)
          | Some (Json.Float f) -> Some f
          | _ -> None)
      | _ -> None)

(* one field of a telemetry histogram of the report, e.g.
   telemetry.histograms.NAME.count or .p99 *)
let histogram_field json name key =
  match Json.member "telemetry" json with
  | None -> None
  | Some t -> (
      match Json.member "histograms" t with
      | Some (Json.Obj fields) -> (
          match List.assoc_opt name fields with
          | Some hist -> (
              match Json.member key hist with
              | Some v -> ( try Some (Json.to_float v) with _ -> None)
              | None -> None)
          | None -> None)
      | _ -> None)

(* calls count of a telemetry span of the report *)
let span_calls json name =
  match Json.member "telemetry" json with
  | None -> None
  | Some t -> (
      match Json.member "spans" t with
      | Some (Json.Obj fields) -> (
          match List.assoc_opt name fields with
          | Some span -> (
              match Json.member "calls" span with
              | Some (Json.Int n) -> Some n
              | _ -> None)
          | None -> None)
      | _ -> None)

(* (name, req_per_s, p99_us) for every row of the serve block *)
let serve_rows json =
  match Json.member "serve" json with
  | None -> []
  | Some serve -> (
      match Json.member "rows" serve with
      | Some (Json.List rows) ->
          List.filter_map
            (fun row ->
              match Json.member "name" row with
              | Some (Json.String name) ->
                  let num key =
                    match Json.member key row with
                    | Some v -> ( try Some (Json.to_float v) with _ -> None)
                    | None -> None
                  in
                  Some (name, num "req_per_s", num "p99_us")
              | _ -> None)
            rows
      | _ -> [])

(* --- bench history (BENCH_HISTORY.jsonl) ------------------------------ *)

let read_history_lines path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in_bin path in
    let rec go acc =
      match input_line ic with
      | line ->
          let acc =
            if String.trim line = "" then acc
            else
              match Json.of_string line with
              | j -> j :: acc
              | exception Json.Parse_error _ -> acc
          in
          go acc
      | exception End_of_file ->
          close_in ic;
          List.rev acc
    in
    go []
  end

(* One-line summary of a bench report: the trajectory's unit of record.
   Metric keys are namespaced so the drift check can infer direction —
   serve.*.req_per_s worsens downward, everything else upward. *)
let history_entry_of_report json sha =
  let metrics =
    List.map
      (fun (n, ns) -> ("micro." ^ n ^ ".ns_per_run", Json.Float ns))
      (micro_rows json)
    @ List.filter_map
        (fun (n, rps, _) ->
          Option.map (fun r -> ("serve." ^ n ^ ".req_per_s", Json.Float r)) rps)
        (serve_rows json)
    @ List.map
        (fun (n, b) -> ("alloc." ^ n ^ ".bytes_per_run", Json.Float b))
        (micro_field "alloc_bytes_per_run" json)
  in
  let carry key =
    match Json.member key json with Some v -> v | None -> Json.Null
  in
  Json.Obj
    [
      ("sha", Json.String sha);
      ("scale", carry "scale");
      ("generated_unix", carry "generated_unix");
      ("metrics", Json.Obj metrics);
    ]

let history_metrics entry =
  match Json.member "metrics" entry with
  | Some (Json.Obj kvs) ->
      List.filter_map
        (fun (k, v) ->
          match Json.to_float v with
          | f -> Some (k, f)
          | exception _ -> None)
        kvs
  | _ -> []

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

(* Monotone-drift detector: a metric fails when it worsened at every
   step of the window AND the cumulative drift exceeds [drift_min] —
   the slow-regression pattern that no single A/B sees.
   Strict per-step monotonicity keeps ordinary run-to-run noise out. *)
let drift_min = 0.10

let check_history_drift entries window =
  let n = List.length entries in
  if n < window then begin
    Printf.printf
      "  %d run(s) recorded, window %d not yet filled — drift check skipped\n"
      n window;
    0
  end
  else begin
    let tail =
      let rec drop k l = if k <= 0 then l else drop (k - 1) (List.tl l) in
      drop (n - window) entries
    in
    let series = List.map history_metrics tail in
    let keys = match series with last :: _ -> List.map fst last | [] -> [] in
    let keys =
      (* tracked = present in every entry of the window *)
      List.filter
        (fun k -> List.for_all (fun m -> List.mem_assoc k m) series)
        keys
    in
    let bad = ref 0 in
    List.iter
      (fun key ->
        let vals = List.map (List.assoc key) series in
        let worse a b =
          if contains_substring key "req_per_s" then b < a else b > a
        in
        let rec monotone = function
          | a :: (b :: _ as rest) -> worse a b && monotone rest
          | _ -> true
        in
        match (vals, List.rev vals) with
        | first :: _, last :: _ when first > 0. ->
            let drift = abs_float (last -. first) /. first in
            if monotone vals && drift > drift_min then begin
              incr bad;
              Printf.printf
                "  %-44s %12.1f -> %12.1f (%+.1f%% over %d runs)  FAIL \
                 (monotone drift)\n"
                key first last
                (100. *. (last -. first) /. first)
                window
            end
        | _ -> ())
      keys;
    if !bad = 0 then
      Printf.printf "  %d tracked metric(s), no monotone drift over %d runs\n"
        (List.length keys) window;
    !bad
  end

(* Double-accounting guard over the parallel block: the bench runs each
   domain-count configuration against a fresh registry, but the domain
   pool — and the model's conditional tables — are reused across
   sections. Every run therefore records whether its
   per-section counters really started from zero; a [false] here means
   some section's counts leaked into another's. *)
let check_counters_start_zero json =
  match Json.member "parallel" json with
  | None -> 0
  | Some p -> (
      match Json.member "runs" p with
      | Some (Json.List runs) ->
          List.fold_left
            (fun bad run ->
              match Json.member "counters_start_zero" run with
              | Some (Json.Bool true) | None -> bad
              | _ ->
                  let domains =
                    match Json.member "domains" run with
                    | Some (Json.Int d) -> string_of_int d
                    | _ -> "?"
                  in
                  Printf.printf
                    "  parallel run (domains=%s): counters_start_zero FAIL\n"
                    domains;
                  bad + 1)
            0 runs
      | _ -> 0)

(* --- same-host A/B ------------------------------------------------------ *)

(* A row fails only when the change is worse in at least
   [ab_worse_pairs] of every [ab_pairs] pairs and its median per-pair
   ratio is above [ab_max_ratio]. On a shared 2-vCPU VM, same-code
   pairs read per-pair ratios from about 0.5 to 2 on micro rows and up
   to 4.8 on serve rows, yet no row was slower in more than 8 of 10
   pairs, and no row median was above 1.19. *)
let ab_pairs = 10
let ab_worse_pairs = 9
let ab_max_ratio = 1.25

(* row -> value for every gated quantity of a report, oriented so that
   a larger [ratio parent change] means the change is worse *)
let ab_rows json =
  List.map (fun (n, ns) -> (n, (ns, `Lower))) (micro_rows json)
  @ List.filter_map
      (fun (n, rps, _) ->
        Option.map (fun r -> ("serve/" ^ n ^ " req/s", (r, `Higher))) rps)
      (serve_rows json)

let check_ab pairs =
  let n = List.length pairs in
  if n < ab_pairs then usage ();
  let reports =
    List.map (fun (p, c) -> (ab_rows (load p), ab_rows (load c))) pairs
  in
  let everywhere name =
    List.for_all
      (fun (p, c) -> List.mem_assoc name p && List.mem_assoc name c)
      reports
  in
  let names =
    List.sort_uniq compare
      (List.concat_map (fun (p, c) -> List.map fst (p @ c)) reports)
  in
  Printf.printf
    "A/B gate: %d pairs, parent vs change on one host (fail: worse in >= \
     %d/%d pairs and median ratio > %.2f)\n"
    n ab_worse_pairs ab_pairs ab_max_ratio;
  Printf.printf "%-40s| %12s | %11s | %s\n" "row" "median ratio"
    "worse pairs" "verdict";
  Printf.printf "%s\n" (String.make 80 '-');
  let bad = ref 0 in
  List.iter
    (fun name ->
      if everywhere name then begin
        let ratios =
          List.map
            (fun (p, c) ->
              match (List.assoc name p, List.assoc name c) with
              | (pv, `Lower), (cv, _) -> cv /. pv
              | (pv, `Higher), (cv, _) -> pv /. cv)
            reports
        in
        let worse = List.length (List.filter (fun r -> r > 1.) ratios) in
        let med = Prob.Stats.median ratios in
        let fail =
          worse * ab_pairs >= ab_worse_pairs * n && med > ab_max_ratio
        in
        if fail then incr bad;
        Printf.printf "%-40s| %11.3fx | %6d/%-4d | %s\n" name med worse n
          (if fail then "FAIL" else "ok")
      end
      else
        let on side =
          List.exists
            (fun (p, c) -> List.mem_assoc name (if side then p else c))
            reports
        in
        Printf.printf "%-40s| %12s | %11s | %s (not gated)\n" name "-" "-"
          (match (on true, on false) with
          | true, false -> "parent only"
          | false, true -> "change only"
          | _ -> "not in every run"))
    names;
  if !bad > 0 then (
    Printf.printf "\n%d row(s) slower in the change than in the parent\n"
      !bad;
    exit 1);
  Printf.printf "\nno row slower in the change than in the parent\n"

let check_current current_path
    ( required_counters, required_spans, required_histograms,
      required_hist_p99s, required_latencies, required_allocs,
      required_speedups, max_shed_rate ) =
  let cur_json = load current_path in
  (let bad = check_counters_start_zero cur_json in
   if bad > 0 then (
     Printf.printf
       "%d parallel run(s) with non-zero per-section counters at start\n" bad;
     exit 1));
  (* Fault-pass assertions: required telemetry counters must be present
     and positive in the current report. *)
  if required_counters <> [] then begin
    Printf.printf "counter gate: %s\n" current_path;
    let bad = ref 0 in
    List.iter
      (fun name ->
        match counter_value cur_json name with
        | Some v when v > 0. ->
            Printf.printf "  %-28s %12.0f  ok\n" name v
        | Some v ->
            incr bad;
            Printf.printf "  %-28s %12.0f  FAIL (not positive)\n" name v
        | None ->
            incr bad;
            Printf.printf "  %-28s %12s  FAIL (missing)\n" name "-")
      required_counters;
    if !bad > 0 then (
      Printf.printf "\n%d required counter(s) missing or zero\n" !bad;
      exit 1);
    Printf.printf "all %d required counters present and positive\n\n"
      (List.length required_counters)
  end;
  (* Trace-pass assertions: required telemetry spans must be present
     with at least one call in the current report. *)
  if required_spans <> [] then begin
    Printf.printf "span gate: %s\n" current_path;
    let bad = ref 0 in
    List.iter
      (fun name ->
        match span_calls cur_json name with
        | Some n when n > 0 ->
            Printf.printf "  %-28s %12d calls  ok\n" name n
        | Some n ->
            incr bad;
            Printf.printf "  %-28s %12d calls  FAIL (no calls)\n" name n
        | None ->
            incr bad;
            Printf.printf "  %-28s %12s  FAIL (missing)\n" name "-")
      required_spans;
    if !bad > 0 then (
      Printf.printf "\n%d required span(s) missing or never called\n" !bad;
      exit 1);
    Printf.printf "all %d required spans present\n\n"
      (List.length required_spans)
  end;
  (* Observability assertions: required telemetry histograms must be
     present with at least one observation — proof that the per-phase
     latency decomposition actually saw requests. *)
  if required_histograms <> [] then begin
    Printf.printf "histogram gate: %s\n" current_path;
    let bad = ref 0 in
    List.iter
      (fun name ->
        match histogram_field cur_json name "count" with
        | Some c when c > 0. ->
            Printf.printf "  %-28s %12.0f observations  ok\n" name c
        | Some c ->
            incr bad;
            Printf.printf "  %-28s %12.0f observations  FAIL (empty)\n" name c
        | None ->
            incr bad;
            Printf.printf "  %-28s %12s  FAIL (missing)\n" name "-")
      required_histograms;
    if !bad > 0 then (
      Printf.printf "\n%d required histogram(s) missing or empty\n" !bad;
      exit 1);
    Printf.printf "all %d required histograms populated\n\n"
      (List.length required_histograms)
  end;
  (* Histogram p99 ceilings: absolute bounds in the histogram's own
     units (seconds for the serve.*_seconds family). *)
  if required_hist_p99s <> [] then begin
    Printf.printf "histogram p99 gate: %s\n" current_path;
    let bad = ref 0 in
    List.iter
      (fun (name, ceil) ->
        match
          (histogram_field cur_json name "count",
           histogram_field cur_json name "p99")
        with
        | Some c, Some p99 when c > 0. && p99 <= ceil ->
            Printf.printf "  %-28s p99 %12.6f <= %12.6f  ok\n" name p99 ceil
        | Some c, Some p99 when c > 0. ->
            incr bad;
            Printf.printf "  %-28s p99 %12.6f >  %12.6f  FAIL\n" name p99 ceil
        | Some _, _ ->
            incr bad;
            Printf.printf "  %-28s %29s  FAIL (empty)\n" name "-"
        | None, _ ->
            incr bad;
            Printf.printf "  %-28s %29s  FAIL (missing)\n" name "-")
      required_hist_p99s;
    if !bad > 0 then (
      Printf.printf "\n%d histogram p99 ceiling(s) failed\n" !bad;
      exit 1);
    Printf.printf "all %d histogram p99 ceilings met\n\n"
      (List.length required_hist_p99s)
  end;
  (* Serving SLO assertions: named serve rows must exist with a p99 at
     or below the given absolute ceiling. *)
  if required_latencies <> [] then begin
    Printf.printf "latency gate: %s\n" current_path;
    let rows = serve_rows cur_json in
    let bad = ref 0 in
    List.iter
      (fun (name, ceil_us) ->
        match List.find_opt (fun (n, _, _) -> n = name) rows with
        | Some (_, _, Some p99) when p99 <= ceil_us ->
            Printf.printf "  %-28s p99 %9.0f us <= %9.0f us  ok\n" name p99
              ceil_us
        | Some (_, _, Some p99) ->
            incr bad;
            Printf.printf "  %-28s p99 %9.0f us >  %9.0f us  FAIL\n" name p99
              ceil_us
        | Some (_, _, None) ->
            incr bad;
            Printf.printf "  %-28s %24s  FAIL (no p99_us)\n" name "-"
        | None ->
            incr bad;
            Printf.printf "  %-28s %24s  FAIL (missing row)\n" name "-")
      required_latencies;
    if !bad > 0 then (
      Printf.printf "\n%d serving latency requirement(s) failed\n" !bad;
      exit 1);
    Printf.printf "all %d serving latency ceilings met\n\n"
      (List.length required_latencies)
  end;
  (* Shed-rate ceiling: under a healthy load the overload ladder must
     stay quiet — sheds as a fraction of offered serving work. *)
  (match max_shed_rate with
  | None -> ()
  | Some bound ->
      let c name = Option.value ~default:0. (counter_value cur_json name) in
      let sheds =
        c "serve.shed" +. c "serve.deadline_exceeded" +. c "serve.overloaded"
      in
      let offered = c "serve.requests" +. c "serve.overloaded" in
      Printf.printf "shed gate: %s\n" current_path;
      if offered <= 0. then begin
        Printf.printf
          "  no serving traffic in the report (serve.requests = 0)  FAIL\n";
        exit 1
      end;
      let rate = sheds /. offered in
      if rate <= bound then
        Printf.printf "  shed rate %.4f (%.0f/%.0f) <= %.4f  ok\n\n" rate
          sheds offered bound
      else begin
        Printf.printf "  shed rate %.4f (%.0f/%.0f) >  %.4f  FAIL\n" rate
          sheds offered bound;
        exit 1
      end);
  (* Allocation ceilings: absolute byte budgets on the micro rows' exact
     allocation reads. *)
  if required_allocs <> [] then begin
    Printf.printf "alloc gate: %s\n" current_path;
    let rows = micro_field "alloc_bytes_per_run" cur_json in
    let bad = ref 0 in
    List.iter
      (fun (name, ceil) ->
        match List.assoc_opt name rows with
        | Some b when b <= ceil ->
            Printf.printf "  %-38s %14.0f B <= %14.0f B  ok\n" name b ceil
        | Some b ->
            incr bad;
            Printf.printf "  %-38s %14.0f B >  %14.0f B  FAIL\n" name b ceil
        | None ->
            incr bad;
            Printf.printf "  %-38s %31s  FAIL (missing row)\n" name "-")
      required_allocs;
    if !bad > 0 then (
      Printf.printf "\n%d allocation ceiling(s) failed\n" !bad;
      exit 1);
    Printf.printf "all %d allocation ceilings met\n\n"
      (List.length required_allocs)
  end;
  (* Kernel speedup floors: the compiled path must beat the interpreted
     one by the given ratio, and only a bit-identical win counts. *)
  if required_speedups <> [] then begin
    Printf.printf "kernel gate: %s\n" current_path;
    let speedups = micro_field "speedup" cur_json in
    let bit_identical name =
      match Json.member "micro" cur_json with
      | Some (Json.List rows) ->
          List.find_map
            (fun row ->
              match Json.member "name" row with
              | Some (Json.String n) when n = name ->
                  Json.member "bit_identical" row
              | _ -> None)
            rows
      | _ -> None
    in
    let bad = ref 0 in
    List.iter
      (fun (name, floor) ->
        match (List.assoc_opt name speedups, bit_identical name) with
        | Some s, Some (Json.Bool true) when s >= floor ->
            Printf.printf "  %-38s %13.2fx >= %13.2fx  ok\n" name s floor
        | Some s, Some (Json.Bool true) ->
            incr bad;
            Printf.printf "  %-38s %13.2fx <  %13.2fx  FAIL\n" name s floor
        | Some _, Some (Json.Bool false) ->
            incr bad;
            Printf.printf "  %-38s %31s  FAIL (compiled diverged)\n" name
              "bit_identical false"
        | Some _, _ ->
            incr bad;
            Printf.printf "  %-38s %31s  FAIL (no bit_identical)\n" name "-"
        | None, _ ->
            incr bad;
            Printf.printf "  %-38s %31s  FAIL (no pair row)\n" name "-")
      required_speedups;
    if !bad > 0 then (
      Printf.printf "\n%d kernel speedup requirement(s) failed\n" !bad;
      exit 1);
    Printf.printf "all %d kernel speedup floors met (bit-identical)\n\n"
      (List.length required_speedups)
  end;
  (* Bench-history trajectory: append the current run's summary, then
     check the last N entries for monotone drift. The append happens
     before the check (and before any exit) so the trajectory records
     every run, including the one that trips the gate. *)
  match !history_file with
  | None -> ()
  | Some path ->
      let entry = history_entry_of_report cur_json !history_sha in
      let existing = read_history_lines path in
      if !history_append then begin
        let oc =
          open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path
        in
        output_string oc (Json.to_string ~pretty:false entry);
        output_char oc '\n';
        close_out oc;
        Printf.printf "history: appended run %s to %s (%d run(s) recorded)\n"
          !history_sha path
          (List.length existing + 1)
      end;
      (match !history_window with
      | None -> ()
      | Some window ->
          Printf.printf "history gate: %s (window %d)\n" path window;
          let entries =
            if !history_append then existing @ [ entry ] else existing
          in
          let bad = check_history_drift entries window in
          if bad > 0 then begin
            Printf.printf "\n%d metric(s) drifting monotonically\n" bad;
            exit 1
          end);
      print_newline ()

let () =
  let current, checks, pairs = parse_args () in
  Option.iter (fun c -> check_current c checks) current;
  if pairs <> [] then check_ab pairs
