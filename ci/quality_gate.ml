(* Statistical quality gate.

   Compares a freshly generated QUALITY_*.json (the bench "quality"
   artifact / [mrsl quality --json] schema) against the committed
   baseline and fails (exit 1) when any gated metric got {e worse} than
   the baseline beyond tolerance. "Worse" is directional: most metrics
   (Brier, log loss, ECE, MCE, drift, degradation shares) regress
   upward, top-1 accuracy regresses downward; improvements never fail.

   A metric regresses when it is worse than the baseline by more than
     max(tolerance · |baseline|, tolerance-abs)
   — the relative band handles well-separated scores, the absolute
   floor keeps near-zero baselines (drift on a healthy model, shares
   at 0) from demanding infinite precision.

   [scores.cells] is pinned {e exactly}: shadow masking is a pure
   function of (seed, row, attr), so any cell-count difference means
   the run is not comparable (different seed, data, or a determinism
   bug), which is a gate error (exit 2), not a tolerable drift.

   Usage:
     quality_gate --baseline bench/baseline/QUALITY_1.json \
                  --current QUALITY_1.json
       [--tolerance 0.10] [--tolerance-abs 0.02]
       [--metric-tolerance scores.ece=0.05]...   (absolute, per metric)
       [--require-metric drift.js_max]...        (present + finite)
       [--expect-fail]                           (invert: exit 0 iff the
                                                  gate would have failed
                                                  — the CI negative test)
   *)

module Json = Mrsl.Telemetry.Json

type direction = Higher_is_worse | Lower_is_worse

(* dotted path, direction *)
let gated =
  [
    ("scores.brier", Higher_is_worse);
    ("scores.log_loss", Higher_is_worse);
    ("scores.ece", Higher_is_worse);
    ("scores.mce", Higher_is_worse);
    ("scores.top1_accuracy", Lower_is_worse);
    ("drift.js_max", Higher_is_worse);
    ("drift.hellinger_max", Higher_is_worse);
    ("health.root_only_share", Higher_is_worse);
    ("health.degrade_marginal_share", Higher_is_worse);
    ("health.degrade_uniform_share", Higher_is_worse);
    ("health.nonconverged_share", Higher_is_worse);
  ]

let usage () =
  prerr_endline
    "usage: quality_gate --baseline <QUALITY.json> --current <QUALITY.json> \
     [--tolerance F] [--tolerance-abs F] [--metric-tolerance PATH=F]... \
     [--require-metric PATH]... [--expect-fail]";
  exit 2

type args = {
  baseline : string;
  current : string;
  tolerance : float;
  tolerance_abs : float;
  per_metric : (string * float) list;  (* absolute overrides *)
  required : string list;
  expect_fail : bool;
}

let parse_args () =
  let baseline = ref None
  and current = ref None
  and tolerance = ref 0.10
  and tolerance_abs = ref 0.02
  and per_metric = ref []
  and required = ref []
  and expect_fail = ref false in
  let float_arg flag v =
    match float_of_string_opt v with
    | Some f when f >= 0. -> f
    | _ ->
        Printf.eprintf "quality_gate: bad %s %S\n%!" flag v;
        exit 2
  in
  let rec go = function
    | [] -> ()
    | "--baseline" :: v :: rest ->
        baseline := Some v;
        go rest
    | "--current" :: v :: rest ->
        current := Some v;
        go rest
    | "--tolerance" :: v :: rest ->
        tolerance := float_arg "--tolerance" v;
        go rest
    | "--tolerance-abs" :: v :: rest ->
        tolerance_abs := float_arg "--tolerance-abs" v;
        go rest
    | "--metric-tolerance" :: v :: rest ->
        (match String.index_opt v '=' with
        | Some i ->
            let path = String.sub v 0 i
            and f =
              float_arg "--metric-tolerance"
                (String.sub v (i + 1) (String.length v - i - 1))
            in
            per_metric := (path, f) :: !per_metric
        | None ->
            Printf.eprintf
              "quality_gate: --metric-tolerance wants PATH=FLOAT, got %S\n%!" v;
            exit 2);
        go rest
    | "--require-metric" :: v :: rest ->
        required := v :: !required;
        go rest
    | "--expect-fail" :: rest ->
        expect_fail := true;
        go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!baseline, !current) with
  | Some baseline, Some current ->
      {
        baseline;
        current;
        tolerance = !tolerance;
        tolerance_abs = !tolerance_abs;
        per_metric = List.rev !per_metric;
        required = List.rev !required;
        expect_fail = !expect_fail;
      }
  | _ -> usage ()

let load path =
  let ic =
    try open_in_bin path
    with Sys_error msg ->
      Printf.eprintf "quality_gate: cannot open %s: %s\n%!" path msg;
      exit 2
  in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  try Json.of_string s
  with Json.Parse_error msg ->
    Printf.eprintf "quality_gate: %s is not valid JSON: %s\n%!" path msg;
    exit 2

(* dotted-path lookup: "scores.brier" -> member "scores" -> "brier" *)
let lookup json path =
  let rec go json = function
    | [] -> Some json
    | key :: rest -> (
        match Json.member key json with
        | Some v -> go v rest
        | None -> None)
  in
  go json (String.split_on_char '.' path)

let lookup_float json path =
  match lookup json path with
  | Some (Json.Int n) -> Some (float_of_int n)
  | Some (Json.Float f) -> Some f
  | Some Json.Null -> Some Float.nan (* serialized non-finite *)
  | _ -> None

let () =
  let a = parse_args () in
  let base = load a.baseline and cur = load a.current in
  Printf.printf
    "quality gate: %s vs %s (tolerance %.0f%% rel, %.3g abs)%s\n" a.current
    a.baseline (100. *. a.tolerance) a.tolerance_abs
    (if a.expect_fail then " [expect-fail]" else "");
  let errors = ref 0 and failures = ref 0 in
  (* Determinism guard: the shadow-cell count must match exactly. *)
  (match (lookup_float base "scores.cells", lookup_float cur "scores.cells") with
  | Some b, Some c when b = c && Float.is_finite c ->
      Printf.printf "  %-30s %12.0f  ok (exact)\n" "scores.cells" c
  | Some b, Some c ->
      incr errors;
      Printf.printf
        "  %-30s %12.0f  ERROR (baseline %.0f — runs not comparable)\n"
        "scores.cells" c b
  | _ ->
      incr errors;
      Printf.printf "  %-30s %12s  ERROR (missing)\n" "scores.cells" "-");
  (* Presence assertions. *)
  List.iter
    (fun path ->
      match lookup_float cur path with
      | Some v when Float.is_finite v ->
          Printf.printf "  %-30s %12.5f  ok (required)\n" path v
      | Some _ ->
          incr failures;
          Printf.printf "  %-30s %12s  FAIL (not finite)\n" path "-"
      | None ->
          incr failures;
          Printf.printf "  %-30s %12s  FAIL (missing)\n" path "-")
    a.required;
  (* Directional regression checks. *)
  List.iter
    (fun (path, direction) ->
      match (lookup_float base path, lookup_float cur path) with
      | Some b, Some c when Float.is_finite b && Float.is_finite c ->
          let band =
            match List.assoc_opt path a.per_metric with
            | Some abs -> abs
            | None -> Float.max (a.tolerance *. Float.abs b) a.tolerance_abs
          in
          let worse =
            match direction with
            | Higher_is_worse -> c -. b
            | Lower_is_worse -> b -. c
          in
          if worse > band then begin
            incr failures;
            Printf.printf "  %-30s %12.5f  FAIL (baseline %.5f, band %.3g)\n"
              path c b band
          end
          else
            Printf.printf "  %-30s %12.5f  ok (baseline %.5f)\n" path c b
      | Some _, Some _ ->
          incr failures;
          Printf.printf "  %-30s %12s  FAIL (non-finite)\n" path "-"
      | None, _ ->
          (* metric absent from baseline: report, never gate — lets the
             schema grow without invalidating old baselines *)
          Printf.printf "  %-30s %12s  new (not gated)\n" path "-"
      | _, None ->
          incr failures;
          Printf.printf "  %-30s %12s  FAIL (missing from current)\n" path "-")
    gated;
  if !errors > 0 then begin
    Printf.printf "\n%d gate error(s): runs not comparable\n" !errors;
    exit 2
  end;
  if a.expect_fail then
    if !failures > 0 then begin
      Printf.printf
        "\nexpected failure observed (%d metric(s) regressed): negative test \
         passes\n"
        !failures;
      exit 0
    end
    else begin
      Printf.printf
        "\nexpected the gate to fail but every metric passed: injected \
         regression not detected\n";
      exit 1
    end
  else if !failures > 0 then begin
    Printf.printf "\n%d quality metric(s) regressed or missing\n" !failures;
    exit 1
  end
  else Printf.printf "\nall quality metrics within tolerance\n"
