(* mrsl — command-line interface to the MRSL reproduction.

   Subcommands:
     generate    sample a catalog Bayesian network into a CSV (optionally
                 masking values, producing an incomplete relation)
     learn       learn an MRSL model from a CSV and summarize it
     infer       derive probability distributions for the incomplete tuples
                 of a CSV (the paper's end-to-end pipeline)
     query       derive a probabilistic database and answer a conjunctive
                 query (expected count + existence probability)
     quality     shadow-masked calibration scores, drift, and ensemble
                 health for a CSV (the online face of Section VI)
     experiment  regenerate one of the paper's tables/figures *)

open Cmdliner

let scale = Experiments.Scale.current ()

(* ---------------- common arguments ---------------- *)

let seed_arg =
  let doc = "Random seed (all commands are deterministic given the seed)." in
  Arg.(value & opt int 2011 & info [ "seed" ] ~doc)

(* Validated at the cmdliner layer so a bad value is a usage error
   (like every other argument here), not an uncaught Failure. *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some v when v >= 1 -> Ok v
    | Some _ | None ->
        Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let support_arg =
  let doc = "Support threshold θ for frequent-itemset mining." in
  Arg.(value & opt float 0.02 & info [ "support" ] ~doc ~docv:"THETA")

let max_itemsets_arg =
  let doc = "Apriori per-round cap on frequent itemsets (paper: 1000)." in
  Arg.(value & opt int 1000 & info [ "max-itemsets" ] ~doc)

let input_arg =
  let doc = "Input CSV file (header row; \"?\" marks missing values)." in
  Arg.(required & opt (some file) None & info [ "i"; "input" ] ~doc ~docv:"CSV")

let miner_arg =
  let doc = "Frequent-itemset miner: apriori or fp-growth." in
  let parse s =
    match String.lowercase_ascii s with
    | "apriori" -> Ok Mrsl.Model.Apriori
    | "fp-growth" | "fpgrowth" | "fp" -> Ok Mrsl.Model.Fp_growth
    | _ -> Error (`Msg (Printf.sprintf "unknown miner %S" s))
  in
  let print ppf = function
    | Mrsl.Model.Apriori -> Format.pp_print_string ppf "apriori"
    | Mrsl.Model.Fp_growth -> Format.pp_print_string ppf "fp-growth"
  in
  Arg.(
    value
    & opt (conv (parse, print)) Mrsl.Model.Apriori
    & info [ "miner" ] ~doc)

let params_of ?(miner = Mrsl.Model.Apriori) support max_itemsets =
  {
    Mrsl.Model.default_params with
    support_threshold = support;
    max_itemsets;
    miner;
  }

let trace_arg =
  let doc =
    "Record an event-level trace of the run (mining, lattice builds, \
     Gibbs chains, scheduler task arrows, convergence timeline) and write it \
     as Chrome trace-event JSON to $(docv) — loadable in Perfetto \
     (ui.perfetto.dev) or chrome://tracing, and summarized by \
     $(b,mrsl trace)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~doc ~docv:"FILE")

let prometheus_arg =
  let doc =
    "After the run, write the telemetry registry (counters, gauges, \
     histograms, spans) as Prometheus text exposition to $(docv)."
  in
  Arg.(
    value & opt (some string) None & info [ "prometheus" ] ~doc ~docv:"FILE")

let kernel_arg =
  let on =
    Arg.info [ "kernel" ]
      ~doc:
        "Use the compiled per-epoch inference kernels (flat-array voting \
         over the mined lattices). Compiled posteriors are bit-identical \
         to the interpreted path, which remains available as the oracle. \
         Enabled by default."
  in
  let off =
    Arg.info [ "no-kernel" ]
      ~doc:
        "Disable the compiled kernels and run the interpreted \
         rule-lattice path for every posterior."
  in
  Arg.(value & vflag true [ (true, on); (false, off) ])

(* Run [f] under a freshly installed trace sink when [path] is given,
   writing Chrome trace JSON on the way out (exceptions included — a
   partial trace of a failed run is exactly when you want one). *)
let with_trace path f =
  match path with
  | None -> f ()
  | Some path -> (
      let sink = Mrsl.Trace.create () in
      Mrsl.Trace.install sink;
      match f () with
      | result ->
          ignore (Mrsl.Trace.uninstall ());
          Mrsl.Trace.write_chrome sink path;
          Printf.eprintf "trace: %d events (%d dropped) -> %s\n%!"
            (Mrsl.Trace.event_count sink)
            (Mrsl.Trace.dropped sink) path;
          result
      | exception e ->
          ignore (Mrsl.Trace.uninstall ());
          Mrsl.Trace.write_chrome sink path;
          raise e)

let write_prometheus path =
  match path with
  | None -> ()
  | Some path ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc
            (Mrsl.Trace.prometheus_exposition Mrsl.Telemetry.global));
      Printf.eprintf "metrics: Prometheus exposition -> %s\n%!" path

let method_arg =
  let doc =
    "Voting method: all-averaged, all-weighted, best-averaged, best-weighted."
  in
  let parse s =
    match Mrsl.Voting.method_of_string s with
    | Some m -> Ok m
    | None -> Error (`Msg (Printf.sprintf "unknown voting method %S" s))
  in
  let print ppf m = Format.pp_print_string ppf (Mrsl.Voting.method_name m) in
  Arg.(
    value
    & opt (conv (parse, print)) Mrsl.Voting.best_averaged
    & info [ "method" ] ~doc ~docv:"METHOD")

(* ---------------- generate ---------------- *)

let generate_cmd =
  let network_arg =
    let doc = "Catalog network id (BN1 … BN20); see `experiment table1'." in
    Arg.(value & opt string "BN8" & info [ "network" ] ~doc)
  in
  let size_arg =
    let doc = "Number of tuples to sample." in
    Arg.(value & opt int 1000 & info [ "n"; "size" ] ~doc)
  in
  let mask_arg =
    let doc =
      "Fraction of tuples to make incomplete (uniformly chosen attributes)."
    in
    Arg.(value & opt float 0. & info [ "mask-fraction" ] ~doc)
  in
  let max_missing_arg =
    let doc = "Maximum missing values per masked tuple." in
    Arg.(value & opt int 2 & info [ "max-missing" ] ~doc)
  in
  let output_arg =
    let doc = "Output CSV path (stdout when omitted)." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc)
  in
  let run network size mask_fraction max_missing output seed =
    match Bayesnet.Catalog.find network with
    | exception Not_found ->
        Printf.eprintf "unknown network %s (BN1..BN20)\n" network;
        exit 1
    | entry ->
        let rng = Prob.Rng.create seed in
        let net = Bayesnet.Network.generate rng ~alpha:scale.alpha entry.topology in
        let inst = Bayesnet.Network.sample_instance rng net size in
        let inst =
          if mask_fraction <= 0. then inst
          else begin
            let tuples = Relation.Instance.tuples inst in
            let n_mask =
              int_of_float (mask_fraction *. float_of_int (Array.length tuples))
            in
            let victims =
              Prob.Rng.sample_without_replacement rng n_mask
                (Array.length tuples)
            in
            let arity = Relation.Schema.arity (Relation.Instance.schema inst) in
            List.iter
              (fun i ->
                let k = 1 + Prob.Rng.int rng (min max_missing (arity - 1)) in
                let blanks = Prob.Rng.sample_without_replacement rng k arity in
                List.iter (fun a -> tuples.(i).(a) <- None) blanks)
              victims;
            Relation.Instance.make
              (Relation.Instance.schema inst)
              (Array.to_list tuples)
          end
        in
        let text = Relation.Csv_io.write_string inst in
        (match output with
        | Some path ->
            Out_channel.with_open_bin path (fun oc -> output_string oc text);
            Printf.printf "wrote %d tuples over %s to %s\n"
              (Relation.Instance.size inst) network path
        | None -> print_string text)
  in
  let info =
    Cmd.info "generate" ~doc:"Sample a catalog Bayesian network into a CSV."
  in
  Cmd.v info
    Term.(
      const run $ network_arg $ size_arg $ mask_arg $ max_missing_arg
      $ output_arg $ seed_arg)

(* ---------------- learn ---------------- *)

let learn_cmd =
  let verbose_arg =
    let doc = "Print every meta-rule of every lattice." in
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc)
  in
  let save_arg =
    let doc = "Serialize the learned model to this path (see `infer --model')." in
    Arg.(value & opt (some string) None & info [ "o"; "save-model" ] ~doc)
  in
  let run input support max_itemsets miner verbose save =
    let inst = Relation.Csv_io.read_file input in
    let params = params_of ~miner support max_itemsets in
    let model, seconds =
      Experiments.Framework.time (fun () -> Mrsl.Model.learn ~params inst)
    in
    let schema = Mrsl.Model.schema model in
    Printf.printf
      "learned MRSL model from %d complete tuples (of %d) in %.3fs\n"
      (Array.length (Relation.Instance.complete_part inst))
      (Relation.Instance.size inst)
      seconds;
    Printf.printf "model size: %d meta-rules over %d attributes%s\n"
      (Mrsl.Model.size model)
      (Relation.Schema.arity schema)
      (if Mrsl.Model.truncated model then " (mining truncated by cap)" else "");
    Array.iteri
      (fun i l ->
        Printf.printf "  %-12s %5d meta-rules, max body %d\n"
          (Relation.Attribute.name (Relation.Schema.attribute schema i))
          (Mrsl.Lattice.size l) (Mrsl.Lattice.max_body_size l))
      (Mrsl.Model.lattices model);
    if verbose then Format.printf "%a@." Mrsl.Model.pp model;
    match save with
    | Some path ->
        Mrsl.Model_io.save path model;
        Printf.printf "model saved to %s\n" path
    | None -> ()
  in
  let info = Cmd.info "learn" ~doc:"Learn an MRSL model from a CSV file." in
  Cmd.v info
    Term.(
      const run $ input_arg $ support_arg $ max_itemsets_arg $ miner_arg
      $ verbose_arg $ save_arg)

(* ---------------- infer ---------------- *)

let strategy_arg =
  let doc = "Sampling strategy: tuple-dag, tuple-at-a-time, all-at-a-time." in
  let parse s =
    match String.lowercase_ascii s with
    | "tuple-dag" | "dag" -> Ok Mrsl.Workload.Tuple_dag
    | "tuple-at-a-time" | "tuple" -> Ok Mrsl.Workload.Tuple_at_a_time
    | "all-at-a-time" | "all" -> Ok Mrsl.Workload.All_at_a_time
    | _ -> Error (`Msg (Printf.sprintf "unknown strategy %S" s))
  in
  let print ppf s = Format.pp_print_string ppf (Mrsl.Workload.strategy_name s) in
  Arg.(
    value
    & opt (conv (parse, print)) Mrsl.Workload.Tuple_dag
    & info [ "strategy" ] ~doc)

let samples_arg =
  let doc = "Gibbs samples per tuple (N)." in
  Arg.(value & opt int 1000 & info [ "samples" ] ~doc)

let burn_in_arg =
  let doc = "Gibbs burn-in sweeps per chain (B)." in
  Arg.(value & opt int 100 & info [ "burn-in" ] ~doc)

let top_arg =
  let doc = "Print at most this many completions per tuple." in
  Arg.(value & opt int 5 & info [ "top" ] ~doc)

let infer_cmd =
  let model_arg =
    let doc =
      "Load a previously saved model instead of learning from the input \
       (the CSV must use the same schema)."
    in
    Arg.(value & opt (some file) None & info [ "model" ] ~doc)
  in
  let lenient_arg =
    let doc =
      "Tolerate malformed CSV rows: skip them, report each on stderr with \
       file:line and cause, and infer from the surviving rows (default: \
       the first malformed row aborts the load)."
    in
    Arg.(value & flag & info [ "lenient" ] ~doc)
  in
  let domains_arg =
    let doc =
      "Domains the workload scheduler samples on: workers pop ready \
       tuple-DAG tasks from one shared stack; 1 runs it on the calling \
       domain. Estimates are bit-identical for any value given the seed."
    in
    Arg.(value & opt positive_int 1 & info [ "domains" ] ~doc ~docv:"N")
  in
  let on_fault_arg =
    let doc =
      "Per-tuple fault policy: $(b,fail) aborts on the first task error; \
       $(b,skip) contains it to the tuple, skips its dependents, and \
       reports them after the surviving estimates. Applies to the \
       tuple-at-a-time and tuple-DAG strategies at any --domains."
    in
    Arg.(
      value
      & opt (enum [ ("fail", `Fail); ("skip", `Skip) ]) `Fail
      & info [ "on-fault" ] ~doc ~docv:"POLICY")
  in
  let retry_arg =
    let doc =
      "Check split R-hat convergence per tuple and retry non-converged \
       chains with doubled draws (bounded by the default retry policy); \
       tuples still unconverged after the budget are flagged."
    in
    Arg.(value & flag & info [ "retry" ] ~doc)
  in
  let cache_arg =
    let on =
      Arg.info [ "cache" ]
        ~doc:
          "Memoize Gibbs conditionals in the model's per-epoch conditional \
           tables, keyed by attribute and lattice-relevant evidence \
           context. Output is bit-identical to unmemoized output. Enabled \
           by default."
    in
    let off =
      Arg.info [ "no-cache" ]
        ~doc:
          "Recompute every Gibbs conditional (the paper prototype's cost \
           model)."
    in
    Arg.(value & vflag true [ (true, on); (false, off) ])
  in
  let print_estimate schema top (tup, est) =
    let block = Probdb.Block.of_estimate est in
    Format.printf "%a:@." (Relation.Tuple.pp schema) tup;
    List.iteri
      (fun i (a : Probdb.Block.alternative) ->
        if i < top then
          Format.printf "  %a  prob %.4f@."
            (Relation.Tuple.pp schema)
            (Relation.Tuple.of_point a.point)
            a.prob)
      block.alternatives;
    if Probdb.Block.alternative_count block > top then
      Format.printf "  … (%d more completions)@."
        (Probdb.Block.alternative_count block - top)
  in
  let run input support max_itemsets method_ strategy samples burn_in top
      model_path lenient domains on_fault retry memoize use_kernel trace
      prometheus seed =
    Mrsl.Kernel.set_enabled use_kernel;
    with_trace trace @@ fun () ->
    Fun.protect ~finally:(fun () -> write_prometheus prometheus) @@ fun () ->
    let inst =
      Mrsl.Trace.complete ~cat:"io"
        ~args:[ ("file", Mrsl.Trace.Str input) ]
        "csv.read"
      @@ fun () ->
      if lenient then begin
        let inst, row_errors = Relation.Csv_io.read_file_lenient input in
        List.iter
          (fun e ->
            Printf.eprintf "skipped: %s\n"
              (Relation.Csv_io.row_error_to_string e))
          row_errors;
        if row_errors <> [] then
          Printf.eprintf "%d malformed rows skipped\n"
            (List.length row_errors);
        inst
      end
      else Relation.Csv_io.read_file input
    in
    let schema = Relation.Instance.schema inst in
    let params = params_of support max_itemsets in
    let model =
      match model_path with
      | Some path ->
          let m = Mrsl.Model_io.load path in
          if not (Relation.Schema.equal (Mrsl.Model.schema m) schema) then begin
            Printf.eprintf
              "model schema does not match the input CSV; re-run learn\n";
            exit 1
          end;
          m
      | None -> Mrsl.Model.learn ~params inst
    in
    let incomplete = Array.to_list (Relation.Instance.incomplete_part inst) in
    if incomplete = [] then print_endline "no incomplete tuples to infer"
    else begin
      let config = { Mrsl.Gibbs.burn_in; samples } in
      if retry then begin
        (* Convergence-checked sequential path: one chain per distinct
           tuple, retried with doubled draws while split R-hat exceeds
           the threshold and the budget lasts. *)
        let sampler = Mrsl.Gibbs.sampler ~method_ ~memoize model in
        let rng = Prob.Rng.create seed in
        let distinct = List.sort_uniq compare incomplete in
        Printf.printf
          "inferring %d distinct incomplete tuples with convergence \
           retries\n\n"
          (List.length distinct);
        List.iter
          (fun tup ->
            let checked =
              Mrsl.Diagnostics.run_with_retries ~config rng sampler tup
            in
            print_estimate schema top (tup, checked.estimate);
            Format.printf "  R-hat %.4f after %d attempt%s (%d sweeps)%s@."
              checked.rhat checked.attempts
              (if checked.attempts = 1 then "" else "s")
              checked.total_sweeps
              (if checked.converged then ""
               else "  ** NOT converged: budget exhausted **"))
          distinct
      end
      else begin
        let policy =
          match on_fault with
          | `Fail -> Mrsl.Workload.Fail_fast
          | `Skip -> Mrsl.Workload.Skip_and_report
        in
        let contained =
          Mrsl.Workload.run_contained ~config ~strategy ~method_ ~memoize
            ~domains ~policy ~seed model incomplete
        in
        let result = contained.result in
        Printf.printf
          "inferred %d distinct incomplete tuples (%d sweeps, %.3fs, %s, %d \
           domains)\n\n"
          (List.length result.estimates)
          result.stats.sweeps result.stats.wall_seconds
          (Mrsl.Workload.strategy_name strategy)
          domains;
        List.iter (print_estimate schema top) result.estimates;
        List.iter
          (fun (f : Mrsl.Workload.tuple_fault) ->
            Format.eprintf "fault: tuple %a skipped: %a@."
              (Relation.Tuple.pp schema) f.tuple Mrsl.Error.pp f.error)
          contained.faults;
        if contained.faults <> [] then
          Printf.eprintf "%d tuples skipped by fault containment\n"
            (List.length contained.faults)
      end
    end
  in
  let info =
    Cmd.info "infer"
      ~doc:
        "Derive probability distributions for the incomplete tuples of a CSV."
  in
  Cmd.v info
    Term.(
      const run $ input_arg $ support_arg $ max_itemsets_arg $ method_arg
      $ strategy_arg $ samples_arg $ burn_in_arg $ top_arg $ model_arg
      $ lenient_arg $ domains_arg $ on_fault_arg $ retry_arg $ cache_arg
      $ kernel_arg $ trace_arg $ prometheus_arg $ seed_arg)

(* ---------------- profile ---------------- *)

let profile_cmd =
  let run input =
    let inst = Relation.Csv_io.read_file input in
    print_string (Relation.Profile.render inst)
  in
  let info =
    Cmd.info "profile"
      ~doc:
        "Summarize a CSV: per-attribute cardinality/missingness/entropy and \
         pairwise mutual information."
  in
  Cmd.v info Term.(const run $ input_arg)

(* ---------------- explain ---------------- *)

let explain_cmd =
  let json_arg =
    let doc =
      "Emit machine-readable provenance as JSON ($(i,all) incomplete \
       tuples, not just the first 5): per missing attribute the estimated \
       distribution keyed by value label, the degradation rung the task \
       took (voters | marginal-prior | uniform), and every voter with its \
       normalized share, specificity, and support weight."
    in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  (* The provenance of one (tuple, missing attribute) task, rung
     included — the machine-readable face of Infer_single.explain. *)
  let explain_json schema model method_ tup =
    let module Json = Mrsl.Telemetry.Json in
    let cell a v =
      Relation.Attribute.value_label (Relation.Schema.attribute schema a) v
    in
    let attr_json a =
      let e = Mrsl.Infer_single.explain ~method_ model tup a in
      let dist =
        List.init
          (Prob.Dist.size e.estimate)
          (fun v -> (cell a v, Json.Float (Prob.Dist.prob e.estimate v)))
      in
      let voter_json (rule, share) =
        Json.Obj
          [
            ( "rule",
              Json.String
                (Format.asprintf "%a" (Mrsl.Meta_rule.pp_named schema) rule) );
            ("share", Json.Float share);
            ("specificity", Json.Int (Mrsl.Meta_rule.specificity rule));
            ("weight", Json.Float rule.Mrsl.Meta_rule.weight);
          ]
      in
      Json.Obj
        [
          ("attr", Json.Int a);
          ( "name",
            Json.String
              (Relation.Attribute.name (Relation.Schema.attribute schema a)) );
          ("rung", Json.String (Mrsl.Infer_single.rung_name e.rung));
          ("estimate", Json.Obj dist);
          ("voters", Json.List (List.map voter_json e.contributions));
        ]
    in
    Json.Obj
      [
        ( "tuple",
          Json.List
            (List.mapi
               (fun a -> function
                 | None -> Json.Null
                 | Some v -> Json.String (cell a v))
               (Array.to_list tup)) );
        ( "attributes",
          Json.List (List.map attr_json (Relation.Tuple.missing tup)) );
      ]
  in
  let run input support max_itemsets method_ json =
    let inst = Relation.Csv_io.read_file input in
    let schema = Relation.Instance.schema inst in
    let params = params_of support max_itemsets in
    let model = Mrsl.Model.learn ~params inst in
    let incomplete = Relation.Instance.incomplete_part inst in
    if json then
      let module Json = Mrsl.Telemetry.Json in
      print_endline
        (Json.to_string
           (Json.Obj
              [
                ("schema_version", Json.Int 1);
                ("method", Json.String (Mrsl.Voting.method_name method_));
                ( "tuples",
                  Json.List
                    (Array.to_list
                       (Array.map (explain_json schema model method_)
                          incomplete)) );
              ]))
    else if Array.length incomplete = 0 then
      print_endline "no incomplete tuples to explain"
    else
      Array.iteri
        (fun i tup ->
          if i < 5 then begin
            Format.printf "@.%a:@." (Relation.Tuple.pp schema) tup;
            List.iter
              (fun a ->
                let e = Mrsl.Infer_single.explain ~method_ model tup a in
                Format.printf "  %s ~ %a  [rung: %s]@."
                  (Relation.Attribute.name (Relation.Schema.attribute schema a))
                  Prob.Dist.pp e.estimate
                  (Mrsl.Infer_single.rung_name e.rung);
                List.iter
                  (fun (rule, share) ->
                    Format.printf "    %5.1f%%  %a@." (100. *. share)
                      (Mrsl.Meta_rule.pp_named schema) rule)
                  e.contributions
              )
              (Relation.Tuple.missing tup)
          end)
        incomplete
  in
  let info =
    Cmd.info "explain"
      ~doc:
        "Show which meta-rules voted, with what share, and which \
         degradation rung each task took, for each missing value (first 5 \
         incomplete tuples; $(b,--json) emits all of them \
         machine-readably)."
  in
  Cmd.v info
    Term.(
      const run $ input_arg $ support_arg $ max_itemsets_arg $ method_arg
      $ json_arg)

(* ---------------- diagnose ---------------- *)

let diagnose_cmd =
  let chains_arg =
    let doc = "Number of independent Gibbs chains." in
    Arg.(value & opt int 4 & info [ "chains" ] ~doc)
  in
  let run input support max_itemsets samples burn_in chains seed =
    let inst = Relation.Csv_io.read_file input in
    let schema = Relation.Instance.schema inst in
    let params = params_of support max_itemsets in
    let model = Mrsl.Model.learn ~params inst in
    let sampler = Mrsl.Gibbs.sampler model in
    let rng = Prob.Rng.create seed in
    let incomplete = Relation.Instance.incomplete_part inst in
    if Array.length incomplete = 0 then
      print_endline "no incomplete tuples to diagnose"
    else begin
      Printf.printf
        "Gelman-Rubin diagnostics (%d chains x %d draws, burn-in %d):\n"
        chains samples burn_in;
      Array.iteri
        (fun i tup ->
          if i < 10 then begin
            let report =
              Mrsl.Diagnostics.diagnose ~chains ~draws:samples ~burn_in rng
                sampler tup
            in
            Format.printf "  %a  R-hat %.4f  ESS %.0f  %s@."
              (Relation.Tuple.pp schema) tup report.psrf_max report.ess_min
              (if Mrsl.Diagnostics.converged report then "converged"
               else "NOT converged — increase --samples or --burn-in")
          end)
        incomplete;
      if Array.length incomplete > 10 then
        Printf.printf "  ... (%d more tuples; first 10 shown)\n"
          (Array.length incomplete - 10)
    end
  in
  let info =
    Cmd.info "diagnose"
      ~doc:
        "Check Gibbs convergence (R-hat, effective sample size) for the \
         incomplete tuples of a CSV."
  in
  Cmd.v info
    Term.(
      const run $ input_arg $ support_arg $ max_itemsets_arg $ samples_arg
      $ burn_in_arg $ chains_arg $ seed_arg)

(* ---------------- query ---------------- *)

let query_cmd =
  let lazy_arg =
    let doc =
      "Use the lazy query-targeted view: infer only blocks the query's \
       outcome depends on (Section VIII future work)."
    in
    Arg.(value & flag & info [ "lazy" ] ~doc)
  in
  let where_arg =
    let doc = "Conjunctive condition, e.g. \"age=30,inc=100K\"." in
    Arg.(required & opt (some string) None & info [ "where" ] ~doc)
  in
  let parse_where schema text =
    let atom s =
      match String.split_on_char '=' (String.trim s) with
      | [ attr; value ] -> Probdb.Predicate.eq_label schema attr value
      | _ -> failwith (Printf.sprintf "bad condition %S (want attr=value)" s)
    in
    Probdb.Predicate.conj (List.map atom (String.split_on_char ',' text))
  in
  let run input support max_itemsets samples burn_in where lazy_ seed =
    let inst = Relation.Csv_io.read_file input in
    let schema = Relation.Instance.schema inst in
    let params = params_of support max_itemsets in
    let model = Mrsl.Model.learn ~params inst in
    let pred = parse_where schema where in
    Format.printf "query: %a@." (Probdb.Predicate.pp schema) pred;
    let config = { Mrsl.Gibbs.burn_in; samples } in
    if lazy_ then begin
      let view =
        Probdb.Lazy_pdb.create ~config (Prob.Rng.create seed) model inst
      in
      Printf.printf "expected count:    %.4f\n"
        (Probdb.Lazy_pdb.expected_count view pred);
      Printf.printf "P(at least one):   %.4f\n"
        (Probdb.Lazy_pdb.prob_exists view pred);
      Printf.printf "materialized:      %d of %d incomplete tuples\n"
        (Probdb.Lazy_pdb.materialized_count view)
        (Array.length (Relation.Instance.incomplete_part inst))
    end
    else begin
      let db = Probdb.Pdb.derive ~config (Prob.Rng.create seed) model inst in
      Printf.printf "possible worlds:   %.6g\n" (Probdb.Pdb.possible_worlds db);
      Printf.printf "expected count:    %.4f\n"
        (Probdb.Pdb.expected_count db pred);
      Printf.printf "P(at least one):   %.4f\n"
        (Probdb.Pdb.prob_exists db pred)
    end
  in
  let info =
    Cmd.info "query"
      ~doc:
        "Derive a probabilistic database from a CSV and answer a conjunctive \
         query."
  in
  Cmd.v info
    Term.(
      const run $ input_arg $ support_arg $ max_itemsets_arg $ samples_arg
      $ burn_in_arg $ where_arg $ lazy_arg $ seed_arg)

(* ---------------- quality ---------------- *)

let quality_cmd =
  let mask_arg =
    let doc =
      "Fraction of known cells the shadow evaluator masks, re-infers, and \
       scores against the held-out truth."
    in
    Arg.(value & opt float 0.2 & info [ "mask-fraction" ] ~doc)
  in
  let bins_arg =
    let doc = "Fixed-width reliability bins for the calibration monitor." in
    Arg.(value & opt int 10 & info [ "bins" ] ~doc)
  in
  let drift_arg =
    let doc =
      "Per-attribute Jensen-Shannon divergence above which drift alerts."
    in
    Arg.(value & opt float 0.05 & info [ "drift-threshold" ] ~doc)
  in
  let json_arg =
    let doc =
      "Print the machine-readable quality report (the QUALITY_*.json \
       schema that ci/quality_gate.exe consumes) instead of text."
    in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let out_arg =
    let doc = "Also write the JSON quality report to $(docv)." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc ~docv:"FILE")
  in
  let run input support max_itemsets method_ samples burn_in mask_fraction
      bins drift_threshold json out seed =
    let inst = Relation.Csv_io.read_file input in
    let params = params_of support max_itemsets in
    let model = Mrsl.Model.learn ~params inst in
    let config =
      {
        Mrsl.Quality.default_config with
        mask_fraction;
        bins;
        drift_threshold;
        seed;
      }
    in
    (* A fresh registry scopes the ensemble-health denominators
       (gibbs.chains / gibbs.checked) to this invocation. *)
    let registry = Mrsl.Telemetry.create () in
    let monitor = Mrsl.Quality.create ~config ~telemetry:registry () in
    let complete =
      Array.map Relation.Tuple.of_point (Relation.Instance.complete_part inst)
    in
    let cells = Mrsl.Quality.shadow_eval ~method_ monitor model complete in
    if not json then
      Printf.printf
        "shadow-masked %d cells over %d complete tuples (fraction %.2f, \
         seed %d)\n"
        cells (Array.length complete) mask_fraction seed;
    (* Monitored multi-attribute inference over the incomplete part feeds
       the drift monitor; observation only — estimates are bit-identical
       to an unmonitored run. *)
    let incomplete = Array.to_list (Relation.Instance.incomplete_part inst) in
    if incomplete <> [] then begin
      let sampler = Mrsl.Gibbs.sampler ~method_ model in
      ignore
        (Mrsl.Workload.run
           ~config:{ Mrsl.Gibbs.burn_in; samples }
           ~telemetry:registry ~quality:monitor
           (Prob.Rng.create seed)
           sampler incomplete)
    end;
    Mrsl.Quality.publish ~registry monitor;
    let report () = Mrsl.Quality.to_json ~registry monitor in
    if json then
      print_endline (Mrsl.Telemetry.Json.to_string (report ()))
    else print_string (Mrsl.Quality.render ~registry monitor);
    match out with
    | Some path ->
        Out_channel.with_open_bin path (fun oc ->
            output_string oc (Mrsl.Telemetry.Json.to_string (report ()));
            output_char oc '\n');
        Printf.eprintf "quality report -> %s\n%!" path
    | None -> ()
  in
  let info =
    Cmd.info "quality"
      ~doc:
        "Statistical quality report for a CSV: shadow-masked calibration \
         (Brier, log loss, ECE/MCE, reliability diagram), per-attribute \
         drift, and ensemble health."
  in
  Cmd.v info
    Term.(
      const run $ input_arg $ support_arg $ max_itemsets_arg $ method_arg
      $ samples_arg $ burn_in_arg $ mask_arg $ bins_arg $ drift_arg
      $ json_arg $ out_arg $ seed_arg)

(* ---------------- trace ---------------- *)

let trace_cmd =
  let file_arg =
    let doc =
      "Chrome trace-event JSON file produced by $(b,mrsl infer --trace) or \
       the benchmark harness."
    in
    Arg.(required & pos 0 (some file) None & info [] ~doc ~docv:"TRACE.json")
  in
  let run file =
    let text = In_channel.with_open_bin file In_channel.input_all in
    (* The repo's Chrome traces nest 4 deep (traceEvents, event, args). *)
    match Mrsl.Telemetry.Json.of_string ~max_depth:16 text with
    | exception Mrsl.Telemetry.Json.Parse_error msg ->
        Printf.eprintf "%s: not valid JSON: %s\n" file msg;
        exit 1
    | json -> (
        match Mrsl.Trace.summarize json with
        | summary -> print_string summary
        | exception Invalid_argument msg ->
            Printf.eprintf "%s: not a Chrome trace: %s\n" file msg;
            exit 1)
  in
  let info =
    Cmd.info "trace"
      ~doc:
        "Summarize a recorded trace: top spans by total duration, \
         per-domain utilization, counter series, dropped events, and a \
         serve section for daemon traces."
  in
  Cmd.v info Term.(const run $ file_arg)

(* ---------------- experiment ---------------- *)

let experiment_cmd =
  let id_arg =
    let doc =
      "Artifact id: table1, fig4, table2, fig5, fig6, fig8, fig9, fig10, \
       fig11, baselines, missingness, ablations."
    in
    Arg.(required & pos 0 (some string) None & info [] ~doc ~docv:"ID")
  in
  let run id seed =
    let rng = Prob.Rng.create seed in
    let render =
      match id with
      | "table1" -> Some (fun () -> Experiments.Table1.render ())
      | "fig4" -> Some (fun () -> Experiments.Fig4.render rng scale)
      | "table2" -> Some (fun () -> Experiments.Table2.render rng scale)
      | "fig5" -> Some (fun () -> Experiments.Fig5.render rng scale)
      | "fig6" -> Some (fun () -> Experiments.Fig6.render rng scale)
      | "fig8" -> Some (fun () -> Experiments.Fig8.render rng scale)
      | "fig9" -> Some (fun () -> Experiments.Fig9.render rng scale)
      | "fig10" -> Some (fun () -> Experiments.Fig10.render rng scale)
      | "fig11" -> Some (fun () -> Experiments.Fig11.render rng scale)
      | "ablations" -> Some (fun () -> Experiments.Ablations.render rng scale)
      | "baselines" ->
          Some (fun () -> Experiments.Baselines_exp.render rng scale)
      | "missingness" ->
          Some (fun () -> Experiments.Missingness_exp.render rng scale)
      | _ -> None
    in
    match render with
    | Some f ->
        Printf.printf "scale=%s\n%s\n" scale.name (f ())
    | None ->
        Printf.eprintf "unknown artifact %S\n" id;
        exit 1
  in
  let info =
    Cmd.info "experiment"
      ~doc:"Regenerate one of the paper's tables or figures (see MRSL_SCALE)."
  in
  Cmd.v info Term.(const run $ id_arg $ seed_arg)

(* ---------------- serve / client ---------------- *)

let endpoint_term =
  let socket_arg =
    let doc = "Serve on (connect to) a Unix-domain socket at $(docv)." in
    Arg.(value & opt (some string) None & info [ "socket" ] ~doc ~docv:"PATH")
  in
  let host_arg =
    let doc = "TCP host for --port." in
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~doc)
  in
  let port_arg =
    let doc = "Serve on (connect to) TCP $(i,host):$(docv)." in
    Arg.(value & opt (some int) None & info [ "port" ] ~doc ~docv:"PORT")
  in
  let make socket host port =
    match (socket, port) with
    | Some path, None -> Ok (Serving.Protocol.Unix_socket path)
    | None, Some port -> Ok (Serving.Protocol.Tcp (host, port))
    | Some _, Some _ -> Error (`Msg "--socket and --port are exclusive")
    | None, None -> Error (`Msg "one of --socket or --port is required")
  in
  Term.(term_result (const make $ socket_arg $ host_arg $ port_arg))

let engine_config_of seed method_ samples burn_in =
  {
    Serving.Engine.default_config with
    seed;
    method_;
    gibbs = { Mrsl.Gibbs.burn_in; samples };
  }

let serve_cmd =
  let model_arg =
    let doc = "Serialized model to serve (see `learn --save-model')." in
    Arg.(
      required & opt (some file) None & info [ "model" ] ~doc ~docv:"FILE")
  in
  let batch_max_arg =
    let doc =
      "Drain at most $(docv) queued requests into one engine batch \
       (batching is what dedups identical concurrent requests)."
    in
    Arg.(value & opt int 64 & info [ "batch-max" ] ~doc ~docv:"N")
  in
  let queue_arg =
    let doc =
      "Admission bound: beyond $(docv) queued requests new ones are \
       answered `serve.overloaded' immediately."
    in
    Arg.(value & opt int 1024 & info [ "queue-capacity" ] ~doc ~docv:"N")
  in
  let max_conns_arg =
    let doc =
      "Live-connection cap: past $(docv) connections an accept is \
       answered `serve.conn_rejected' and closed immediately. \
       Regardless of $(docv), descriptors the select loop cannot \
       represent (>= 1024) are always rejected."
    in
    Arg.(value & opt int 1000 & info [ "max-conns" ] ~doc ~docv:"N")
  in
  let idle_timeout_arg =
    let doc =
      "Kill a connection that completes no frame for $(docv) seconds \
       while it has nothing queued (slow-loris defense); 0 disables."
    in
    Arg.(value & opt float 30. & info [ "idle-timeout" ] ~doc ~docv:"SECONDS")
  in
  let deadline_ms_arg =
    let doc =
      "Default per-request latency budget in milliseconds for requests \
       that carry no `deadline_ms' of their own; a request still queued \
       past its budget is shed with `serve.deadline_exceeded'. 0 \
       disables the default budget."
    in
    Arg.(value & opt int 30_000 & info [ "deadline-ms" ] ~doc ~docv:"MS")
  in
  let out_buf_max_arg =
    let doc =
      "Per-connection response-buffer ceiling in bytes: a peer that \
       stops reading is dropped (`serve.out_buf_killed') once its \
       buffered responses pass $(docv)."
    in
    Arg.(
      value
      & opt int (4 * 1024 * 1024)
      & info [ "out-buf-max" ] ~doc ~docv:"BYTES")
  in
  let out_buf_total_arg =
    let doc =
      "Aggregate response-buffer budget in bytes across all \
       connections: per-connection ceilings compose (max-conns x \
       out-buf-max), so past $(docv) total buffered bytes the \
       connections with the largest buffers are dropped \
       (`serve.out_buf_killed') until the rest fits."
    in
    Arg.(
      value
      & opt int (64 * 1024 * 1024)
      & info [ "out-buf-total" ] ~doc ~docv:"BYTES")
  in
  let access_log_arg =
    let doc =
      "Write a structured JSON access log (one object per logged \
       request: phase breakdown, outcome, conn, epoch) to $(docv); `-' \
       logs to stdout. Sampling is deterministic — see `--log-sample'."
    in
    Arg.(
      value & opt (some string) None & info [ "access-log" ] ~doc ~docv:"FILE")
  in
  let slow_ms_arg =
    let doc =
      "Always log requests slower than $(docv) milliseconds end-to-end, \
       regardless of the sampling rate."
    in
    Arg.(value & opt float 100. & info [ "slow-ms" ] ~doc ~docv:"MS")
  in
  let log_sample_arg =
    let doc =
      "Fraction of ordinary requests to log, decided by a deterministic \
       splitmix draw keyed on (seed, request sequence) — the same seed \
       and workload always sample the same lines. Errors, sheds, and \
       deadline expiries are always logged."
    in
    Arg.(value & opt float 1.0 & info [ "log-sample" ] ~doc ~docv:"FRAC")
  in
  let domains_arg =
    let doc =
      "Ignored, whatever $(docv): each multi-missing request runs on one \
       worker on the event loop's domain. Accepted so that existing \
       command lines still parse."
    in
    Arg.(value & opt (some int) None & info [ "domains" ] ~doc ~docv:"N")
  in
  let run model_path endpoint seed method_ samples burn_in _domains
      use_kernel batch_max queue_capacity max_conns idle_timeout deadline_ms
      out_buf_max out_buf_total trace access_log slow_ms log_sample =
    Mrsl.Kernel.set_enabled use_kernel;
    if Sys.getenv_opt "MRSL_LOG" = None then begin
      Logs.set_reporter (Logs.format_reporter ());
      Logs.set_level (Some Logs.Info)
    end;
    let stop = Atomic.make false in
    let hup = Atomic.make false in
    Sys.set_signal Sys.sighup
      (Sys.Signal_handle (fun _ -> Atomic.set hup true));
    let request_stop _ = Atomic.set stop true in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
    Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
    let config = engine_config_of seed method_ samples burn_in in
    let engine = Serving.Engine.create ~config ~model_path () in
    let log_oc =
      match access_log with
      | None -> None
      | Some "-" -> Some stdout
      | Some path -> Some (open_out path)
    in
    let server_config =
      {
        (Serving.Server.default_config endpoint) with
        batch_max;
        queue_capacity;
        max_conns;
        idle_timeout;
        out_buf_max;
        out_buf_total;
        default_deadline =
          (if deadline_ms <= 0 then infinity
           else float_of_int deadline_ms /. 1000.);
        access_log = log_oc;
        slow_ms;
        log_sample;
      }
    in
    Fun.protect
      ~finally:(fun () ->
        match log_oc with
        | Some oc when oc != stdout -> close_out_noerr oc
        | _ -> ())
      (fun () ->
        with_trace trace (fun () ->
            Serving.Server.run ~stop ~hup server_config engine))
  in
  let info =
    Cmd.info "serve"
      ~doc:
        "Serve a model over a Unix or TCP socket: line-delimited JSON \
         requests (infer, ping, stats, reload, shutdown), batched \
         inference with request dedup, bounded admission, hot model swap \
         on SIGHUP or `reload', and a live Prometheus GET /metrics \
         endpoint on the same socket."
  in
  Cmd.v info
    Term.(
      const run $ model_arg $ endpoint_term $ seed_arg $ method_arg
      $ samples_arg $ burn_in_arg $ domains_arg
      $ kernel_arg $ batch_max_arg $ queue_arg $ max_conns_arg $ idle_timeout_arg
      $ deadline_ms_arg $ out_buf_max_arg $ out_buf_total_arg $ trace_arg
      $ access_log_arg $ slow_ms_arg $ log_sample_arg)

let client_cmd =
  let module Json = Mrsl.Telemetry.Json in
  let with_client endpoint f =
    let c =
      Serving.Client.connect_retry ~attempts:100 ~delay:0.05 ~timeout:30.
        endpoint
    in
    Fun.protect ~finally:(fun () -> Serving.Client.close c) (fun () -> f c)
  in
  let print_response line =
    print_endline line;
    match Json.of_string ~max_depth:Serving.Protocol.max_depth line with
    | Json.Obj fields ->
        if List.assoc_opt "ok" fields = Some (Json.Bool false) then exit 1
    | _ | (exception Json.Parse_error _) -> exit 1
  in
  let simple name ~doc op =
    let run endpoint =
      with_client endpoint (fun c ->
          print_response (Serving.Client.rpc c (Serving.Protocol.req op)))
    in
    Cmd.v (Cmd.info name ~doc) Term.(const run $ endpoint_term)
  in
  let reload_cmd =
    let path_arg =
      let doc = "Model file to load (default: the server's current path)." in
      Arg.(value & opt (some string) None & info [ "path" ] ~doc ~docv:"FILE")
    in
    let run endpoint path =
      with_client endpoint (fun c ->
          print_response
            (Serving.Client.rpc c (Serving.Protocol.req (Reload path))))
    in
    Cmd.v
      (Cmd.info "reload" ~doc:"Hot-swap the served model.")
      Term.(const run $ endpoint_term $ path_arg)
  in
  let infer_cmd =
    let tuple_arg =
      let doc =
        "Comma-separated value labels in schema order; `?' (or empty) \
         marks a missing value, e.g. \"30,?,NY\"."
      in
      Arg.(
        required & opt (some string) None & info [ "tuple" ] ~doc ~docv:"T")
    in
    let deadline_arg =
      let doc =
        "Attach a `deadline_ms' latency budget of $(docv) milliseconds \
         to the request; the server sheds it with \
         `serve.deadline_exceeded' if still queued past the budget."
      in
      Arg.(
        value
        & opt (some int) None
        & info [ "deadline-ms" ] ~doc ~docv:"MS")
    in
    let run endpoint tuple deadline_ms =
      let labels =
        String.split_on_char ',' tuple
        |> List.map (fun s ->
               let s = String.trim s in
               if s = "" || s = "?" then None else Some s)
        |> Array.of_list
      in
      with_client endpoint (fun c ->
          print_response
            (Serving.Client.rpc c
               (Serving.Protocol.req ?deadline_ms (Infer labels))))
    in
    Cmd.v
      (Cmd.info "infer"
         ~doc:"Request the posterior of one incomplete tuple.")
      Term.(const run $ endpoint_term $ tuple_arg $ deadline_arg)
  in
  let raw_cmd =
    let line_arg =
      let doc = "Raw line to send (need not be valid JSON)." in
      Arg.(required & pos 0 (some string) None & info [] ~doc ~docv:"LINE")
    in
    let run endpoint line =
      with_client endpoint (fun c ->
          Serving.Client.send_raw c line;
          print_endline (Serving.Client.recv c))
    in
    Cmd.v
      (Cmd.info "raw"
         ~doc:
           "Send one raw protocol line and print the response — for \
            driving the server with malformed input.")
      Term.(const run $ endpoint_term $ line_arg)
  in
  let metrics_cmd =
    let run endpoint =
      print_string (Serving.Client.scrape_metrics ~timeout:30. endpoint)
    in
    Cmd.v
      (Cmd.info "metrics"
         ~doc:"Scrape GET /metrics and print the Prometheus exposition.")
      Term.(const run $ endpoint_term)
  in
  let profile_cmd =
    let run endpoint =
      with_client endpoint (fun c ->
          let obj = Serving.Client.stats_json c in
          let phases =
            match Json.member "phases" obj with
            | Some (Json.Obj ps) -> ps
            | _ ->
                failwith
                  "stats response has no phases object — is the daemon \
                   older than the observability pass?"
          in
          let num key fields =
            match List.assoc_opt key fields with
            | Some (Json.Float f) -> Some f
            | Some (Json.Int i) -> Some (float_of_int i)
            | _ -> None
          in
          Printf.printf "%-12s %8s %12s %12s %12s\n" "phase" "count"
            "p50 (ms)" "p99 (ms)" "max (ms)";
          List.iter
            (fun (name, v) ->
              match v with
              | Json.Obj fields ->
                  let count =
                    match num "count" fields with
                    | Some c -> int_of_float c
                    | None -> 0
                  in
                  let cell key =
                    match num key fields with
                    | Some f when count > 0 -> Printf.sprintf "%.3f" f
                    | _ -> "-"
                  in
                  Printf.printf "%-12s %8d %12s %12s %12s\n" name count
                    (cell "p50_ms") (cell "p99_ms") (cell "max_ms")
              | _ -> ())
            phases;
          (* Resources block (daemons from the resource-observability
             pass onward): GC/heap footprint, per-domain utilization and
             the cache accounted-vs-reachable cross-check. *)
          match Json.member "resources" obj with
          | Some (Json.Obj res) ->
              let fnum path =
                let rec walk obj = function
                  | [] -> None
                  | [ k ] -> num k obj
                  | k :: rest -> (
                      match List.assoc_opt k obj with
                      | Some (Json.Obj o) -> walk o rest
                      | _ -> None)
                in
                walk res path
              in
              let mb = function
                | Some b -> Printf.sprintf "%.1f MiB" (b /. (1024. *. 1024.))
                | None -> "-"
              in
              let count = function
                | Some c -> Printf.sprintf "%.0f" c
                | None -> "-"
              in
              Printf.printf "\nresources:\n";
              Printf.printf "  heap %s (peak %s)  minor/major/compact %s/%s/%s\n"
                (mb (fnum [ "mem"; "heap_bytes" ]))
                (mb (fnum [ "mem"; "top_heap_bytes" ]))
                (count (fnum [ "gc"; "minor_collections" ]))
                (count (fnum [ "gc"; "major_collections" ]))
                (count (fnum [ "gc"; "compactions" ]));
              (match
                 ( fnum [ "cache"; "accounted_bytes" ],
                   fnum [ "cache"; "reachable_bytes" ] )
               with
              | Some acc, Some reach ->
                  Printf.printf
                    "  cache accounted %s vs reachable %s (x%.2f)\n"
                    (mb (Some acc)) (mb (Some reach))
                    (if reach > 0. then acc /. reach else 1.)
              | _ -> ());
              (match List.assoc_opt "domains" res with
              | Some (Json.List ds) when ds <> [] ->
                  Printf.printf "  domain utilization:";
                  List.iter
                    (fun d ->
                      match d with
                      | Json.Obj fields -> (
                          match
                            (num "domain" fields, num "utilization" fields)
                          with
                          | Some id, Some u ->
                              Printf.printf " %d=%.2f" (int_of_float id) u
                          | _ -> ())
                      | _ -> ())
                    ds;
                  print_newline ()
              | _ -> ())
          | _ -> ())
    in
    Cmd.v
      (Cmd.info "profile"
         ~doc:
           "Show the daemon's live per-phase latency breakdown \
            (queue-wait / compute / flush-wait / total p50, p99, and \
            max) and resource footprint (GC, heap, domain utilization, \
            cache bytes) from its `stats' op.")
      Term.(const run $ endpoint_term)
  in
  let verify_cmd =
    let window_arg =
      let doc =
        "Pipeline at most $(docv) outstanding requests (keeps a large \
         verification under the server's admission bound while still \
         exercising batching)."
      in
      Arg.(value & opt int 64 & info [ "window" ] ~doc ~docv:"N")
    in
    let model_arg =
      let doc =
        "The model file the server is serving — loaded locally as the \
         reference."
      in
      Arg.(
        required & opt (some file) None & info [ "model" ] ~doc ~docv:"FILE")
    in
    let run endpoint model_path input seed method_ samples burn_in use_kernel
        window =
      (* Controls only the LOCAL reference engine; the daemon's kernel
         setting is its own. `--no-kernel' makes the reference run the
         interpreted oracle, so verify cross-checks a kernel-enabled
         daemon against interpreted inference bit-for-bit. *)
      Mrsl.Kernel.set_enabled use_kernel;
      let inst = Relation.Csv_io.read_file input in
      let config = engine_config_of seed method_ samples burn_in in
      (* A private registry keeps the reference engine's serve.* metrics
         out of the process-global registry. *)
      let local =
        Serving.Engine.create
          ~telemetry:(Mrsl.Telemetry.create ())
          ~config ~model_path ()
      in
      let schema = Mrsl.Model.schema (Serving.Engine.model local) in
      if not (Relation.Schema.equal schema (Relation.Instance.schema inst))
      then failwith "model schema does not match the input CSV";
      let to_labels tup =
        Array.mapi
          (fun a cell ->
            Option.map
              (fun v ->
                Relation.Attribute.value_label
                  (Relation.Schema.attribute schema a)
                  v)
              cell)
          tup
      in
      let incomplete =
        Array.to_list (Relation.Instance.incomplete_part inst)
      in
      if incomplete = [] then failwith "input has no incomplete tuples";
      let requests =
        List.mapi
          (fun i tup ->
            Serving.Protocol.req ~id:(Json.Int i) (Infer (to_labels tup)))
          incomplete
      in
      (* Strip the epoch before comparing: model epochs are
         process-unique, so the server's differs from the reference
         engine's by construction. Everything else — attrs, posteriors
         (round-trip float printing), mode, samples_used, id — must be
         bit-identical. *)
      let payload line =
        match Json.of_string ~max_depth:Serving.Protocol.max_depth line with
        | Json.Obj fields ->
            Json.to_string ~pretty:false
              (Json.Obj (List.filter (fun (k, _) -> k <> "epoch") fields))
        | j -> Json.to_string ~pretty:false j
      in
      let mismatches = ref 0 in
      let compared = ref 0 in
      with_client endpoint (fun c ->
          let rec go pending =
            match pending with
            | [] -> ()
            | _ ->
                let burst, rest =
                  let rec split n = function
                    | x :: tl when n > 0 ->
                        let a, b = split (n - 1) tl in
                        (x :: a, b)
                    | l -> ([], l)
                  in
                  split (max 1 window) pending
                in
                List.iter (Serving.Client.send c) burst;
                List.iter
                  (fun req ->
                    let served = Serving.Client.recv c in
                    let reference =
                      Serving.Engine.handle_request local req
                    in
                    incr compared;
                    if payload served <> payload (String.trim reference)
                    then begin
                      incr mismatches;
                      Printf.eprintf "MISMATCH\n  served:    %s\n  local:     %s\n"
                        served (String.trim reference)
                    end)
                  burst;
                go rest
          in
          go requests);
      Printf.printf
        "verified %d served posteriors bit-identical to local inference\n"
        !compared;
      if !mismatches > 0 then begin
        Printf.eprintf "%d mismatches\n" !mismatches;
        exit 1
      end
    in
    Cmd.v
      (Cmd.info "verify"
         ~doc:
           "Query the server for every incomplete tuple of a CSV and \
            check each served posterior is bit-identical to local \
            inference through the same library entry points.")
      Term.(
        const run $ endpoint_term $ model_arg $ input_arg $ seed_arg
        $ method_arg $ samples_arg $ burn_in_arg $ kernel_arg $ window_arg)
  in
  let info =
    Cmd.info "client"
      ~doc:"Talk to a running $(b,mrsl serve) daemon (scripting and CI)."
  in
  Cmd.group info
    [
      simple "ping" ~doc:"Liveness check (reports the model epoch)."
        Serving.Protocol.Ping;
      simple "stats" ~doc:"Request counters and cache statistics."
        Serving.Protocol.Stats;
      simple "shutdown" ~doc:"Ask the server to shut down gracefully."
        Serving.Protocol.Shutdown;
      reload_cmd; infer_cmd; raw_cmd; metrics_cmd; profile_cmd; verify_cmd;
    ]

(* ---------------- resources ---------------- *)

let resources_cmd =
  let domains_arg =
    let doc =
      "Run the monitored inference on this many domains (per-domain \
       utilization needs at least one pooled worker)."
    in
    Arg.(value & opt positive_int 2 & info [ "domains" ] ~doc ~docv:"N")
  in
  let json_arg =
    let doc = "Emit the machine-readable JSON report instead of text." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run input support max_itemsets method_ samples burn_in domains
      use_kernel json trace seed =
    let module Json = Mrsl.Telemetry.Json in
    Mrsl.Kernel.set_enabled use_kernel;
    with_trace trace @@ fun () ->
    let inst = Relation.Csv_io.read_file input in
    let params = params_of support max_itemsets in
    let model = Mrsl.Model.learn ~params inst in
    let incomplete = Array.to_list (Relation.Instance.incomplete_part inst) in
    if incomplete = [] then begin
      Printf.eprintf
        "no incomplete tuples — the resource report needs an inference \
         workload\n";
      exit 1
    end;
    let config = { Mrsl.Gibbs.burn_in; samples } in
    (* Monitor exactly the inference run (learning stays outside), so the
       registry deltas below read as "what this workload cost". The
       conditional tables are filled as [Engine] fills them: one cached
       single-missing inference per (tuple, missing attribute). *)
    let report =
      Mrsl.Resource.monitored @@ fun () ->
      let cache = Mrsl.Posterior_cache.create () in
      List.iter
        (fun tup ->
          List.iter
            (fun a -> ignore (Mrsl.Infer_single.infer ~method_ ~cache model tup a))
            (Relation.Tuple.missing tup))
        incomplete;
      let _ =
        Mrsl.Workload.run_contained ~config ~method_ ~domains ~seed model
          incomplete
      in
      Mrsl.Resource.sample_current ();
      Mrsl.Resource.report ~model ()
    in
    if json then print_endline (Json.to_string report)
    else begin
      let reg = Mrsl.Telemetry.global in
      let c name = Mrsl.Telemetry.counter reg name in
      let mb b = Printf.sprintf "%.1f MiB" (float_of_int b /. 1048576.) in
      let kb f =
        if f >= 1048576. then Printf.sprintf "%.2f MiB" (f /. 1048576.)
        else Printf.sprintf "%.1f KiB" (f /. 1024.)
      in
      Printf.printf "resource report: %d tuples, %d domains, %d samples\n"
        (List.length incomplete) domains samples;
      Printf.printf "gc:          minor %d  major %d  compactions %d\n"
        (c "gc.minor_collections") (c "gc.major_collections")
        (c "gc.compactions");
      let gauge name =
        match Mrsl.Telemetry.gauge_value reg name with
        | Some last -> int_of_float last
        | None -> 0
      in
      Printf.printf "heap:        %s (peak %s)\n"
        (mb (gauge "mem.heap_bytes"))
        (mb (gauge "mem.top_heap_bytes"));
      Printf.printf "allocated:   %s (promoted %s)\n"
        (mb (c "mem.allocated_bytes"))
        (mb (c "mem.promoted_bytes"));
      List.iter
        (fun (label, name) ->
          match Mrsl.Telemetry.histogram reg name with
          | Some (s : Mrsl.Telemetry.summary) when s.count > 0 ->
              Printf.printf "%s n=%d  p50 %s  p99 %s  max %s\n" label s.count
                (kb s.p50) (kb s.p99) (kb s.max)
          | _ -> ())
        [
          ("alloc/infer:", "mem.alloc_per_infer_bytes");
          ("alloc/chain:", "mem.alloc_per_chain_bytes");
        ];
      (match Mrsl.Resource.utilization () with
      | [] -> ()
      | util ->
          Printf.printf "utilization:";
          List.iter (fun (d, u) -> Printf.printf " %d=%.2f" d u) util;
          print_newline ());
      let epoch = Mrsl.Model.epoch model in
      let bytes = (Mrsl.Kernel.usage epoch).bytes in
      let reach = Mrsl.Kernel.reachable_bytes epoch in
      Printf.printf "tables:      accounted %s vs reachable %s (x%.2f)\n"
        (mb bytes) (mb reach)
        (if reach > 0 then float_of_int bytes /. float_of_int reach else 1.)
    end
  in
  let info =
    Cmd.info "resources"
      ~doc:
        "Run a resource-monitored inference over a CSV's incomplete \
         tuples and report GC counts, heap footprint, allocation per \
         task, per-domain utilization, and the hashed conditional \
         tables' accounted-vs-reachable bytes — the measured baseline for \
         ROADMAP item 2's allocation-free kernels."
  in
  Cmd.v info
    Term.(
      const run $ input_arg $ support_arg $ max_itemsets_arg $ method_arg
      $ samples_arg $ burn_in_arg $ domains_arg $ kernel_arg
      $ json_arg $ trace_arg $ seed_arg)

let setup_logging () =
  match Sys.getenv_opt "MRSL_LOG" with
  | None -> ()
  | Some lvl ->
      Logs.set_reporter (Logs.format_reporter ());
      Logs.set_level
        (match String.lowercase_ascii lvl with
        | "debug" -> Some Logs.Debug
        | "info" -> Some Logs.Info
        | "warning" -> Some Logs.Warning
        | _ -> Some Logs.Info)

let () =
  setup_logging ();
  if Mrsl.Fault_inject.install_from_env () then
    Printf.eprintf "fault injection active: %s\n%!"
      (Mrsl.Fault_inject.describe (Mrsl.Fault_inject.current ()));
  let doc =
    "MRSL: deriving probabilistic databases with inference ensembles \
     (reproduction of Stoyanovich et al., ICDE 2011)"
  in
  let info = Cmd.info "mrsl" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            generate_cmd; profile_cmd; learn_cmd; infer_cmd; explain_cmd;
            diagnose_cmd; quality_cmd; query_cmd; trace_cmd; experiment_cmd;
            resources_cmd; serve_cmd; client_cmd;
          ]))
