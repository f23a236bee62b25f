(* Statistical quality observability (see quality.mli).

   Everything here is observation-only: the monitor consumes no
   inference RNG and shares no sampler state, so a monitored run is
   bit-identical to an unmonitored one. All accumulator mutation happens
   under one mutex; the observation volume (one update per shadow cell /
   per estimate) is far off the Gibbs hot path. *)

module Json = Telemetry.Json

type config = {
  mask_fraction : float;
  seed : int;
  bins : int;
  drift_threshold : float;
  sharpen : float;
}

let default_config =
  {
    mask_fraction = 0.2;
    seed = 2011;
    bins = 10;
    drift_threshold = 0.05;
    sharpen = 1.0;
  }

(* Per-attribute drift aggregate: running sum of posterior probability
   vectors plus the observation count. *)
type drift_acc = { mutable sum : float array; mutable n : int }

type t = {
  cfg : config;
  sink : Telemetry.t;
  lock : Mutex.t;
  (* scoring *)
  mutable cells : int;
  mutable brier_sum : float;
  mutable logloss_sum : float;
  mutable top1 : int;
  bin_count : int array;
  bin_conf : float array;
  bin_hit : int array;
  (* ensemble health *)
  mutable tasks : int;
  mutable voters_total : int;
  mutable root_only : int;
  strata : (int, int) Hashtbl.t;
  mutable rung_total : int;
  mutable rung_marginal : int;
  mutable rung_uniform : int;
  (* drift *)
  posteriors : (int, drift_acc) Hashtbl.t;
  mutable reference : (string * Prob.Dist.t option) array option;
  mutable alerted : int;  (* drift.alerts already counted into the sink *)
}

let create ?(config = default_config) ?(telemetry = Telemetry.global) () =
  if
    (not (Float.is_finite config.mask_fraction))
    || config.mask_fraction < 0. || config.mask_fraction > 1.
  then invalid_arg "Quality.create: mask_fraction must be in [0, 1]";
  if config.bins < 1 then invalid_arg "Quality.create: bins must be >= 1";
  if not (config.sharpen > 0.) then
    invalid_arg "Quality.create: sharpen must be positive";
  {
    cfg = config;
    sink = telemetry;
    lock = Mutex.create ();
    cells = 0;
    brier_sum = 0.;
    logloss_sum = 0.;
    top1 = 0;
    bin_count = Array.make config.bins 0;
    bin_conf = Array.make config.bins 0.;
    bin_hit = Array.make config.bins 0;
    tasks = 0;
    voters_total = 0;
    root_only = 0;
    strata = Hashtbl.create 8;
    rung_total = 0;
    rung_marginal = 0;
    rung_uniform = 0;
    posteriors = Hashtbl.create 8;
    reference = None;
    alerted = 0;
  }

let config t = t.cfg

(* --- deterministic cell selection ------------------------------------ *)

(* The masking decision is {!Fault_inject.hash}'s uniform draw keyed by
   (row, attr): a pure function of (seed, row, attr) — independent of
   call order and domain count. *)
let should_mask cfg ~row ~attr =
  cfg.mask_fraction > 0.
  && Fault_inject.unit_float ~seed:cfg.seed ~site:row ~key:attr
     < cfg.mask_fraction

(* --- injection hook --------------------------------------------------- *)

let sharpen d gamma =
  if gamma = 1.0 then d
  else
    Prob.Dist.of_weights
      (Array.map (fun p -> p ** gamma) (Prob.Dist.to_array d))

(* --- observation ------------------------------------------------------ *)

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let bin_index bins conf =
  (* conf in [0, 1]; exactly 1.0 lands in the last bin *)
  let i = int_of_float (conf *. float_of_int bins) in
  if i >= bins then bins - 1 else if i < 0 then 0 else i

let trace_stride = 64

let score_cell t ~attr ~truth d =
  let n = Prob.Dist.size d in
  if truth < 0 || truth >= n then
    invalid_arg "Quality.score_cell: truth outside the distribution";
  let cells_now =
    locked t (fun () ->
        (* multiclass Brier: Σ_j (p_j - 1{j = truth})² *)
        let b = ref 0. in
        for j = 0 to n - 1 do
          let y = if j = truth then 1. else 0. in
          let diff = Prob.Dist.prob d j -. y in
          b := !b +. (diff *. diff)
        done;
        t.brier_sum <- t.brier_sum +. !b;
        let p_true = Float.max (Prob.Dist.prob d truth) 1e-300 in
        t.logloss_sum <- t.logloss_sum -. log p_true;
        let top = Prob.Dist.mode d in
        let conf = Prob.Dist.prob d top in
        if top = truth then t.top1 <- t.top1 + 1;
        let bi = bin_index t.cfg.bins conf in
        t.bin_count.(bi) <- t.bin_count.(bi) + 1;
        t.bin_conf.(bi) <- t.bin_conf.(bi) +. conf;
        if top = truth then t.bin_hit.(bi) <- t.bin_hit.(bi) + 1;
        (* drift aggregate *)
        (let acc =
           match Hashtbl.find_opt t.posteriors attr with
           | Some acc ->
               if Array.length acc.sum <> n then
                 invalid_arg
                   "Quality.score_cell: cardinality changed for attribute";
               acc
           | None ->
               let acc = { sum = Array.make n 0.; n = 0 } in
               Hashtbl.add t.posteriors attr acc;
               acc
         in
         for j = 0 to n - 1 do
           acc.sum.(j) <- acc.sum.(j) +. Prob.Dist.prob d j
         done;
         acc.n <- acc.n + 1);
        t.cells <- t.cells + 1;
        t.cells)
  in
  Telemetry.incr t.sink "quality.cells";
  Telemetry.observe t.sink "quality.confidence"
    (Prob.Dist.prob d (Prob.Dist.mode d));
  if Trace.enabled () && cells_now mod trace_stride = 0 then
    locked t (fun () ->
        let fc = float_of_int t.cells in
        Trace.counter ~cat:"quality" "quality.scores"
          [
            ("brier", t.brier_sum /. fc);
            ("log_loss", t.logloss_sum /. fc);
            ("top1_accuracy", float_of_int t.top1 /. fc);
            ("cells", fc);
          ])

let observe_voters t voters =
  locked t (fun () ->
      t.tasks <- t.tasks + 1;
      t.voters_total <- t.voters_total + List.length voters;
      (match voters with
      | [ v ] when Meta_rule.specificity v = 0 ->
          t.root_only <- t.root_only + 1
      | _ -> ());
      List.iter
        (fun v ->
          let s = Meta_rule.specificity v in
          Hashtbl.replace t.strata s
            (1 + Option.value ~default:0 (Hashtbl.find_opt t.strata s)))
        voters);
  (match voters with
  | [ v ] when Meta_rule.specificity v = 0 ->
      Telemetry.incr t.sink "quality.voters.root_only"
  | _ -> ());
  Telemetry.observe t.sink "quality.voters.count"
    (float_of_int (List.length voters));
  List.iter
    (fun v ->
      Telemetry.observe t.sink "quality.voters.specificity"
        (float_of_int (Meta_rule.specificity v)))
    voters

let observe_rung t rung =
  locked t (fun () ->
      t.rung_total <- t.rung_total + 1;
      match (rung : Infer_single.rung) with
      | Infer_single.Voters -> ()
      | Infer_single.Marginal_prior -> t.rung_marginal <- t.rung_marginal + 1
      | Infer_single.Uniform -> t.rung_uniform <- t.rung_uniform + 1)

let attach_model t model =
  let schema = Model.schema model in
  let arity = Relation.Schema.arity schema in
  locked t (fun () ->
      match t.reference with
      | Some r when Array.length r = arity -> ()
      | Some _ ->
          invalid_arg
            "Quality.attach_model: a model with a different arity is already \
             attached"
      | None ->
          t.reference <-
            Some
              (Array.init arity (fun a ->
                   ( Relation.Attribute.name (Relation.Schema.attribute schema a),
                     Infer_single.marginal_prior model a ))))

let accumulate_posterior t ~attr d =
  locked t (fun () ->
      let n = Prob.Dist.size d in
      let acc =
        match Hashtbl.find_opt t.posteriors attr with
        | Some acc ->
            if Array.length acc.sum <> n then
              invalid_arg
                "Quality.observe_estimates: cardinality changed for attribute";
            acc
        | None ->
            let acc = { sum = Array.make n 0.; n = 0 } in
            Hashtbl.add t.posteriors attr acc;
            acc
      in
      for j = 0 to n - 1 do
        acc.sum.(j) <- acc.sum.(j) +. Prob.Dist.prob d j
      done;
      acc.n <- acc.n + 1)

let observe_estimates t estimates =
  List.iter
    (fun ((_tup : Relation.Tuple.t), (est : Gibbs.estimate)) ->
      List.iter
        (fun a -> accumulate_posterior t ~attr:a (Gibbs.marginal est a))
        est.Gibbs.missing)
    estimates

(* --- the shadow-masking evaluator ------------------------------------- *)

let shadow_eval ?(method_ = Voting.best_averaged) t model tuples =
  attach_model t model;
  let cfg = t.cfg in
  let scored = ref 0 in
  Trace.complete ~cat:"quality"
    ~args:[ ("tuples", Trace.Int (Array.length tuples)) ]
    "quality.shadow_eval"
  @@ fun () ->
  Array.iteri
    (fun row tup ->
      List.iter
        (fun (a, truth) ->
          if should_mask cfg ~row ~attr:a then begin
            let masked = Array.copy tup in
            masked.(a) <- None;
            let e = Infer_single.explain ~method_ model masked a in
            observe_voters t (List.map fst e.Infer_single.contributions);
            observe_rung t e.Infer_single.rung;
            let d =
              if cfg.sharpen = 1.0 then e.Infer_single.estimate
              else sharpen e.Infer_single.estimate cfg.sharpen
            in
            score_cell t ~attr:a ~truth d;
            incr scored
          end)
        (Relation.Tuple.known tup))
    tuples;
  !scored

(* --- reports ----------------------------------------------------------- *)

type bin = {
  lo : float;
  hi : float;
  count : int;
  confidence : float;
  accuracy : float;
}

let reliability t =
  locked t (fun () ->
      let b = t.cfg.bins in
      let w = 1. /. float_of_int b in
      Array.init b (fun i ->
          let n = t.bin_count.(i) in
          {
            lo = float_of_int i *. w;
            hi = (if i = b - 1 then 1.0 else float_of_int (i + 1) *. w);
            count = n;
            confidence = (if n = 0 then 0. else t.bin_conf.(i) /. float_of_int n);
            accuracy =
              (if n = 0 then 0.
               else float_of_int t.bin_hit.(i) /. float_of_int n);
          }))

let calibration_errors t =
  let bins = reliability t in
  let total =
    Array.fold_left (fun acc (b : bin) -> acc + b.count) 0 bins
  in
  if total = 0 then (0., 0.)
  else
    Array.fold_left
      (fun (ece, mce) (b : bin) ->
        if b.count = 0 then (ece, mce)
        else
          let gap = Float.abs (b.accuracy -. b.confidence) in
          ( ece +. (float_of_int b.count /. float_of_int total *. gap),
            Float.max mce gap ))
      (0., 0.) bins

let ece t = fst (calibration_errors t)
let mce t = snd (calibration_errors t)

type scores = {
  cells : int;
  brier : float;
  log_loss : float;
  top1_accuracy : float;
  ece : float;
  mce : float;
}

let scores t =
  let ece_v, mce_v = calibration_errors t in
  locked t (fun () ->
      if t.cells = 0 then
        {
          cells = 0;
          brier = 0.;
          log_loss = 0.;
          top1_accuracy = 0.;
          ece = ece_v;
          mce = mce_v;
        }
      else
        let n = float_of_int t.cells in
        {
          cells = t.cells;
          brier = t.brier_sum /. n;
          log_loss = t.logloss_sum /. n;
          top1_accuracy = float_of_int t.top1 /. n;
          ece = ece_v;
          mce = mce_v;
        })

type drift = {
  attr : int;
  name : string;
  observations : int;
  js : float;
  hellinger : float;
  kl : float;
  alert : bool;
}

let drift_epsilon = 1e-6

let drift_report t =
  locked t (fun () ->
      match t.reference with
      | None -> []
      | Some reference ->
          let rows = ref [] in
          Array.iteri
            (fun attr (name, ref_marginal) ->
              match (ref_marginal, Hashtbl.find_opt t.posteriors attr) with
              | Some reference_d, Some acc when acc.n > 0 ->
                  let mean =
                    Prob.Dist.of_weights
                      (Array.map (fun s -> s /. float_of_int acc.n) acc.sum)
                  in
                  if Prob.Dist.size reference_d = Prob.Dist.size mean then begin
                    let js = Prob.Divergence.jensen_shannon reference_d mean in
                    let hellinger =
                      Prob.Divergence.hellinger reference_d mean
                    in
                    let kl =
                      Prob.Divergence.kl ~epsilon:drift_epsilon reference_d
                        mean
                    in
                    rows :=
                      {
                        attr;
                        name;
                        observations = acc.n;
                        js;
                        hellinger;
                        kl;
                        alert = js > t.cfg.drift_threshold;
                      }
                      :: !rows
                  end
              | _ -> ())
            reference;
          List.rev !rows)

type health = {
  tasks : int;
  voters_per_task : float;
  root_only_share : float;
  strata : (int * int) list;
  degrade_marginal_share : float;
  degrade_uniform_share : float;
  chains : int;
  checked_runs : int;
  nonconverged_share : float;
}

let health ?(registry = Telemetry.global) t =
  let chains = Telemetry.counter registry "gibbs.chains" in
  let checked = Telemetry.counter registry "gibbs.checked" in
  let nonconverged = Telemetry.counter registry "degrade.nonconverged" in
  locked t (fun () ->
      let share num den =
        if den = 0 then 0. else float_of_int num /. float_of_int den
      in
      {
        tasks = t.tasks;
        voters_per_task =
          (if t.tasks = 0 then 0.
           else float_of_int t.voters_total /. float_of_int t.tasks);
        root_only_share = share t.root_only t.tasks;
        strata =
          Hashtbl.fold (fun s n acc -> (s, n) :: acc) t.strata []
          |> List.sort (fun (a, _) (b, _) -> Int.compare a b);
        degrade_marginal_share = share t.rung_marginal t.rung_total;
        degrade_uniform_share = share t.rung_uniform t.rung_total;
        chains;
        checked_runs = checked;
        nonconverged_share = share nonconverged checked;
      })

(* --- export ------------------------------------------------------------ *)

let drift_maxima rows =
  List.fold_left
    (fun (js, h, alerts) r ->
      ( Float.max js r.js,
        Float.max h r.hellinger,
        alerts + if r.alert then 1 else 0 ))
    (0., 0., 0) rows

let publish ?registry t =
  let s = scores t in
  let rows = drift_report t in
  let h = health ?registry t in
  let js_max, hellinger_max, alerts = drift_maxima rows in
  let g = Telemetry.gauge t.sink in
  g "quality.brier" s.brier;
  g "quality.log_loss" s.log_loss;
  g "quality.top1_accuracy" s.top1_accuracy;
  g "quality.ece" s.ece;
  g "quality.mce" s.mce;
  g "quality.drift.js_max" js_max;
  g "quality.drift.hellinger_max" hellinger_max;
  g "quality.voters.per_task" h.voters_per_task;
  g "quality.voters.root_only_share" h.root_only_share;
  g "quality.degrade.marginal_prior_share" h.degrade_marginal_share;
  g "quality.degrade.uniform_share" h.degrade_uniform_share;
  g "quality.nonconverged_share" h.nonconverged_share;
  (* count alert *transitions* so the counter stays monotone across
     repeated publishes of a steady state *)
  let newly =
    locked t (fun () ->
        let newly = max 0 (alerts - t.alerted) in
        t.alerted <- max t.alerted alerts;
        newly)
  in
  if newly > 0 then Telemetry.add t.sink "quality.drift.alerts" newly;
  if Trace.enabled () then
    List.iter
      (fun r ->
        if r.alert then
          Trace.instant ~cat:"quality"
            ~args:[ ("attr", Trace.Int r.attr); ("js", Trace.Float r.js) ]
            "quality.drift.alert")
      rows

let json_of_config cfg =
  Json.Obj
    [
      ("mask_fraction", Json.Float cfg.mask_fraction);
      ("seed", Json.Int cfg.seed);
      ("bins", Json.Int cfg.bins);
      ("drift_threshold", Json.Float cfg.drift_threshold);
      ("sharpen", Json.Float cfg.sharpen);
    ]

let to_json ?registry t =
  let s = scores t in
  let rows = drift_report t in
  let h = health ?registry t in
  let js_max, hellinger_max, alerts = drift_maxima rows in
  Json.Obj
    [
      ("schema_version", Json.Int 1);
      ("config", json_of_config t.cfg);
      ( "scores",
        Json.Obj
          [
            ("cells", Json.Int s.cells);
            ("brier", Json.Float s.brier);
            ("log_loss", Json.Float s.log_loss);
            ("top1_accuracy", Json.Float s.top1_accuracy);
            ("ece", Json.Float s.ece);
            ("mce", Json.Float s.mce);
          ] );
      ( "reliability",
        Json.List
          (Array.to_list
             (Array.map
                (fun (b : bin) ->
                  Json.Obj
                    [
                      ("lo", Json.Float b.lo);
                      ("hi", Json.Float b.hi);
                      ("count", Json.Int b.count);
                      ("confidence", Json.Float b.confidence);
                      ("accuracy", Json.Float b.accuracy);
                    ])
                (reliability t))) );
      ( "drift",
        Json.Obj
          [
            ("js_max", Json.Float js_max);
            ("hellinger_max", Json.Float hellinger_max);
            ("alerts", Json.Int alerts);
            ( "attrs",
              Json.List
                (List.map
                   (fun r ->
                     Json.Obj
                       [
                         ("attr", Json.Int r.attr);
                         ("name", Json.String r.name);
                         ("observations", Json.Int r.observations);
                         ("js", Json.Float r.js);
                         ("hellinger", Json.Float r.hellinger);
                         ("kl", Json.Float r.kl);
                         ("alert", Json.Bool r.alert);
                       ])
                   rows) );
          ] );
      ( "health",
        Json.Obj
          [
            ("tasks", Json.Int h.tasks);
            ("voters_per_task", Json.Float h.voters_per_task);
            ("root_only_share", Json.Float h.root_only_share);
            ( "strata",
              Json.List
                (List.map
                   (fun (s, n) ->
                     Json.Obj
                       [
                         ("specificity", Json.Int s); ("voters", Json.Int n);
                       ])
                   h.strata) );
            ("degrade_marginal_share", Json.Float h.degrade_marginal_share);
            ("degrade_uniform_share", Json.Float h.degrade_uniform_share);
            ("chains", Json.Int h.chains);
            ("checked_runs", Json.Int h.checked_runs);
            ("nonconverged_share", Json.Float h.nonconverged_share);
          ] );
    ]

let render ?registry t =
  let buf = Buffer.create 1024 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let s = scores t in
  out "shadow-masked cells scored: %d (mask fraction %.2f, seed %d)\n"
    s.cells t.cfg.mask_fraction t.cfg.seed;
  out "  brier %.4f | log loss %.4f | top-1 %.4f | ECE %.4f | MCE %.4f\n"
    s.brier s.log_loss s.top1_accuracy s.ece s.mce;
  out "reliability diagram (%d fixed-width bins over top-1 confidence):\n"
    t.cfg.bins;
  out "  %-14s %8s %12s %10s %8s\n" "bin" "count" "confidence" "accuracy"
    "gap";
  Array.iter
    (fun (b : bin) ->
      if b.count > 0 then
        out "  [%.2f, %.2f%c %8d %12.4f %10.4f %+8.4f\n" b.lo b.hi
          (if b.hi >= 1.0 then ']' else ')')
          b.count b.confidence b.accuracy
          (b.accuracy -. b.confidence))
    (reliability t);
  let rows = drift_report t in
  out "drift (empirical marginal vs mean inferred posterior, threshold JS > %.3f):\n"
    t.cfg.drift_threshold;
  if rows = [] then out "  (no posteriors observed)\n"
  else
    List.iter
      (fun r ->
        out "  %-12s obs %6d  JS %.5f  Hellinger %.5f  KL(ε) %.5f%s\n"
          r.name r.observations r.js r.hellinger r.kl
          (if r.alert then "  ** DRIFT ALERT **" else ""))
      rows;
  let h = health ?registry t in
  out "ensemble health:\n";
  out "  tasks %d | voters/task %.2f | root-only share %.4f\n" h.tasks
    h.voters_per_task h.root_only_share;
  List.iter
    (fun (s, n) -> out "    stratum %d (body size %d): %d voters\n" s s n)
    h.strata;
  out
    "  degrade shares: marginal-prior %.4f | uniform %.4f (over %d observed \
     rungs)\n"
    h.degrade_marginal_share h.degrade_uniform_share t.rung_total;
  out "  gibbs: %d chains, %d convergence-checked, nonconverged share %.4f\n"
    h.chains h.checked_runs h.nonconverged_share;
  Buffer.contents buf
