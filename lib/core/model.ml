let log_src = Logs.Src.create "mrsl" ~doc:"MRSL learning and inference"

module Log = (val Logs.src_log log_src)

type miner = Apriori | Fp_growth

type params = {
  support_threshold : float;
  max_itemsets : int;
  smoothing_floor : float;
  miner : miner;
}

let default_params =
  {
    support_threshold = 0.02;
    max_itemsets = 1000;
    smoothing_floor = Prob.Dist.smoothing_floor;
    miner = Apriori;
  }

type t = {
  schema : Relation.Schema.t;
  lattices : Lattice.t array;
  params : params;
  frequent_itemsets : int;
  truncated : bool;
  epoch : int;
      (* Process-unique model generation, assigned at construction from a
         global atomic counter. Two models never share an epoch, so a
         posterior cache keyed by epoch can never serve results computed
         against a different (e.g. retrained or reloaded) model. *)
}

let epoch_counter = Atomic.make 0
let next_epoch () = Atomic.fetch_and_add epoch_counter 1

(* The root meta-rule P(a): exact marginal value frequencies over the
   points, weight 1 (it is supported by the whole dataset). *)
let root_meta_rule ~floor schema points attr =
  let card = Relation.Schema.cardinality schema attr in
  let counts = Array.make card 0 in
  Array.iter (fun p -> counts.(p.(attr)) <- counts.(p.(attr)) + 1) points;
  let n = Array.length points in
  let raw =
    if n = 0 then Array.make card 0.
    else Array.map (fun c -> float_of_int c /. float_of_int n) counts
  in
  Meta_rule.make ~floor ~body:Mining.Itemset.empty ~head_attr:attr
    ~weight:1.0 ~raw_cpd:raw ()

let group_rules_by_body rules =
  let groups = Mining.Itemset.Table.create 256 in
  List.iter
    (fun (r : Mining.Assoc_rule.t) ->
      let prev =
        Option.value ~default:[]
          (Mining.Itemset.Table.find_opt groups r.body)
      in
      Mining.Itemset.Table.replace groups r.body (r :: prev))
    rules;
  groups

let learn_points ?(params = default_params) schema points =
  if params.support_threshold < 0. || params.support_threshold > 1. then
    invalid_arg "Model.learn: support_threshold must be in [0, 1]";
  if params.max_itemsets < 1 then
    invalid_arg "Model.learn: max_itemsets must be positive";
  if params.smoothing_floor <= 0. || params.smoothing_floor >= 0.5 then
    invalid_arg "Model.learn: smoothing_floor must be in (0, 0.5)";
  let arity = Relation.Schema.arity schema in
  let cards = Array.init arity (Relation.Schema.cardinality schema) in
  let config : Mining.Apriori.config =
    {
      threshold = params.support_threshold;
      max_itemsets = params.max_itemsets;
    }
  in
  Telemetry.span Telemetry.global "model.learn" @@ fun () ->
  Trace.complete ~cat:"learn"
    ~args:[ ("points", Trace.Int (Array.length points)) ]
    "model.learn"
  @@ fun () ->
  let t0 = Clock.now () in
  let miner_name =
    match params.miner with Apriori -> "apriori" | Fp_growth -> "fp-growth"
  in
  let mined =
    Trace.complete ~cat:"mine"
      ~args:
        [
          ("miner", Trace.Str miner_name);
          ("points", Trace.Int (Array.length points));
        ]
      "mine.frequent_itemsets"
      (fun () ->
        match params.miner with
        | Apriori -> Mining.Apriori.mine ~config ~cards points
        | Fp_growth -> Mining.Fp_growth.mine ~config ~cards points)
  in
  Log.debug (fun m ->
      m "%s: %d frequent itemsets in %d rounds%s (%.3fs, θ=%g, %d points)"
        miner_name
        (Mining.Apriori.count mined)
        (Mining.Apriori.rounds mined)
        (if Mining.Apriori.truncated mined then " [truncated]" else "")
        (Clock.now () -. t0)
        params.support_threshold (Array.length points));
  (* Sorted once here, not once per head attribute. *)
  let frequent = Mining.Apriori.frequent mined in
  let lattice_of_attr attr =
    Trace.complete ~cat:"lattice"
      ~args:[ ("attr", Trace.Int attr) ]
      "lattice.build"
    @@ fun () ->
    let head_card = cards.(attr) in
    let root =
      root_meta_rule ~floor:params.smoothing_floor schema points attr
    in
    let rules = Mining.Assoc_rule.mine_for_attr ~frequent mined attr in
    let groups = group_rules_by_body rules in
    let metas =
      Mining.Itemset.Table.fold
        (fun body group acc ->
          (* The empty body is covered by the exact-marginal root. *)
          if Mining.Itemset.is_empty body then acc
          else
            Meta_rule.of_rules ~floor:params.smoothing_floor ~head_card group
            :: acc)
        groups []
    in
    Lattice.create ~head_attr:attr ~head_card ~root metas
  in
  let lattices = Array.init arity lattice_of_attr in
  Log.info (fun m ->
      m "learned MRSL model: %d meta-rules over %d attributes (%.3fs)"
        (Array.fold_left (fun acc l -> acc + Lattice.size l) 0 lattices)
        arity
        (Clock.now () -. t0));
  {
    schema;
    lattices;
    params;
    frequent_itemsets = Mining.Apriori.count mined;
    truncated = Mining.Apriori.truncated mined;
    epoch = next_epoch ();
  }

let of_parts ?(params = default_params) ?(frequent_itemsets = 0)
    ?(truncated = false) schema lattices =
  let arity = Relation.Schema.arity schema in
  if Array.length lattices <> arity then
    invalid_arg "Model.of_parts: one lattice per attribute required";
  Array.iteri
    (fun i l ->
      if Lattice.head_attr l <> i then
        invalid_arg "Model.of_parts: lattice head attribute out of order";
      if Lattice.head_card l <> Relation.Schema.cardinality schema i then
        invalid_arg "Model.of_parts: lattice cardinality mismatch")
    lattices;
  { schema; lattices = Array.copy lattices; params; frequent_itemsets;
    truncated; epoch = next_epoch () }

let learn ?params inst =
  learn_points ?params (Relation.Instance.schema inst)
    (Relation.Instance.complete_part inst)

let schema t = t.schema
let params t = t.params

let lattice t i =
  if i < 0 || i >= Array.length t.lattices then
    invalid_arg "Model.lattice: attribute index out of range";
  t.lattices.(i)

let lattices t = Array.copy t.lattices

let size t =
  Array.fold_left (fun acc l -> acc + Lattice.size l) 0 t.lattices

let frequent_itemsets t = t.frequent_itemsets
let truncated t = t.truncated
let epoch t = t.epoch

let pp ppf t =
  Format.fprintf ppf "@[<v>MRSL model over %a: %d meta-rules%s@,%a@]"
    Relation.Schema.pp t.schema (size t)
    (if t.truncated then " (mining truncated)" else "")
    (Format.pp_print_seq ~pp_sep:Format.pp_print_cut Lattice.pp)
    (Array.to_seq t.lattices)
