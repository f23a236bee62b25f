type t = {
  body : Mining.Itemset.t;
  head_attr : int;
  cpd : Prob.Dist.t;
  weight : float;
}

let make ?floor ~body ~head_attr ~weight ~raw_cpd () =
  if head_attr < 0 then invalid_arg "Meta_rule.make: negative head attribute";
  if Mining.Itemset.mem_attr body head_attr then
    invalid_arg "Meta_rule.make: head attribute appears in the body";
  if not (weight >= 0. && weight <= 1. +. 1e-9) then
    invalid_arg "Meta_rule.make: weight must be a support in [0, 1]";
  { body; head_attr; cpd = Prob.Dist.smooth ?floor raw_cpd; weight }

let of_distribution ~body ~head_attr ~weight cpd =
  if head_attr < 0 then
    invalid_arg "Meta_rule.of_distribution: negative head attribute";
  if Mining.Itemset.mem_attr body head_attr then
    invalid_arg "Meta_rule.of_distribution: head attribute appears in the body";
  if not (weight >= 0. && weight <= 1. +. 1e-9) then
    invalid_arg "Meta_rule.of_distribution: weight must be a support in [0, 1]";
  { body; head_attr; cpd; weight }

let of_rules ?floor ~head_card rules =
  match rules with
  | [] -> invalid_arg "Meta_rule.of_rules: empty rule list"
  | (first : Mining.Assoc_rule.t) :: _ ->
      let raw = Array.make head_card 0. in
      List.iter
        (fun (r : Mining.Assoc_rule.t) ->
          if not (Mining.Itemset.equal r.body first.body) then
            invalid_arg "Meta_rule.of_rules: bodies differ";
          if r.head_attr <> first.head_attr then
            invalid_arg "Meta_rule.of_rules: head attributes differ";
          if r.head_value < 0 || r.head_value >= head_card then
            invalid_arg "Meta_rule.of_rules: head value out of range";
          if raw.(r.head_value) > 0. then
            invalid_arg "Meta_rule.of_rules: duplicate head value";
          raw.(r.head_value) <- r.confidence)
        rules;
      make ?floor ~body:first.body ~head_attr:first.head_attr
        ~weight:first.body_support ~raw_cpd:raw ()

let matches m tup = Mining.Itemset.matches_tuple m.body tup

let subsumes m1 m2 =
  m1.head_attr = m2.head_attr
  && Mining.Itemset.proper_subset m1.body m2.body

let specificity m = Mining.Itemset.size m.body

let pp ppf m =
  Format.fprintf ppf "P(a%d | %a) = %a  (w=%.3f)" m.head_attr
    Mining.Itemset.pp m.body Prob.Dist.pp m.cpd m.weight

let pp_named schema ppf m =
  let attr i = Relation.Schema.attribute schema i in
  let pp_item ppf (a, v) =
    Format.fprintf ppf "%s=%s"
      (Relation.Attribute.name (attr a))
      (Relation.Attribute.value_label (attr a) v)
  in
  let pp_body ppf body =
    match Mining.Itemset.to_list body with
    | [] -> ()
    | items ->
        Format.fprintf ppf " | %a"
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ∧ ")
             pp_item)
          items
  in
  Format.fprintf ppf "P(%s%a) = %a  (w=%.3f)"
    (Relation.Attribute.name (attr m.head_attr))
    pp_body m.body Prob.Dist.pp m.cpd m.weight
